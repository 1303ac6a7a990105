package kmedian

import (
	"math/rand"
	"testing"

	"dpc/internal/engine"
	"dpc/internal/metric"
)

func parityPoints(seed int64, n, dim int) []metric.Point {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]metric.Point, n)
	for i := range pts {
		p := make(metric.Point, dim)
		for d := range p {
			p[d] = rng.NormFloat64() * 10
		}
		pts[i] = p
	}
	return pts
}

func sameSolution(t *testing.T, label string, ref, got Solution) {
	t.Helper()
	if got.Cost != ref.Cost {
		t.Fatalf("%s: cost %v != reference %v", label, got.Cost, ref.Cost)
	}
	if len(got.Centers) != len(ref.Centers) {
		t.Fatalf("%s: %d centers != reference %d", label, len(got.Centers), len(ref.Centers))
	}
	for i := range ref.Centers {
		if got.Centers[i] != ref.Centers[i] {
			t.Fatalf("%s: centers %v != reference %v", label, got.Centers, ref.Centers)
		}
	}
	for j := range ref.DroppedWeight {
		if got.DroppedWeight[j] != ref.DroppedWeight[j] {
			t.Fatalf("%s: dropped weight differs at client %d", label, j)
		}
	}
}

// TestEngineMatchesReference is the core engine contract: the fast local
// search must return bit-identical solutions to the seed sequential
// implementation, for every worker count, with and without the distance
// cache, weighted and unweighted. The second half runs the instances that
// stress the swap-pruning bounds: fractional budgets (Bicriteria's
// t*(1+eps)), squared costs, duplicate points (distance ties) and
// zero-weight clients.
func TestEngineMatchesReference(t *testing.T) {
	for _, n := range []int{40, 300, 900} {
		for _, weighted := range []bool{false, true} {
			pts := parityPoints(int64(n)+3, n, 2)
			var w []float64
			if weighted {
				rng := rand.New(rand.NewSource(int64(n)))
				w = make([]float64, n)
				for i := range w {
					w[i] = 0.5 + rng.Float64()*3
				}
			}
			base := metric.NewPoints(pts)
			tt := float64(n / 15)
			ref := LocalSearch(base, w, 6, tt, Options{Seed: 9, Options: engine.Options{Reference: true}})
			for _, workers := range []int{1, 3, 8} {
				for _, cached := range []bool{false, true} {
					var c metric.Costs = base
					if cached {
						c = metric.NewDistCache(base)
					}
					got := LocalSearch(c, w, 6, tt, Options{Seed: 9, Options: engine.Options{Workers: workers}})
					label := "localsearch"
					if cached {
						label += "+cache"
					}
					sameSolution(t, label, ref, got)
				}
			}
		}
	}

	pts := parityPoints(41, 600, 2)
	dup := append(append([]metric.Point(nil), pts[:300]...), pts[:300]...)
	rng := rand.New(rand.NewSource(5))
	w := make([]float64, len(pts))
	for i := range w {
		if rng.Intn(4) > 0 {
			w[i] = 0.5 + rng.Float64()*3
		}
	}
	for _, tc := range []struct {
		name  string
		costs metric.Costs
		w     []float64
		eps   float64
	}{
		{"fractional", metric.NewPoints(pts), nil, 0.37},
		{"fractional-weighted", metric.NewPoints(pts), w, 0.37},
		{"squared", metric.Squared{C: metric.NewPoints(pts)}, nil, 0.25},
		{"squared-weighted", metric.Squared{C: metric.NewPoints(pts)}, w, 0},
		{"duplicates", metric.NewPoints(dup), nil, 0.1},
		{"duplicates-zero-weights", metric.NewPoints(dup), w, 0.1},
	} {
		tt := float64(tc.costs.Clients()) / 23
		ref := Bicriteria(tc.costs, tc.w, 7, tt, tc.eps, RelaxOutliers, EngineLocalSearch,
			Options{Seed: 3, Options: engine.Options{Reference: true}})
		for _, workers := range []int{1, 4} {
			got := Bicriteria(tc.costs, tc.w, 7, tt, tc.eps, RelaxOutliers, EngineLocalSearch,
				Options{Seed: 3, Options: engine.Options{Workers: workers}})
			sameSolution(t, tc.name, ref, got)
		}
	}
}

// TestJVMatchesReference pins the primal-dual engine: the precomputed
// shared edge orders and the parallel event reductions must not change any
// probe of the lambda binary search.
func TestJVMatchesReference(t *testing.T) {
	for _, n := range []int{30, 90, 140} {
		pts := parityPoints(int64(n)+11, n, 2)
		base := metric.NewPoints(pts)
		tt := float64(n / 10)
		ref := JV(base, nil, 4, tt, 0.5, Options{Seed: 5, Options: engine.Options{Reference: true}})
		for _, workers := range []int{1, 4} {
			got := JV(metric.NewDistCache(base), nil, 4, tt, 0.5, Options{Seed: 5, Options: engine.Options{Workers: workers}})
			sameSolution(t, "jv", ref, got)
		}
	}
}

// TestEvalPMatchesEval pins the parallel assignment loop.
func TestEvalPMatchesEval(t *testing.T) {
	pts := parityPoints(21, 700, 3)
	base := metric.NewPoints(pts)
	centers := []int{3, 99, 250, 600}
	ref := Eval(base, nil, centers, 31)
	for _, workers := range []int{2, 5} {
		got := EvalP(base, nil, centers, 31, workers)
		sameSolution(t, "evalp", ref, got)
		for j := range ref.Assign {
			if got.Assign[j] != ref.Assign[j] {
				t.Fatalf("assignment differs at client %d", j)
			}
		}
	}
}

// TestPartialCostUnitMatchesPairs pins the unit-weight fast walk against
// the reference pair walk on adversarial tie patterns.
func TestPartialCostUnitMatchesPairs(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(60)
		d := make([]float64, n)
		for i := range d {
			d[i] = float64(rng.Intn(8)) / 4 // many exact ties, incl. zeros
		}
		tt := rng.Float64() * float64(n)
		ds := make([]cd, n)
		for i := range d {
			ds[i] = cd{d: d[i], w: 1}
		}
		want := partialCostPairs(ds, tt)
		got := partialCostUnit(append([]float64(nil), d...), tt)
		if got != want {
			t.Fatalf("trial %d: partialCostUnit = %v, partialCostPairs = %v (d=%v t=%v)", trial, got, want, d, tt)
		}
	}
}
