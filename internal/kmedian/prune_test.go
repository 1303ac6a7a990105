package kmedian

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"dpc/internal/metric"
)

// fuzzValue draws a nonnegative cost spanning the float64 range the bounds
// must survive: zeros, subnormals, ordinary magnitudes and values near
// 1e300.
func fuzzValue(r *rand.Rand) float64 {
	switch r.Intn(6) {
	case 0:
		return 0
	case 1:
		return float64(1+r.Intn(1<<20)) * math.SmallestNonzeroFloat64
	case 2:
		return r.Float64() * 1e-300
	case 3:
		return float64(r.Intn(8)) / 4
	case 4:
		return r.Float64() * 1e300
	}
	return math.Ldexp(r.Float64(), r.Intn(200)-100)
}

// FuzzSwapLowerBound checks both pruning tiers against the exact partial
// cost on adversarial inputs: random costs buf below an envelope u, with
// duplicates, from subnormals to 1e300; unit weights and weights including
// zeros; fractional, negative, oversize and non-finite budgets. Each bound
// must be <= the partialCostUnit/partialCostPairs result bit for bit, and
// swapCost, given a threshold just above the exact cost, must return that
// exact cost rather than prune.
func FuzzSwapLowerBound(f *testing.F) {
	f.Add(int64(1), uint8(40), 3.5)
	f.Add(int64(2), uint8(7), 0.0)
	f.Add(int64(3), uint8(200), 1e9)
	f.Add(int64(4), uint8(1), 0.999)
	f.Add(int64(5), uint8(64), -2.0)
	f.Add(int64(6), uint8(33), math.Inf(1))
	f.Add(int64(7), uint8(120), math.NaN())
	f.Fuzz(func(t *testing.T, seed int64, size uint8, budget float64) {
		r := rand.New(rand.NewSource(seed))
		n := 1 + int(size)
		u := make([]float64, n)
		buf := make([]float64, n)
		for j := range u {
			if j > 0 && r.Intn(4) == 0 {
				u[j] = u[r.Intn(j)] // duplicate envelope value
			} else {
				u[j] = fuzzValue(r)
			}
			switch r.Intn(3) {
			case 0:
				buf[j] = u[j]
			case 1:
				buf[j] = u[j] * r.Float64() // rounds to at most u[j]
			default:
				buf[j] = min(u[j], fuzzValue(r))
			}
		}
		w := make([]float64, n)
		for j := range w {
			switch r.Intn(4) {
			case 0:
				w[j] = 0
			case 1:
				w[j] = float64(1 + r.Intn(1000))
			default:
				w[j] = r.Float64() * 4
			}
		}
		for _, tt := range []float64{budget, r.Float64() * float64(n) * 1.5, float64(r.Intn(n + 2))} {
			checkSwapBounds(t, u, buf, nil, tt)
			checkSwapBounds(t, u, buf, w, tt)
		}
	})
}

func checkSwapBounds(t *testing.T, u, buf, w []float64, tt float64) {
	t.Helper()
	n := len(u)
	a1 := make([]int, n) // every client is served by the removed position 0
	r := &swapRound{d1: buf, a1: a1, d2: u, w: w, t: tt}
	r.envelopes(1, [][]float64{make([]float64, n)}, 1)
	env := r.env[0]
	var exact, sum float64
	if w == nil {
		exact = partialCostUnit(slices.Clone(buf), tt)
		for _, x := range buf {
			sum += x
		}
	} else {
		ds := make([]cd, n)
		for j := range ds {
			ds[j] = cd{d: buf[j], w: w[j]}
			sum += w[j] * buf[j]
		}
		exact = partialCostPairs(ds, tt)
	}
	if lb := lowerBound(n, sum, env.drop); !(lb <= exact) {
		t.Fatalf("envelope bound %v > exact %v (weighted=%v t=%v)", lb, exact, w != nil, tt)
	}
	if w == nil {
		if lb := lowerBound(n, sum, topSum(slices.Clone(buf), dropUnits(tt, n))); !(lb <= exact) {
			t.Fatalf("selection bound %v > exact %v (t=%v)", lb, exact, tt)
		}
	}
	if math.IsInf(exact, 0) || math.IsNaN(exact) {
		return
	}
	r.thr = math.Nextafter(exact, math.Inf(1))
	if got := r.swapCost(buf, 0, make([]float64, n)); got != exact {
		t.Fatalf("swapCost = %v below threshold %v, exact %v (weighted=%v t=%v)", got, r.thr, exact, w != nil, tt)
	}
}

// TestTopSum pins the quickselect against a full sort, on tie-heavy and
// sorted inputs that defeat naive pivots.
func TestTopSum(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 500; trial++ {
		n := 1 + r.Intn(300)
		a := make([]float64, n)
		for i := range a {
			switch trial % 3 {
			case 0:
				a[i] = float64(r.Intn(4))
			case 1:
				a[i] = float64(i)
			default:
				a[i] = r.Float64()
			}
		}
		m := r.Intn(n + 3)
		want := slices.Clone(a)
		sort.Float64s(want)
		got := slices.Clone(a)
		topSum(got, m)
		k := max(n-m, 0)
		top := slices.Clone(got[k:])
		sort.Float64s(top)
		if !slices.Equal(top, want[k:]) {
			t.Fatalf("trial %d: top %d of %v = %v, want %v", trial, m, a, top, want[k:])
		}
	}
}

// plantedSite is a site-shaped instance: 1200 2-D points, five unit-std
// Gaussian clusters in [0,100]^2 plus 2% outliers uniform in
// [-1000,1000]^2.
func plantedSite() *metric.Points {
	r := rand.New(rand.NewSource(17))
	centers := make([]metric.Point, 5)
	for i := range centers {
		centers[i] = metric.Point{r.Float64() * 100, r.Float64() * 100}
	}
	pts := make([]metric.Point, 1200)
	for i := range pts {
		if i%50 == 0 {
			pts[i] = metric.Point{(2*r.Float64() - 1) * 1000, (2*r.Float64() - 1) * 1000}
			continue
		}
		c := centers[r.Intn(len(centers))]
		pts[i] = metric.Point{c[0] + r.NormFloat64(), c[1] + r.NormFloat64()}
	}
	return metric.NewPoints(pts)
}

// TestSwapPruneSkipsMostSorts pins the pruning's reach on a site-shaped
// solve (k = 10, t = 100): at least half of all swap evaluations must end
// at a bound instead of the sort. The counts depend only on the seeded
// instance, never on the host or the worker count.
func TestSwapPruneSkipsMostSorts(t *testing.T) {
	sp := plantedSite()
	for _, weighted := range []bool{false, true} {
		var w []float64
		if weighted {
			w = make([]float64, sp.Clients())
			for j := range w {
				w[j] = float64(1 + j%3)
			}
		}
		var st swapStats
		LocalSearch(sp, w, 10, 100, Options{Seed: 1, stats: &st})
		evals, env, sel := st[statEvals].Load(), st[statEnvelope].Load(), st[statSelection].Load()
		skipped := float64(env+sel) / float64(evals)
		t.Logf("weighted=%v: %d swaps, %d skipped by the envelope, %d by selection (%.0f%%)",
			weighted, evals, env, sel, 100*skipped)
		if evals == 0 || skipped < 0.5 {
			t.Fatalf("weighted=%v: only %d of %d swap evaluations skipped the sort", weighted, env+sel, evals)
		}
	}
}
