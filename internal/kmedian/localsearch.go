package kmedian

import (
	"context"
	"math"
	"math/rand"
	"sort"

	"dpc/internal/engine"
	"dpc/internal/metric"
	"dpc/internal/par"
)

// Options tunes the local-search engine.
type Options struct {
	// Seed drives all randomness (D^2 seeding, facility sampling).
	Seed int64
	// Ctx, when non-nil, preempts the solver: local-search descent stops at
	// the next swap round and JV's Lagrangian search at the next probe once
	// the context is cancelled, returning the best solution found so far.
	// Callers that propagate the cancellation (the protocol round loops do)
	// discard that partial answer with ctx.Err(); the point of the early
	// return is that a cancelled job stops burning CPU mid-solve instead of
	// finishing a doomed computation. A nil or never-cancelled Ctx changes
	// nothing — the checks never influence a live solve's decisions. The
	// field never crosses the wire: job frames carry configurations, and a
	// context is process-local by nature.
	Ctx context.Context `json:"-"`
	// MaxIters caps the number of swap rounds (default 40).
	MaxIters int
	// SampleFacilities bounds the number of candidate facilities examined
	// per round (default 128; 0 means "use the default"; negative means
	// "examine all facilities").
	SampleFacilities int
	// Restarts runs the search from multiple seeds and keeps the best
	// (default 1).
	Restarts int
	// Warm, when non-empty, seeds the first restart with these facility
	// indices instead of D^2 sampling — used by Algorithm 1's grid of
	// budget solves, where the solution for the previous budget is an
	// excellent starting point for the next.
	Warm []int
	// Options are the consolidated engine knobs (see engine.Options):
	// Workers bounds the goroutines of the parallel engine paths (0 = one
	// per CPU, bit-identical at every width) and Reference switches every
	// solver to the pre-engine sequential implementation — the regression
	// baseline of cmd/dpc-bench and the parity tests. The Index/Pivots
	// knobs are honored by the layers that construct the cost oracle; the
	// solvers prune through whatever metric.CostPruner the oracle
	// implements and never build indexes themselves.
	engine.Options

	// stats, when non-nil, counts swap evaluations and the sorts the
	// pruning bounds skipped. Only the package's tests set it.
	stats *swapStats
}

// canceled reports whether the solve's context has been cancelled — the
// preemption probe of every solver loop. Nil contexts never cancel.
func (o Options) canceled() bool {
	return o.Ctx != nil && o.Ctx.Err() != nil
}

func (o Options) withDefaults() Options {
	if o.MaxIters == 0 {
		o.MaxIters = 40
	}
	if o.SampleFacilities == 0 {
		o.SampleFacilities = 128
	}
	if o.Restarts == 0 {
		o.Restarts = 1
	}
	return o
}

// LocalSearch solves the weighted (k,t)-median problem on c with a
// swap-based local search: D^2-weighted greedy seeding (k-means++ style)
// followed by single-swap descent. Outliers are handled by evaluating every
// accepted configuration with the true partial cost (largest t units of
// connection weight free), and swap gains are estimated on the current
// inlier set — the standard partial-clustering local-search scheme.
//
// The engine is objective-agnostic: pass metric.Squared costs for
// (k,t)-means. Each round is O(nf * nc) for the candidate ranking plus the
// topE*k swap evaluations. Each of those is O(nc) when a lower bound on its
// partial cost already reaches the accept threshold, which is true for most
// of them. Only the rest pay the O(nc log nc) exact sort-and-sum. Skipping
// is decision-identical: a skipped swap either loses to a cheaper one or,
// were it the cheapest, descent would stop anyway (see swapCost).
func LocalSearch(c metric.Costs, w []float64, k int, t float64, opt Options) Solution {
	opt = opt.withDefaults()
	nc, nf := c.Clients(), c.Facilities()
	if nc == 0 || nf == 0 || k <= 0 {
		return Eval(c, w, nil, t)
	}
	if TotalWeight(c, w) <= t {
		return Eval(c, w, nil, t)
	}
	if opt.canceled() {
		// Preempted before the first seeding: don't start O(k * nc * nf)
		// work for an answer the caller will discard with ctx.Err().
		return Eval(c, w, nil, t)
	}
	if k > nf {
		k = nf
	}
	rng := rand.New(rand.NewSource(opt.Seed))
	best := Solution{Cost: math.Inf(1)}
	for restart := 0; restart < opt.Restarts; restart++ {
		if restart > 0 && opt.canceled() {
			break // keep the best finished restart; the caller sees ctx.Err()
		}
		var centers []int
		if restart == 0 && len(opt.Warm) > 0 {
			centers = warmCenters(opt.Warm, k, nf)
		} else {
			centers = seedDSquared(c, w, k, rng)
		}
		sol := descend(c, w, centers, t, opt, rng)
		if sol.Cost < best.Cost {
			best = sol
		}
	}
	return best
}

// warmCenters sanitizes a warm-start center list: in-range, deduplicated,
// truncated or padded to k facilities.
func warmCenters(warm []int, k, nf int) []int {
	seen := make(map[int]bool, k)
	out := make([]int, 0, k)
	for _, f := range warm {
		if f >= 0 && f < nf && !seen[f] && len(out) < k {
			seen[f] = true
			out = append(out, f)
		}
	}
	for f := 0; f < nf && len(out) < k; f++ {
		if !seen[f] {
			seen[f] = true
			out = append(out, f)
		}
	}
	return out
}

// seedDSquared picks k facilities by D^2 sampling: the first uniformly at
// random, each next with probability proportional to the weighted distance
// of clients to the current set (sampling a client, then using its cheapest
// facility as the new center).
func seedDSquared(c metric.Costs, w []float64, k int, rng *rand.Rand) []int {
	nc, nf := c.Clients(), c.Facilities()
	cp := metric.CostPrunerOf(c)
	centers := make([]int, 0, k)
	centers = append(centers, rng.Intn(nf))
	d := make([]float64, nc)
	for j := range d {
		d[j] = c.Cost(j, centers[0])
	}
	inSet := map[int]bool{centers[0]: true}
	for len(centers) < k {
		var total float64
		for j := 0; j < nc; j++ {
			total += weight(w, j) * d[j]
		}
		var pick int
		if total <= 0 {
			pick = rng.Intn(nc)
		} else {
			x := rng.Float64() * total
			for j := 0; j < nc; j++ {
				x -= weight(w, j) * d[j]
				if x <= 0 {
					pick = j
					break
				}
			}
		}
		// Use the picked client's cheapest *unused* facility as the center.
		bestF, bd := -1, math.Inf(1)
		for f := 0; f < nf; f++ {
			if inSet[f] {
				continue
			}
			// A facility provably no cheaper than the current best cannot
			// win the strict comparison; skipping it is result-identical.
			if cp != nil && cp.PruneCost(pick, f, bd) {
				continue
			}
			if x := c.Cost(pick, f); x < bd {
				bd, bestF = x, f
			}
		}
		if bestF < 0 { // all facilities used
			break
		}
		centers = append(centers, bestF)
		inSet[bestF] = true
		for j := 0; j < nc; j++ {
			if cp != nil && cp.PruneCost(j, bestF, d[j]) {
				continue
			}
			if x := c.Cost(j, bestF); x < d[j] {
				d[j] = x
			}
		}
	}
	return centers
}

// relTol is the relative improvement below which descent stops.
const relTol = 1e-6

// topE is the number of candidate facilities exactly evaluated per round.
const topE = 12

// descend runs single-swap descent from the given centers. Each round ranks
// candidate facilities by their "add potential" on the current inlier set
// (the saving from adding the facility without removing anything), then
// exactly re-evaluates the swaps of the top facilities against every
// current center — crucially with the outlier set re-selected, so the
// budget can migrate to newly-far points (e.g. off a point that used to be
// a center).
//
// This is the fast engine: candidate distance columns are computed once per
// round (instead of once per swap), the d1/d2 nearest/second-nearest
// bookkeeping turns each of the k swaps per candidate into a merge instead
// of a fresh k-way scan, swaps whose exact lower bound reaches the accept
// threshold skip the sort-and-sum (swapCost), and the independent work runs
// on opt.Workers goroutines. Every decision (swap chosen, stop condition, RNG stream) is
// bit-identical to descendReference — TestEngineMatchesReference and the
// cmd/dpc-bench harness enforce it.
func descend(c metric.Costs, w []float64, centers []int, t float64, opt Options, rng *rand.Rand) Solution {
	if opt.Reference {
		return descendReference(c, w, centers, t, opt, rng)
	}
	nc, nf := c.Clients(), c.Facilities()
	workers := opt.Workers
	cp := metric.CostPrunerOf(c)
	ccp := metric.CostColumnPrunerOf(c)
	// One skip mask per concurrent potential-scan worker: the column pruner
	// bounds a whole facility in one call, so the scan pays a few loads per
	// (client, facility) pair instead of a per-pair pruner call chain.
	var colSkip chan []bool
	if ccp != nil {
		wk := par.Resolve(workers)
		colSkip = make(chan []bool, wk)
		for i := 0; i < wk; i++ {
			colSkip <- make([]bool, nc)
		}
	}
	cur := EvalP(c, w, centers, t, workers)
	k := len(cur.Centers)
	// One reusable distance column per top candidate and one newd buffer
	// per (candidate, position) evaluation slot.
	cols := make([][]float64, topE)
	for i := range cols {
		cols[i] = make([]float64, nc)
	}
	bufs := make([][]float64, topE*k)
	for i := range bufs {
		bufs[i] = make([]float64, nc)
	}
	d1 := make([]float64, nc)  // distance to nearest current center
	a1 := make([]int, nc)      // position of that center in cur.Centers
	d2 := make([]float64, nc)  // distance to second-nearest current center
	inW := make([]float64, nc) // inlier weight under the current solution
	for iter := 0; iter < opt.MaxIters; iter++ {
		if opt.canceled() {
			break // preempted mid-descent: stop burning rounds
		}
		pos := make(map[int]int, k) // facility -> position in centers
		for p, f := range cur.Centers {
			pos[f] = p
		}
		par.For(workers, nc, func(j int) {
			b1, b2 := math.Inf(1), math.Inf(1)
			bp := -1
			for p, f := range cur.Centers {
				// b1 <= b2, so a center proven no nearer than the current
				// second-nearest can update neither slot: skip its exact
				// distance. The surviving comparisons fire exactly as the
				// full scan's would — d1/a1/d2 come out bit-identical.
				if cp != nil && cp.PruneCost(j, f, b2) {
					continue
				}
				x := c.Cost(j, f)
				if x < b1 {
					b1, b2, bp = x, b1, p
				} else if x < b2 {
					b2 = x
				}
			}
			d1[j], a1[j], d2[j] = b1, bp, b2
			inW[j] = weight(w, j) - cur.DroppedWeight[j]
		})
		cands := facilityCandidates(nf, pos, opt, rng)
		pots := make([]float64, len(cands))
		par.For(workers, len(cands), func(ci int) {
			f := cands[ci]
			// A client whose cost to f provably stays >= d1[j] would
			// contribute max(0, d1[j]-cost) = 0: skip the evaluation
			// without touching the sum. The bulk column form proves the
			// whole facility in one pass; the per-pair pruner is the
			// fallback when no bulk pruner is wired (or it declines).
			var skip []bool
			if ccp != nil {
				b := <-colSkip
				if ccp.PruneCostColumn(f, d1, b) {
					skip = b
				} else {
					colSkip <- b
				}
			}
			var pot float64
			for j := 0; j < nc; j++ {
				if inW[j] <= 0 {
					continue
				}
				if skip != nil {
					if skip[j] {
						continue
					}
				} else if cp != nil && cp.PruneCost(j, f, d1[j]) {
					continue
				}
				if s := d1[j] - c.Cost(j, f); s > 0 {
					pot += inW[j] * s
				}
			}
			if skip != nil {
				colSkip <- skip
			}
			pots[ci] = pot
		})
		type scored struct {
			f   int
			pot float64
		}
		top := make([]scored, 0, len(cands))
		for ci, f := range cands {
			if pots[ci] > 0 {
				top = append(top, scored{f: f, pot: pots[ci]})
			}
		}
		sort.Slice(top, func(a, b int) bool { return top[a].pot > top[b].pot })
		if len(top) > topE {
			top = top[:topE]
		}
		// Distance columns of the surviving candidates, once per round.
		par.For(workers, nc, func(j int) {
			for si := range top {
				cols[si][j] = c.Cost(j, top[si].f)
			}
		})
		// Evaluation of every (candidate, removed position) swap into
		// per-slot cost cells: exact below the accept threshold, +Inf where
		// a lower bound proves the swap cannot be accepted (prune.go). The
		// fold below replays the sequential first-strict-win scan, so ties
		// resolve exactly as in the reference engine. bufs[:k] double as
		// the envelope scratch before the swap fills overwrite them.
		thr := cur.Cost * (1 - relTol)
		round := &swapRound{d1: d1, a1: a1, d2: d2, w: w, t: t, thr: thr, stats: opt.stats}
		if len(top) > 0 {
			round.envelopes(k, bufs, workers)
		}
		costs := make([]float64, len(top)*k)
		par.For(workers, len(top)*k, func(slot int) {
			si, p := slot/k, slot%k
			costs[slot] = round.swapCost(cols[si], p, bufs[slot])
		})
		bestCost := cur.Cost
		bestSwap := [2]int{-1, -1} // (center position, facility)
		for si := range top {
			for p := 0; p < k; p++ {
				if cost := costs[si*k+p]; cost < bestCost {
					bestCost = cost
					bestSwap = [2]int{p, top[si].f}
				}
			}
		}
		if bestSwap[0] < 0 || bestCost >= thr {
			break
		}
		trial := append([]int(nil), cur.Centers...)
		trial[bestSwap[0]] = bestSwap[1]
		cur = EvalP(c, w, trial, t, workers)
	}
	return cur
}

// swapCost evaluates the partial cost of swapping the center at position p
// for the facility whose distance column is col: client j's new connection
// cost is min(col[j], d2[j]) when its nearest center is the one removed,
// min(col[j], d1[j]) otherwise. buf receives the per-client distances (len
// nc, overwritten). Below r.thr the result is exact and bit-identical to
// EvalSum on the swapped center set. A swap whose lower bound reaches
// r.thr returns +Inf without the sort-and-sum: tier 1 subtracts
// r.env[p].drop, the bound on position p's outlier mass, from the sum the
// fill loop accumulates; tier 2 (unit weights) subtracts buf's own top ⌈t⌉
// values, found by selection. prune.go proves both bounds never exceed the
// exact cost, so a +Inf swap provably costs at least r.thr.
func (r *swapRound) swapCost(col []float64, p int, buf []float64) float64 {
	d1, a1, d2, w, t, thr, env := r.d1, r.a1, r.d2, r.w, r.t, r.thr, r.env[p]
	nc := len(col)
	var sum float64
	for j := 0; j < nc; j++ {
		dj := d1[j]
		if a1[j] == p {
			dj = d2[j]
		}
		if col[j] < dj {
			dj = col[j]
		}
		buf[j] = dj
		if w != nil {
			dj *= w[j]
		}
		sum += dj
	}
	r.stats.add(statEvals)
	if lowerBound(nc, sum, env.drop) >= thr {
		r.stats.add(statEnvelope)
		return math.Inf(1)
	}
	if w == nil {
		// The selection bound is at most sum − low, low being buf summed
		// over the at most ⌈t⌉ clients above the envelope's cut, so the
		// O(n) selection runs only when that can still reach thr.
		var low float64
		for j, x := range buf {
			u := d1[j]
			if a1[j] == p {
				u = d2[j]
			}
			if u > env.cut {
				low += x
			}
		}
		// topSum reorders buf; the sort below makes the order irrelevant.
		if sum-low >= thr && lowerBound(nc, sum, topSum(buf, dropUnits(t, nc))) >= thr {
			r.stats.add(statSelection)
			return math.Inf(1)
		}
		return partialCostUnit(buf, t)
	}
	ds := make([]cd, nc)
	for j := 0; j < nc; j++ {
		ds[j] = cd{d: buf[j], w: w[j]}
	}
	return partialCostPairs(ds, t)
}

// descendReference is the seed implementation of descend, kept verbatim as
// the regression baseline: Options.Reference routes here, and the harness
// asserts the fast engine matches it bit-for-bit.
func descendReference(c metric.Costs, w []float64, centers []int, t float64, opt Options, rng *rand.Rand) Solution {
	nc, nf := c.Clients(), c.Facilities()
	cur := Eval(c, w, centers, t)
	for iter := 0; iter < opt.MaxIters; iter++ {
		if opt.canceled() {
			break // same preemption point as the fast engine's descent
		}
		k := len(cur.Centers)
		pos := make(map[int]int, k) // facility -> position in centers
		for p, f := range cur.Centers {
			pos[f] = p
		}
		d1 := make([]float64, nc)
		inW := make([]float64, nc)
		for j := 0; j < nc; j++ {
			d1[j] = math.Inf(1)
			for _, f := range cur.Centers {
				if x := c.Cost(j, f); x < d1[j] {
					d1[j] = x
				}
			}
			inW[j] = weight(w, j) - cur.DroppedWeight[j]
		}
		cands := facilityCandidates(nf, pos, opt, rng)
		type scored struct {
			f   int
			pot float64
		}
		top := make([]scored, 0, len(cands))
		for _, f := range cands {
			var pot float64
			for j := 0; j < nc; j++ {
				if inW[j] <= 0 {
					continue
				}
				if s := d1[j] - c.Cost(j, f); s > 0 {
					pot += inW[j] * s
				}
			}
			if pot > 0 {
				top = append(top, scored{f: f, pot: pot})
			}
		}
		sort.Slice(top, func(a, b int) bool { return top[a].pot > top[b].pot })
		if len(top) > topE {
			top = top[:topE]
		}
		bestCost := cur.Cost
		bestSwap := [2]int{-1, -1} // (center position, facility)
		trial := append([]int(nil), cur.Centers...)
		for _, s := range top {
			for p := 0; p < k; p++ {
				old := trial[p]
				trial[p] = s.f
				if cost := EvalSum(c, w, trial, t); cost < bestCost {
					bestCost = cost
					bestSwap = [2]int{p, s.f}
				}
				trial[p] = old
			}
		}
		if bestSwap[0] < 0 || bestCost >= cur.Cost*(1-relTol) {
			break
		}
		trial[bestSwap[0]] = bestSwap[1]
		cur = Eval(c, w, trial, t)
	}
	return cur
}

// facilityCandidates returns the facilities to try swapping in, excluding
// current centers; sampled without replacement when the facility set is
// large.
func facilityCandidates(nf int, pos map[int]int, opt Options, rng *rand.Rand) []int {
	limit := opt.SampleFacilities
	if limit < 0 || nf <= limit {
		out := make([]int, 0, nf)
		for f := 0; f < nf; f++ {
			if _, used := pos[f]; !used {
				out = append(out, f)
			}
		}
		return out
	}
	seen := make(map[int]bool, limit)
	out := make([]int, 0, limit)
	for len(out) < limit && len(seen) < nf {
		f := rng.Intn(nf)
		if seen[f] {
			continue
		}
		seen[f] = true
		if _, used := pos[f]; !used {
			out = append(out, f)
		}
	}
	sort.Ints(out)
	return out
}
