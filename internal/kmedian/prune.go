package kmedian

import (
	"math"
	"sort"
	"sync/atomic"

	"dpc/internal/par"
)

// Exact lower bounds on a swap's partial cost. descend accepts a swap only
// when its partial cost falls below thr = cur.Cost·(1−relTol); swapCost
// first bounds the cost from below and skips the O(n log n) sort-and-sum
// when the bound already reaches thr. Skipping is decision-identical: a
// skipped swap costs at least thr, so it either loses to a cheaper swap or,
// were it the cheapest, descent stops anyway.
//
// The bound. For connection costs x (weights w, nil = unit) the partial
// cost is, in real arithmetic, S(x) − Σ δ_j x_j, where S(x) = Σ w_j x_j and
// δ_j ∈ [0, w_j] is the weight the greedy walk drops, T = Σ δ_j in total.
// Σ δ_j x_j is at most D(x, T), the fractional-knapsack maximum of dropping
// capacity T from x. D grows with x elementwise and with T, so for any
// envelope u ≥ x and capacity T' ≥ T,
//
//	S(x) − D(u, T') ≤ partial cost.
//
// Tier 1 takes u = u_p, the envelope of removed position p (d2 for the
// clients p served, d1 for the rest): a swap at p only adds a facility
// besides removing p, so its costs are ≤ u_p, and D(u_p, ·) is computed once
// per position per round instead of once per swap. Tier 2 (unit weights)
// takes u = x itself, via an O(n) selection instead of a sort.
//
// Capacity. partialCostUnit drops whole units while budget ≥ 1 (t − i is
// exact below 2^53) and then a fraction 1 − fl(1 − b) ≤ 1 of one more
// client, so T ≤ ⌈t⌉; dropUnits clamps ⌈t⌉ to [0, n], and for t ≥ n both
// walks drop everything. partialCostPairs tracks its budget in floating
// point: with u = 2^-53, each budget -= w_j errs by at most u·t·(1+u)^n and
// the final fractional keep by u·w_max, so T ≤ t + 1.001·n·u·t + u·w_max.
// The bound walk (dropPairs) rounds the other way and uses at least
// T'·(1 − 1.001·n·u) of its capacity; pairsCapacity's inflation of
// 8(n+2)·u·(t + w_max) covers both.
//
// Rounding. Every term is a nonnegative product, so recursive summation of
// at most n of them lands within γ_n = n·u/(1−n·u) relative of the exact
// sum, plus 2^-1075 absolute per product that underflows. With
// E = S̃ + D̃ (the computed sums), the computed S̃ − D̃ exceeds the computed
// partial cost by at most about (2n+1)·u·E + 3n·2^-1075; lowerBound
// subtracts 8(n+4)·u·E + 8(n+4)·2^-1075, which covers it with room for its
// own rounding. The bound is therefore never above the value
// partialCostUnit or partialCostPairs returns, bit for bit, whatever the
// summation order, the products or the fractional keep. FuzzSwapLowerBound
// checks exactly that.

// swapStats counts swap evaluations and the sorts each bound tier skipped,
// indexed by the stat* constants.
type swapStats [3]atomic.Int64

const (
	statEvals     = iota // swaps evaluated
	statEnvelope         // sorts skipped by the envelope bound (tier 1)
	statSelection        // sorts skipped by the selection bound (tier 2)
)

// add bumps counter i; a nil *swapStats (no test collecting) counts nothing.
func (s *swapStats) add(i int) {
	if s != nil {
		s[i].Add(1)
	}
}

// swapRound is the state one descent round shares across its swap
// evaluations: the nearest (d1, at position a1) and second-nearest (d2)
// center costs, the weights and budget, the accept threshold and every
// position's envelope.
type swapRound struct {
	d1, d2, w []float64
	a1        []int
	t, thr    float64
	env       []envelope
	stats     *swapStats // nil unless a test collects counts
}

// lowerBound deflates sum − drop (sum: the computed Σ w_j x_j of n clients;
// drop: a computed upper bound on their dropped outlier mass) by the
// rounding margin derived above. Infinite costs can make it NaN, which
// compares false against every threshold and so never prunes.
func lowerBound(n int, sum, drop float64) float64 {
	c := float64(n + 4)
	return sum - drop - (c*0x1p-50*(sum+drop) + 4*c*math.SmallestNonzeroFloat64)
}

// dropUnits is ⌈t⌉ clamped to [0, n]: the number of unit-weight clients the
// partialCostUnit walk drops wholly or in part.
func dropUnits(t float64, n int) int {
	switch {
	case !(t > 0):
		return 0
	case t >= float64(n):
		return n
	}
	return int(math.Ceil(t))
}

// pairsCapacity is the inflated capacity T' ≥ T of the bound walk over n
// weighted clients with budget t.
func pairsCapacity(t float64, w []float64) float64 {
	var wmax float64
	for _, x := range w {
		wmax = math.Max(wmax, x)
	}
	return t + float64(len(w)+2)*0x1p-50*(t+wmax)
}

// dropPairs returns the mass the greedy walk drops from ds with capacity
// capT: whole weights from the largest cost down, then a fraction of the
// next. ds is reordered.
func dropPairs(ds []cd, capT float64) float64 {
	sort.Slice(ds, func(a, b int) bool { return ds[a].d > ds[b].d })
	budget := capT
	var drop float64
	for _, x := range ds {
		if x.w <= budget {
			budget -= x.w
			drop += x.w * x.d
			continue
		}
		if budget > 0 {
			drop += budget * x.d
		}
		break
	}
	return drop
}

// topSum returns the sum of the m largest values of a (which holds no
// NaN), found by three-way quickselect in expected O(len(a)); a is
// reordered.
func topSum(a []float64, m int) float64 {
	n := len(a)
	if m <= 0 {
		return 0
	}
	k := max(n-m, 0) // a[k:] ends up holding the m largest values
	// Invariant: a[:lo] <= a[lo:hi] <= a[hi:] elementwise. The round cap
	// keeps adversarial inputs O(n log n): whatever is left gets sorted.
	lo, hi := 0, n
	for round := 0; hi-lo > 16 && round < 64; round++ {
		x, y, z := a[lo], a[lo+(hi-lo)/2], a[hi-1]
		pivot := max(min(x, y), min(max(x, y), z)) // median of three
		lt, i, gt := lo, lo, hi
		for i < gt {
			switch v := a[i]; {
			case v < pivot:
				a[lt], a[i] = v, a[lt]
				lt++
				i++
			case v > pivot:
				gt--
				a[i], a[gt] = a[gt], v
			default:
				i++
			}
		}
		switch {
		case k < lt:
			hi = lt
		case k >= gt:
			lo = gt
		default: // k lands among the pivot copies: a[k:] is already the top m
			lo, hi = k, k
		}
	}
	sort.Float64s(a[lo:hi])
	var s float64
	for _, v := range a[k:] {
		s += v
	}
	return s
}

// envelope is removed position p's share of one round's pruning state.
type envelope struct {
	// drop bounds the outlier mass any swap removing p can drop:
	// D(u_p, T') of the envelope u_p[j] = d2[j] where a1[j] == p and d1[j]
	// elsewhere.
	drop float64
	// cut (unit path) is the smallest of u_p's top ⌈t⌉ values. At most ⌈t⌉
	// clients have u_p[j] > cut, so a swap's costs summed over them are at
	// most its own top-⌈t⌉ sum: swapCost's cheap pre-check of tier 2.
	cut float64
}

// envelopes sets r.env to the envelope of every center position p < k. On
// the unit path scratch[p] (len nc) holds u_p and is overwritten.
func (r *swapRound) envelopes(k int, scratch [][]float64, workers int) {
	d1, a1, d2, w, t := r.d1, r.a1, r.d2, r.w, r.t
	nc := len(d1)
	env := make([]envelope, k)
	m := dropUnits(t, nc)
	var capT float64
	if w != nil {
		capT = pairsCapacity(t, w)
	}
	par.For(workers, k, func(p int) {
		if w == nil {
			u := scratch[p]
			for j := range u {
				u[j] = d1[j]
				if a1[j] == p {
					u[j] = d2[j]
				}
			}
			env[p] = envelope{drop: topSum(u, m), cut: math.Inf(1)}
			for _, v := range u[nc-m:] {
				env[p].cut = min(env[p].cut, v)
			}
			return
		}
		ds := make([]cd, nc)
		for j := range ds {
			ds[j] = cd{d: d1[j], w: w[j]}
			if a1[j] == p {
				ds[j].d = d2[j]
			}
		}
		env[p] = envelope{drop: dropPairs(ds, capT)}
	})
	r.env = env
}
