package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"

	"dpc/client"
	"dpc/internal/core"
	"dpc/internal/metric"
	"dpc/internal/uncertain"
)

// digest is the SHA-256 of the centers' float64 bit patterns, in order:
// two runs agree on it exactly when their centers are byte-identical.
func digest(centers []metric.Point) string {
	h := sha256.New()
	var b [8]byte
	for _, c := range centers {
		binary.LittleEndian.PutUint64(b[:], uint64(len(c)))
		h.Write(b[:])
		for _, x := range c {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
			h.Write(b[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// checkResponse verifies one response against the paper's guarantees and
// against an independent recomputation of its cost:
//   - at most K centers;
//   - Σ SiteBudgets ≤ 3T for the 2-round median/means protocol;
//   - Cost equal to core.Evaluate (points) or uncertain.EvalMedian (nodes)
//     on the instance's full data.
func checkResponse(in instance, resp *client.Response) error {
	if resp == nil {
		return fmt.Errorf("%s: no response", in.label())
	}
	if len(resp.Centers) == 0 || len(resp.Centers) > in.spec.K {
		return fmt.Errorf("%s: %d centers, want 1..%d", in.label(), len(resp.Centers), in.spec.K)
	}
	twoRound := in.spec.Variant == "" || in.spec.Variant == "2round"
	if twoRound && (in.spec.Objective == client.Median || in.spec.Objective == client.Means) {
		sum := 0
		for _, b := range resp.SiteBudgets {
			sum += b
		}
		if len(resp.SiteBudgets) == 0 || sum > 3*in.spec.T {
			return fmt.Errorf("%s: site budgets sum to %d over %d sites, want <= 3T = %d",
				in.label(), sum, len(resp.SiteBudgets), 3*in.spec.T)
		}
	}
	var want float64
	switch in.spec.Objective {
	case client.Median:
		want = core.Evaluate(in.points, resp.Centers, resp.OutlierBudget, core.Median)
	case client.Means:
		want = core.Evaluate(in.points, resp.Centers, resp.OutlierBudget, core.Means)
	case client.Center:
		want = core.Evaluate(in.points, resp.Centers, resp.OutlierBudget, core.Center)
	case client.UncertainMedian:
		want = uncertain.EvalMedian(in.ground, in.nodes, resp.Centers, resp.OutlierBudget)
	default:
		return fmt.Errorf("%s: no cost check for objective %q", in.label(), in.spec.Objective)
	}
	if math.Float64bits(want) != math.Float64bits(resp.Cost) {
		return fmt.Errorf("%s: reported cost %v, recomputed %v", in.label(), resp.Cost, want)
	}
	return nil
}

// digestBook holds the first digest seen per instance label and counts
// every later disagreement: a request whose centers differ from an earlier
// answer to the same question is a failed operation.
type digestBook struct {
	first map[string]string
}

func newDigestBook() *digestBook { return &digestBook{first: map[string]string{}} }

// observe records d for label and reports whether it matches the first
// digest seen for label.
func (b *digestBook) observe(label, d string) error {
	if prev, ok := b.first[label]; ok && prev != d {
		return fmt.Errorf("%s: centers digest %s, earlier %s", label, d, prev)
	}
	if _, ok := b.first[label]; !ok {
		b.first[label] = d
	}
	return nil
}

// labels returns the recorded labels in sorted order.
func (b *digestBook) labels() []string {
	out := make([]string, 0, len(b.first))
	for l := range b.first {
		out = append(out, l)
	}
	sort.Strings(out)
	return out
}

// crossRunCheck compares this run's digests with those an earlier run of
// the same workload, seed and source tree stored under dir, then stores
// any digests not yet recorded. It returns one error per disagreement.
func crossRunCheck(dir, key string, book *digestBook) []error {
	path := filepath.Join(dir, key+".json")
	stored := map[string]string{}
	if raw, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(raw, &stored); err != nil {
			return []error{fmt.Errorf("digest store %s: %v", path, err)}
		}
	}
	var errs []error
	changed := false
	for _, l := range book.labels() {
		d := book.first[l]
		if prev, ok := stored[l]; ok {
			if prev != d {
				errs = append(errs, fmt.Errorf("%s: centers digest %s, an earlier run of this seed gave %s", l, d, prev))
			}
			continue
		}
		stored[l] = d
		changed = true
	}
	if changed {
		raw, _ := json.MarshalIndent(stored, "", "  ")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return append(errs, err)
		}
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			return append(errs, err)
		}
	}
	return errs
}
