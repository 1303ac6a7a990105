package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"dpc/client"
)

// benchmarkFile is the subset of BENCHMARK.json the tests check against.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func tinyOptions(t *testing.T, workload string, trace bool) options {
	return options{workload: workload, seed: 3, seconds: 0.2, trace: trace, root: t.TempDir(), setups: 2, size: tiny}
}

// TestWorkloadsEmitBenchmarkMetrics runs every workload at tiny size,
// untraced and traced, and checks that each emits exactly the metrics
// BENCHMARK.json names, with their units, and that nothing failed.
func TestWorkloadsEmitBenchmarkMetrics(t *testing.T) {
	b := readBenchmarkFile(t)
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloadNames) {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark runs %v", names, workloadNames)
	}
	for _, w := range workloadNames {
		for _, traced := range []bool{false, true} {
			rep, err := runWorkload(context.Background(), tinyOptions(t, w, traced))
			if err != nil {
				t.Fatalf("%s traced=%t: %v", w, traced, err)
			}
			res := rep.Result
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%t: correct=%t attempted=%d failed=%d: %v", w, traced, res.Correct, res.Attempted, res.Failed, rep.Errors)
			}
			want := map[string]string{}
			if traced {
				for _, m := range b.PerLayer {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range b.EndToEnd {
					want[m.Name] = m.Unit
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%t: %d metrics, BENCHMARK.json names %d", w, traced, len(res.Metrics), len(want))
			}
			for name, unit := range want {
				got, ok := res.Metrics[name]
				if !ok {
					t.Errorf("%s traced=%t: metric %s missing", w, traced, name)
				} else if got.Unit != unit {
					t.Errorf("%s traced=%t: metric %s in %q, BENCHMARK.json says %q", w, traced, name, got.Unit, unit)
				}
				if !traced && !(got.Value > 0) {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w, name, got.Value)
				}
			}
		}
	}
}

// TestTracedCentersMatchUntraced answers every tiny Local instance through
// client.Local and through the traced layer-by-layer path and compares the
// centers digests.
func TestTracedCentersMatchUntraced(t *testing.T) {
	for _, w := range []string{wlBigShards, wlSmallShards, wlCenterTree} {
		sh, _ := shapeOf(w, tiny)
		insts, err := makeLocal(sh, 5)
		if err != nil {
			t.Fatal(err)
		}
		rec := newRecorder()
		untraced, traced := untracedDoer(insts), tracedDoer(insts, rec)
		for i := range insts {
			u, err := untraced(context.Background(), i+1, i)
			if err != nil {
				t.Fatalf("%s #%d untraced: %v", w, i, err)
			}
			tr, err := traced(context.Background(), i+1, i)
			if err != nil {
				t.Fatalf("%s #%d traced: %v", w, i, err)
			}
			if du, dt := digest(u.resp.Centers), digest(tr.resp.Centers); du != dt {
				t.Errorf("%s #%d: untraced centers %s, traced %s", w, i, du, dt)
			}
			if u.resp.Cost != tr.resp.Cost || u.resp.UpBytes != tr.resp.UpBytes || u.resp.DownBytes != tr.resp.DownBytes {
				t.Errorf("%s #%d: untraced cost/bytes %v/%d/%d, traced %v/%d/%d", w, i,
					u.resp.Cost, u.resp.UpBytes, u.resp.DownBytes, tr.resp.Cost, tr.resp.UpBytes, tr.resp.DownBytes)
			}
			b, err := breakdown(rec.byRequest()[i+1])
			if err != nil {
				t.Fatal(err)
			}
			if err := b.checkSelf(); err != nil {
				t.Errorf("%s #%d: %v", w, i, err)
			}
			if b.siteWork <= 0 || b.gather <= 0 {
				t.Errorf("%s #%d: no site or gather time recorded: %+v", w, i, b)
			}
		}
	}
}

// TestCorruptedResponseCountsAsFailed feeds the checker responses with a
// perturbed center, an extra center and an inflated site budget, and runs
// a closed loop whose doer corrupts every answer: each must count as a
// failed operation.
func TestCorruptedResponseCountsAsFailed(t *testing.T) {
	sh, _ := shapeOf(wlBigShards, tiny)
	insts, err := makeLocal(sh, 7)
	if err != nil {
		t.Fatal(err)
	}
	good, err := untracedDoer(insts)(context.Background(), 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkResponse(insts[0], good.resp); err != nil {
		t.Fatalf("clean response rejected: %v", err)
	}
	clone := func() *client.Response {
		r := *good.resp
		r.Centers = nil
		for _, c := range good.resp.Centers {
			r.Centers = append(r.Centers, append(client.Point(nil), c...))
		}
		r.SiteBudgets = append([]int(nil), good.resp.SiteBudgets...)
		return &r
	}
	perturbed := clone()
	perturbed.Centers[0][0] += 1e-3
	extra := clone()
	extra.Centers = append(extra.Centers, extra.Centers[0])
	budget := clone()
	budget.SiteBudgets[0] += 3*insts[0].spec.T + 1
	for name, r := range map[string]*client.Response{"perturbed center": perturbed, "k+1 centers": extra, "site budgets": budget} {
		if err := checkResponse(insts[0], r); err == nil {
			t.Errorf("%s: checker accepted a corrupted response", name)
		}
	}
	book := newDigestBook()
	if err := book.observe("x", digest(good.resp.Centers)); err != nil {
		t.Fatal(err)
	}
	if err := book.observe("x", digest(perturbed.Centers)); err == nil {
		t.Error("digest book accepted different centers for the same request")
	}

	corrupt := func(ctx context.Context, req, i int) (answer, error) {
		a, err := untracedDoer(insts)(ctx, req, i)
		if err == nil {
			a.resp.Centers[0][1] -= 1e-3
		}
		return a, err
	}
	lr := closedLoop(context.Background(), insts, 0, 0, corrupt, newDigestBook())
	if lr.attempted == 0 || lr.failed != lr.attempted || len(lr.answers) != 0 {
		t.Errorf("corrupted loop: attempted %d failed %d answers %d", lr.attempted, lr.failed, len(lr.answers))
	}
}

// TestSelfTimes checks the layer partition on hand-built spans: nested
// spans add up to the wall time, and a span outside its request does not.
func TestSelfTimes(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 1, Req: 1, Name: "client.request", Layer: layerClient, Start: 0, End: 100 * ms, Round: -1, Site: -1},
		{ID: 2, Parent: 1, Req: 1, Name: "core.run", Layer: layerCoord, Start: 10 * ms, End: 90 * ms, Round: -1, Site: -1},
		{ID: 3, Parent: 2, Req: 1, Name: "transport.gather", Layer: layerTransport, Start: 20 * ms, End: 80 * ms, Round: 0, Site: -1},
		{ID: 4, Parent: 2, Req: 1, Name: "site.handle", Layer: layerSite, Start: 25 * ms, End: 60 * ms, Round: 0, Site: 0},
		{ID: 5, Parent: 2, Req: 1, Name: "site.handle", Layer: layerSite, Start: 30 * ms, End: 70 * ms, Round: 0, Site: 1},
	}
	b, err := breakdown(spans)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]time.Duration{layerClient: 20 * ms, layerCoord: 20 * ms, layerTransport: 15 * ms, layerSite: 45 * ms}
	for l, d := range want {
		if b.self[l] != d {
			t.Errorf("self[%s] = %v, want %v", l, b.self[l], d)
		}
	}
	if err := b.checkSelf(); err != nil {
		t.Error(err)
	}
	if b.siteCritical != 40*ms || b.siteWork != 75*ms || b.transportOver != 15*ms {
		t.Errorf("critical %v work %v overhead %v, want 40ms 75ms 15ms", b.siteCritical, b.siteWork, b.transportOver)
	}
	escaped := append(spans, span{ID: 6, Parent: 2, Req: 1, Name: "site.handle", Layer: layerSite, Start: 95 * ms, End: 130 * ms, Round: 1, Site: 0})
	b, err = breakdown(escaped)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.checkSelf(); err == nil {
		t.Error("a span outside its request passed the self-time check")
	}
}

func TestTail(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if p, _ := tail(xs); p != 90 {
		t.Errorf("tail of 100 samples at p%g, want p90", p)
	}
	if p, v := tail(xs[:12]); p != 50 || v != median(xs[:12]) {
		t.Errorf("tail of 12 samples = p%g %v, want the median", p, v)
	}
	if p, _ := tail(make([]float64, 1000)); p != 99 {
		t.Errorf("tail of 1000 samples at p%g, want p99", p)
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", wlBigShards, "--trace", "2"},
		{"--workload", wlBigShards, "--seconds", "0"},
	} {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code == 0 || out.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, out.String())
		}
	}
}

// TestResultPrintedLast checks the output contract on a tiny run: the last
// stdout line is the result object with exactly its four keys, after the
// host fingerprint.
func TestResultPrintedLast(t *testing.T) {
	o := tinyOptions(t, wlCenterTree, false)
	rep, err := runWorkload(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	var out, errb bytes.Buffer
	if err := rep.emit(o, &out, &errb); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	var keys []string
	for k := range res {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	if !slices.Equal(keys, []string{"attempted", "correct", "failed", "metrics"}) {
		t.Errorf("result keys %v", keys)
	}
	if !strings.Contains(out.String(), `"num_cpu"`) {
		t.Error("output carries no host fingerprint")
	}
}
