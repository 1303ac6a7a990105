package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"dpc/client"
	"dpc/internal/comm"
	"dpc/internal/core"
	"dpc/internal/dataio"
	"dpc/internal/serve"
	"dpc/internal/transport"
	"dpc/internal/tree"
)

// answer is one completed request: the response, its measured duration
// and, on the traced path, the run's report.
type answer struct {
	req    int // request id within the loop, 1-based
	inst   int
	dur    time.Duration
	resp   *client.Response
	report comm.Report // traced path only
}

// doer answers the i-th instance of the pool.
type doer func(ctx context.Context, reqID, i int) (answer, error)

// untracedDoer answers through the public client.Local backend only.
func untracedDoer(insts []instance) doer {
	local := client.NewLocal()
	return func(ctx context.Context, _, i int) (answer, error) {
		t0 := time.Now()
		resp, err := local.Do(ctx, insts[i].req)
		d := time.Since(t0)
		return answer{inst: i, dur: d, resp: resp}, err
	}
}

// tracedDoer answers by rebuilding client.Local's point path from the
// public layer functions, with a span around each call.
func tracedDoer(insts []instance, rec *recorder) doer {
	return func(ctx context.Context, reqID, i int) (answer, error) {
		return tracedDo(ctx, rec, reqID, insts[i])
	}
}

// tracedDo is client.Local.Do for point objectives, layer by layer:
// JobSpec.CoreConfig, dataio.SplitRoundRobin, core.NewSiteHandler per
// site (wrapped in a timing handler), tree.NewLocal (wrapped in a timing
// transport), core.RunOverCtx and core.Evaluate. It must return the
// centers client.Local returns, byte for byte.
func tracedDo(ctx context.Context, rec *recorder, reqID int, in instance) (answer, error) {
	var a answer
	t0 := time.Now()
	root := rec.open(reqID, 0, "client.request", layerClient)

	s := rec.open(reqID, root.ID, "client.config", layerClient)
	spec := in.spec
	cfg, err := spec.CoreConfig()
	if err != nil {
		return a, err
	}
	tkind, err := transport.ParseKind(in.req.Transport)
	if err != nil {
		return a, err
	}
	cfg.Transport = tkind
	cfg.LocalOpts.Ctx = ctx
	sites := spec.Sites
	if sites <= 0 {
		sites = serve.DefaultJobSites
	}
	if spec.T >= len(in.points) {
		return a, fmt.Errorf("t = %d out of range [0, %d)", spec.T, len(in.points))
	}
	rec.end(s)

	s = rec.open(reqID, root.ID, "client.shard", layerClient)
	shards := dataio.SplitRoundRobin(in.points, sites)
	rec.end(s)

	run := rec.open(reqID, root.ID, "core.run", layerCoord)

	s = rec.open(reqID, root.ID, "core.handlers", layerClient)
	handlers := make([]transport.Handler, len(shards))
	for j := range shards {
		h, err := core.NewSiteHandler(cfg, j, shards[j])
		if err != nil {
			return a, err
		}
		handlers[j] = timedHandler(rec, reqID, run.ID, j, h)
	}
	rec.end(s)

	s = rec.open(reqID, root.ID, "tree.build", layerTransport)
	inner, err := tree.NewLocal(ctx, cfg.Transport, handlers, !cfg.Sequential, cfg.Topology)
	rec.end(s)
	if err != nil {
		return a, err
	}
	tr := &timedTransport{inner: inner, rec: rec, req: reqID, parent: run.ID}

	run.Start = rec.now()
	res, err := core.RunOverCtx(ctx, tr, cfg)
	rec.end(run)

	s = rec.open(reqID, root.ID, "transport.close", layerTransport)
	cerr := tr.Close()
	rec.end(s)
	if err != nil {
		return a, err
	}
	if cerr != nil {
		return a, cerr
	}

	s = rec.open(reqID, root.ID, "client.eval", layerClient)
	cost := core.Evaluate(in.points, res.Centers, res.OutlierBudget, cfg.Objective)
	rec.end(s)
	rec.end(root)
	a.dur = time.Since(t0)
	a.report = res.Report
	a.resp = &client.Response{
		Centers:       res.Centers,
		Cost:          cost,
		CostKind:      "global",
		OutlierBudget: res.OutlierBudget,
		SiteBudgets:   res.SiteBudgets,
		Rounds:        res.Report.Rounds,
		UpBytes:       res.Report.UpBytes,
		DownBytes:     res.Report.DownBytes,
		Backend:       "local",
	}
	return a, nil
}

// loopResult is what a closed loop measured.
type loopResult struct {
	answers   []answer
	attempted int
	failed    int
	errs      []error
	gcPause   time.Duration
}

// closedLoop sends requests for the pool's instances in order, each only
// after the previous one completed and think has passed (one client). It
// runs whole passes over
// the pool, as many as are expected to end within the window (at least
// one): every run answers each instance equally often, so medians do not
// depend on where the window happens to end. Every response is checked outside the timed
// call; a failed check counts the request as failed.
func closedLoop(ctx context.Context, insts []instance, window, think time.Duration, do doer, book *digestBook) loopResult {
	var lr loopResult
	runtime.GC() // start every window from a collected heap
	gc0 := gcPauseTotal()
	start := time.Now()
	k := 0
	for c := 0; ctx.Err() == nil; c++ {
		if el := time.Since(start); c > 0 && el+el/time.Duration(c) > window {
			break
		}
		for i := range insts {
			k++
			lr.attempted++
			a, err := do(ctx, k, i)
			a.req, a.inst = k, i
			if err == nil {
				err = checkResponse(insts[i], a.resp)
			}
			if err == nil {
				err = book.observe(insts[i].label(), digest(a.resp.Centers))
			}
			if err != nil {
				lr.failed++
				lr.errs = append(lr.errs, err)
				continue
			}
			lr.answers = append(lr.answers, a)
			if think > 0 {
				t := time.NewTimer(think)
				select {
				case <-t.C:
				case <-ctx.Done():
					t.Stop()
				}
			}
		}
	}
	lr.gcPause = gcPauseTotal() - gc0
	return lr
}
