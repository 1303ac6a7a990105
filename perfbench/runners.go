package main

import (
	"context"
	"fmt"
	"os"
	"time"

	"dpc/client"
	"dpc/internal/serve"
)

// runLocal runs a closed-loop client.Local workload. Untraced, it reports
// the end-to-end metrics; traced, it runs half the window untraced and
// half through the traced path, checks that both give the same centers,
// and reports the per-layer metrics.
func runLocal(ctx context.Context, o options, rep *report, book *digestBook, t *tally) (map[string]float64, error) {
	sh, ok := shapeOf(o.workload, o.size)
	if !ok {
		return nil, fmt.Errorf("no local workload %q", o.workload)
	}
	insts, setup, err := timedSetups(o.setups, func() ([]instance, error) { return makeLocal(sh, o.seed) }, nil)
	if err != nil {
		return nil, err
	}
	vals := map[string]float64{}
	if !o.trace {
		lr := closedLoop(ctx, insts, o.window(), sh.think, untracedDoer(insts), book)
		t.add(lr.attempted, lr.failed, lr.errs)
		if len(lr.answers) == 0 {
			return nil, fmt.Errorf("no request completed: %v", lr.errs)
		}
		durs := answerSeconds(lr.answers)
		vals["setup_s"] = setup
		vals["request_p50_s"] = median(durs)
		_, vals["request_tail_s"] = tail(durs)
		// A single client's throughput: requests per second of time spent
		// in requests (think time excluded).
		vals["requests_per_s"] = float64(len(durs)) / sum(durs)
		var wire, costs []float64
		for _, a := range firstPerInstance(lr.answers, len(insts)) {
			wire = append(wire, float64(a.resp.UpBytes+a.resp.DownBytes))
			costs = append(costs, insts[a.inst].costRatio(a.resp.Cost))
		}
		vals["wire_bytes"] = mean(wire)
		vals["cost"] = geomean(costs)
		rep.Samples = map[string][]float64{"request_s": durs}
		rep.Notes = append(rep.Notes, tailNote("request_tail_s", durs))
		return vals, nil
	}

	// Both phases answer the first half of the pool, so the traced run
	// takes about as long as an untraced one and every traced answer has
	// an untraced twin to match.
	insts = insts[:max(1, len(insts)/2)]
	half := o.window() / 2
	u := closedLoop(ctx, insts, half, sh.think, untracedDoer(insts), book)
	t.add(u.attempted, u.failed, u.errs)
	rec := newRecorder()
	rep.rec = rec
	tr := closedLoop(ctx, insts, half, sh.think, tracedDoer(insts, rec), book)
	t.add(tr.attempted, tr.failed, tr.errs)
	if len(u.answers) == 0 || len(tr.answers) == 0 {
		return nil, fmt.Errorf("no request completed: %v %v", u.errs, tr.errs)
	}
	spans := rec.byRequest()
	var shard, eval, coord, rounds, gather, send, over []float64
	var kmCrit, kmWork, kmSkew, kcCrit, kcWork []float64
	shares := map[string][]float64{}
	var selfErrs []error
	for _, a := range tr.answers {
		b, err := breakdown(spans[a.req])
		if err == nil {
			err = b.checkSelf()
		}
		if err != nil {
			selfErrs = append(selfErrs, fmt.Errorf("request %d: %w", a.req, err))
			continue
		}
		shard = append(shard, b.shard.Seconds())
		eval = append(eval, b.eval.Seconds())
		coord = append(coord, a.report.CoordWork.Seconds())
		rounds = append(rounds, float64(a.report.Rounds))
		gather = append(gather, b.gather.Seconds())
		send = append(send, b.send.Seconds())
		over = append(over, b.transportOver.Seconds())
		if insts[a.inst].spec.Objective == client.Center {
			kcCrit = append(kcCrit, b.siteCritical.Seconds())
			kcWork = append(kcWork, b.siteWork.Seconds())
		} else {
			kmCrit = append(kmCrit, b.siteCritical.Seconds())
			kmWork = append(kmWork, b.siteWork.Seconds())
			kmSkew = append(kmSkew, b.siteSkew)
		}
		for _, l := range []string{layerClient, layerCoord, layerTransport, layerSite} {
			shares[l] = append(shares[l], b.self[l].Seconds()/b.wall.Seconds())
		}
	}
	// A request whose spans do not account for its wall time is a failed
	// check of the traced run.
	t.add(0, len(selfErrs), selfErrs)
	vals["client.shard_s"] = median(shard)
	vals["client.eval_s"] = median(eval)
	vals["core.coord_s"] = median(coord)
	vals["core.rounds"] = median(rounds)
	vals["kmedian.site_critical_s"] = median(kmCrit)
	vals["kmedian.site_work_s"] = median(kmWork)
	vals["kmedian.site_skew"] = median(kmSkew)
	vals["kcenter.site_critical_s"] = median(kcCrit)
	vals["kcenter.site_work_s"] = median(kcWork)
	vals["transport.gather_s"] = median(gather)
	vals["transport.send_s"] = median(send)
	vals["transport.overhead_s"] = median(over)
	var up, down, inbox []float64
	for _, a := range firstPerInstance(tr.answers, len(insts)) {
		up = append(up, float64(a.report.UpBytes))
		down = append(down, float64(a.report.DownBytes))
		if a.report.Tree != nil {
			inbox = append(inbox, float64(a.report.Tree.RootUpBytes()))
		} else {
			inbox = append(inbox, 0)
		}
	}
	vals["comm.up_bytes"] = mean(up)
	vals["comm.down_bytes"] = mean(down)
	vals["tree.root_inbox_bytes"] = mean(inbox)
	vals["runtime.gc_pause_s"] = (u.gcPause + tr.gcPause).Seconds() / float64(len(u.answers)+len(tr.answers))
	ud, td := answerSeconds(u.answers), answerSeconds(tr.answers)
	vals["trace.overhead_s"] = median(td) - median(ud)
	vals["trace.self_client_share"] = median(shares[layerClient])
	vals["trace.self_coordinator_share"] = median(shares[layerCoord])
	vals["trace.self_transport_share"] = median(shares[layerTransport])
	vals["trace.self_site_share"] = median(shares[layerSite])
	rep.Notes = append(rep.Notes,
		fmt.Sprintf("tracing overhead: traced request_p50_s %.6f s (%d requests) minus untraced %.6f s (%d requests) = %.6f s",
			median(td), len(td), median(ud), len(ud), vals["trace.overhead_s"]),
		fmt.Sprintf("layer self times sum to each request's wall time within %s", "1% + 50µs"))
	return vals, nil
}

// answerSeconds returns the measured durations of answers in seconds.
func answerSeconds(as []answer) []float64 {
	out := make([]float64, len(as))
	for i, a := range as {
		out[i] = a.dur.Seconds()
	}
	return out
}

// firstPerInstance returns the first answer to each instance of the pool.
func firstPerInstance(as []answer, n int) []answer {
	seen := make([]bool, n)
	var out []answer
	for _, a := range as {
		if !seen[a.inst] {
			seen[a.inst] = true
			out = append(out, a)
		}
	}
	return out
}

// runMix runs the server-mix workload. Untraced, it reports the
// end-to-end metrics; traced, it runs an untraced and a traced phase on
// fresh servers, half the window each, and reports the per-layer metrics.
func runMix(ctx context.Context, o options, rep *report, book *digestBook, t *tally) (map[string]float64, error) {
	tmp := o.outDir()
	rate := mixShapeOf(o.size).rate
	vals := map[string]float64{}
	if !o.trace {
		blocks := mixBlocks(o.window(), rate)
		m, setup, err := timedSetups(o.setups,
			func() (*mixEnv, error) { return setupMix(ctx, tmp, o.size, o.seed, blocks) },
			func(m *mixEnv) { m.discard() })
		if err != nil {
			return nil, err
		}
		r, err := runMixPhase(ctx, m, blocks, nil, book)
		if err != nil {
			return nil, err
		}
		t.add(r.attempted, r.failed, r.errs)
		n, f, errs := localEquivalence(ctx, m.d, book)
		t.add(n, f, errs)
		reqs := mixRequestSeconds(r)
		if len(reqs) == 0 {
			return nil, fmt.Errorf("no job finished: %v", r.errs)
		}
		vals["setup_s"] = setup
		vals["request_p50_s"] = median(reqs)
		_, vals["request_tail_s"] = tail(reqs)
		vals["requests_per_s"] = float64(len(reqs)) / r.end.Sub(r.start).Seconds()
		var wire, costs []float64
		for _, j := range firstPerQuery(r, len(m.d.queries)) {
			wire = append(wire, float64(j.job.Result.UpBytes+j.job.Result.DownBytes))
			costs = append(costs, j.in.costRatio(j.job.Result.Cost))
		}
		vals["wire_bytes"] = mean(wire)
		vals["cost"] = geomean(costs)
		rep.Samples = map[string][]float64{"request_s": reqs, "write_s": durSeconds(r.writes)}
		rep.Notes = append(rep.Notes, tailNote("request_tail_s", reqs),
			fmt.Sprintf("open loop: %d events at %g/s, %d jobs, %d writes", r.attempted, rate, len(reqs), len(r.writes)))
		return vals, nil
	}

	half := o.window() / 2
	blocks := mixBlocks(half, rate)
	phase := func(rec *recorder) (*mixRun, *mixEnv, error) {
		m, err := setupMix(ctx, tmp, o.size, o.seed, blocks)
		if err != nil {
			return nil, nil, err
		}
		r, err := runMixPhase(ctx, m, blocks, rec, book)
		if err != nil {
			return nil, nil, err
		}
		t.add(r.attempted, r.failed, r.errs)
		return r, m, nil
	}
	u, _, err := phase(nil)
	if err != nil {
		return nil, err
	}
	rec := newRecorder()
	rep.rec = rec
	r, m, err := phase(rec)
	if err != nil {
		return nil, err
	}
	n, f, errs := localEquivalence(ctx, m.d, book)
	t.add(n, f, errs)
	ud, td := mixRequestSeconds(u), mixRequestSeconds(r)
	if len(ud) == 0 || len(td) == 0 {
		return nil, fmt.Errorf("no job finished: %v %v", u.errs, r.errs)
	}
	vals["trace.overhead_s"] = median(td) - median(ud)

	var queue, api, polls, cold, rounds []float64
	solve := map[string][]float64{}
	hits, misses := map[string]int64{}, map[string]int64{}
	for _, j := range r.jobs {
		if j.job.Status != serve.StatusDone || j.job.Started == nil || j.job.Finished == nil {
			continue
		}
		res := j.job.Result
		queue = append(queue, j.job.Started.Sub(j.job.Submitted).Seconds())
		sv := j.job.Finished.Sub(*j.job.Started).Seconds()
		if j.query < 0 {
			cold = append(cold, sv)
		} else {
			solve[j.in.spec.Objective] = append(solve[j.in.spec.Objective], sv)
		}
		api = append(api, j.observed.Sub(j.sent).Seconds()-j.job.Finished.Sub(j.job.Submitted).Seconds())
		polls = append(polls, float64(j.polls))
		rounds = append(rounds, float64(res.Rounds))
		ds := j.in.spec.Dataset
		hits[ds] = max(hits[ds], res.CacheHits)
		misses[ds] = max(misses[ds], res.CacheMisses)
	}
	var h, mi int64
	for ds := range hits {
		h += hits[ds]
		mi += misses[ds]
	}
	vals["serve.queue_wait_p50_s"] = median(queue)
	_, vals["serve.queue_wait_tail_s"] = tail(queue)
	vals["serve.solve_s.median"] = median(solve[client.Median])
	vals["serve.solve_s.center"] = median(solve[client.Center])
	vals["serve.solve_s.u-median"] = median(solve[client.UncertainMedian])
	vals["serve.cold_solve_s"] = median(cold)
	vals["serve.api_s"] = median(api)
	vals["serve.polls_per_job"] = mean(polls)
	ws := durSeconds(r.writes)
	vals["serve.write_p50_s"] = median(ws)
	_, vals["serve.write_tail_s"] = tail(ws)
	if h+mi > 0 {
		vals["metric.cache_hit_ratio"] = float64(h) / float64(h+mi)
	}
	vals["metric.cache_misses_per_job"] = float64(mi) / float64(len(queue))
	vals["core.rounds"] = median(rounds)
	var up, down []float64
	for _, j := range firstPerQuery(r, len(m.d.queries)) {
		up = append(up, float64(j.job.Result.UpBytes))
		down = append(down, float64(j.job.Result.DownBytes))
	}
	vals["comm.up_bytes"] = mean(up)
	vals["comm.down_bytes"] = mean(down)

	wr := writeRecords(r.records)
	if r.nWrites > 0 {
		vals["journal.records_per_write"] = float64(len(wr)) / float64(r.nWrites)
		var bytes int
		for _, rc := range wr {
			bytes += len(rc.Payload)
		}
		vals["journal.bytes_per_write"] = float64(bytes) / float64(r.nWrites)
	}
	dir, err := os.MkdirTemp(tmp, "replay-")
	if err != nil {
		return nil, err
	}
	appends, err := replayAppends(dir, r.records, 200)
	os.RemoveAll(dir)
	if err != nil {
		return nil, err
	}
	vals["journal.append_s"] = median(appends)
	var late time.Duration
	for _, l := range r.late {
		late = max(late, l)
	}
	vals["loadgen.late_s"] = late.Seconds()
	vals["runtime.gc_pause_s"] = r.gcPause.Seconds() / float64(max(len(r.jobs), 1))
	rep.Notes = append(rep.Notes,
		fmt.Sprintf("tracing overhead: traced request_p50_s %.6f s (%d jobs) minus untraced %.6f s (%d jobs) = %.6f s",
			median(td), len(td), median(ud), len(ud), vals["trace.overhead_s"]),
		tailNote("serve.queue_wait_tail_s", queue), tailNote("serve.write_tail_s", ws))
	return vals, nil
}

// mixRequestSeconds returns each finished job's latency, from its due
// time to the poll that fetched it finished.
func mixRequestSeconds(r *mixRun) []float64 {
	var out []float64
	for _, j := range r.jobs {
		if j.job.Status == serve.StatusDone {
			out = append(out, j.observed.Sub(j.due).Seconds())
		}
	}
	return out
}

// firstPerQuery returns the first finished job of each fixed query.
func firstPerQuery(r *mixRun, n int) []jobRec {
	seen := make([]bool, n)
	var out []jobRec
	for _, j := range r.jobs {
		if j.query >= 0 && !seen[j.query] && j.job.Status == serve.StatusDone && j.job.Result != nil {
			seen[j.query] = true
			out = append(out, j)
		}
	}
	return out
}
