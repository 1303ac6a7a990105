package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"dpc/internal/comm"
	"dpc/internal/transport"
)

// Layers a span is attributed to. At any instant of a request the deepest
// active layer owns the time: a site computing beats the transport waiting
// for it, the transport beats the coordinator driving it, and the
// coordinator beats the client code around the run.
const (
	layerClient    = "client"
	layerCoord     = "coordinator"
	layerTransport = "transport"
	layerSite      = "site"
)

var layerDepth = map[string]int{layerClient: 0, layerCoord: 1, layerTransport: 2, layerSite: 3}

// span is one timed call at a layer boundary. Times are offsets from the
// recorder's epoch; Parent is 0 for a request's root span.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Req    int           `json:"req"`
	Name   string        `json:"name"`
	Layer  string        `json:"layer"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	Round  int           `json:"round"` // protocol round, -1 outside rounds
	Site   int           `json:"site"`  // site index, -1 outside sites
}

func (s span) dur() time.Duration { return s.End - s.Start }

// recorder keeps every span in memory; the run writes them out when it
// ends. Safe for concurrent use (site handlers record from their own
// goroutines).
type recorder struct {
	epoch time.Time

	mu    sync.Mutex
	next  int
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) now() time.Duration { return time.Since(r.epoch) }

// open starts a span and returns it with its id assigned; close it with
// end.
func (r *recorder) open(req, parent int, name, layer string) span {
	r.mu.Lock()
	r.next++
	id := r.next
	r.mu.Unlock()
	return span{ID: id, Parent: parent, Req: req, Name: name, Layer: layer, Start: r.now(), Round: -1, Site: -1}
}

// end closes s now and records it.
func (r *recorder) end(s span) {
	s.End = r.now()
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// byRequest returns the recorded spans grouped by request id.
func (r *recorder) byRequest() map[int][]span {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := map[int][]span{}
	for _, s := range r.spans {
		out[s.Req] = append(out[s.Req], s)
	}
	return out
}

// write stores every span as JSON at path.
func (r *recorder) write(path string) error {
	r.mu.Lock()
	spans := append([]span(nil), r.spans...)
	r.mu.Unlock()
	sort.Slice(spans, func(i, j int) bool { return spans[i].ID < spans[j].ID })
	raw, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

// selfTimes partitions a request's wall time among the layers: every
// instant covered by any span goes to the deepest layer active then. The
// parts add up to the root span's duration exactly when every span lies
// inside the root; a span escaping its request shows up as a surplus.
func selfTimes(spans []span) map[string]time.Duration {
	var cuts []time.Duration
	for _, s := range spans {
		cuts = append(cuts, s.Start, s.End)
	}
	sort.Slice(cuts, func(i, j int) bool { return cuts[i] < cuts[j] })
	out := map[string]time.Duration{}
	for i := 0; i+1 < len(cuts); i++ {
		a, b := cuts[i], cuts[i+1]
		if b == a {
			continue
		}
		best := ""
		for _, s := range spans {
			if s.Start <= a && s.End >= b && (best == "" || layerDepth[s.Layer] > layerDepth[best]) {
				best = s.Layer
			}
		}
		if best != "" {
			out[best] += b - a
		}
	}
	return out
}

// covered is the measure of [a, b) covered by the union of spans.
func covered(a, b time.Duration, spans []span) time.Duration {
	type iv struct{ s, e time.Duration }
	var ivs []iv
	for _, s := range spans {
		lo, hi := max(s.Start, a), min(s.End, b)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].s < ivs[j].s })
	var tot, curS, curE time.Duration
	started := false
	for _, v := range ivs {
		if !started || v.s > curE {
			if started {
				tot += curE - curS
			}
			curS, curE, started = v.s, v.e, true
		} else if v.e > curE {
			curE = v.e
		}
	}
	if started {
		tot += curE - curS
	}
	return tot
}

// timedHandler wraps a site handler with a span per round.
func timedHandler(rec *recorder, req, parent, site int, h transport.Handler) transport.Handler {
	return func(round int, in []byte) ([]byte, error) {
		s := rec.open(req, parent, "site.handle", layerSite)
		s.Round, s.Site = round, site
		out, err := h(round, in)
		rec.end(s)
		return out, err
	}
}

// timedTransport wraps the coordinator's transport with a span per call.
// It forwards the aggregation tree's per-level byte attribution, so the
// run's Report is what it would be unwrapped.
type timedTransport struct {
	inner  transport.Transport
	rec    *recorder
	req    int
	parent int
}

func (t *timedTransport) Sites() int { return t.inner.Sites() }

func (t *timedTransport) Broadcast(round int, b []byte) error {
	s := t.rec.open(t.req, t.parent, "transport.broadcast", layerTransport)
	s.Round = round
	err := t.inner.Broadcast(round, b)
	t.rec.end(s)
	return err
}

func (t *timedTransport) Send(round, site int, b []byte) error {
	s := t.rec.open(t.req, t.parent, "transport.send", layerTransport)
	s.Round, s.Site = round, site
	err := t.inner.Send(round, site, b)
	t.rec.end(s)
	return err
}

func (t *timedTransport) Gather(ctx context.Context, round int) (transport.RoundResult, error) {
	s := t.rec.open(t.req, t.parent, "transport.gather", layerTransport)
	s.Round = round
	res, err := t.inner.Gather(ctx, round)
	t.rec.end(s)
	return res, err
}

func (t *timedTransport) Close() error { return t.inner.Close() }

func (t *timedTransport) TreeStats() (comm.TreeStats, bool) {
	if ts, ok := t.inner.(comm.TreeStatser); ok {
		return ts.TreeStats()
	}
	return comm.TreeStats{}, false
}

// requestBreakdown is the per-layer account of one traced request.
type requestBreakdown struct {
	wall          time.Duration
	self          map[string]time.Duration
	shard, eval   time.Duration
	siteCritical  time.Duration // Σ over rounds of the slowest site
	siteWork      time.Duration // Σ of all site spans
	siteSkew      float64       // Σ slowest / Σ mean site, over rounds
	gather, send  time.Duration
	transportOver time.Duration // gather time not covered by that round's sites
}

// breakdown derives the per-layer account of one request from its spans.
func breakdown(spans []span) (requestBreakdown, error) {
	var b requestBreakdown
	var root *span
	for i := range spans {
		if spans[i].Parent == 0 {
			root = &spans[i]
		}
	}
	if root == nil {
		return b, fmt.Errorf("request has no root span")
	}
	b.wall = root.dur()
	b.self = selfTimes(spans)
	sites := map[int][]span{}
	var gathers []span
	for _, s := range spans {
		switch s.Name {
		case "client.shard":
			b.shard += s.dur()
		case "client.eval":
			b.eval += s.dur()
		case "site.handle":
			sites[s.Round] = append(sites[s.Round], s)
			b.siteWork += s.dur()
		case "transport.gather":
			gathers = append(gathers, s)
			b.gather += s.dur()
		case "transport.broadcast", "transport.send":
			b.send += s.dur()
		}
	}
	var sumMax, sumMean float64
	for _, ss := range sites {
		var mx, tot time.Duration
		for _, s := range ss {
			tot += s.dur()
			mx = max(mx, s.dur())
		}
		b.siteCritical += mx
		sumMax += mx.Seconds()
		sumMean += tot.Seconds() / float64(len(ss))
	}
	if sumMean > 0 {
		b.siteSkew = sumMax / sumMean
	}
	for _, g := range gathers {
		b.transportOver += g.dur() - covered(g.Start, g.End, sites[g.Round])
	}
	return b, nil
}

// selfTolerance bounds how far a request's layer self times may sum from
// its wall time: 1% of the wall plus 50µs of clock granularity.
func selfTolerance(wall time.Duration) time.Duration {
	return wall/100 + 50*time.Microsecond
}

// checkSelf verifies that the layer self times add up to the wall time.
func (b requestBreakdown) checkSelf() error {
	var sum time.Duration
	for _, d := range b.self {
		sum += d
	}
	diff := sum - b.wall
	if diff < 0 {
		diff = -diff
	}
	if diff > selfTolerance(b.wall) {
		return fmt.Errorf("layer self times sum to %v, wall %v (tolerance %v)", sum, b.wall, selfTolerance(b.wall))
	}
	return nil
}
