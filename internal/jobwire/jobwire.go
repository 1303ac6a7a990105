// Package jobwire is the one place that knows the repository's three
// protocol families apart. A Job is one configured protocol run — point
// (Algorithms 1/2), uncertain (Algorithm 3) or center-g (Algorithm 4) —
// and it answers every per-kind question a backend asks:
//
//   - Handler builds the site half for one site's shard;
//   - Coordinate runs the coordinator half over any connected transport;
//   - Run is the in-process path (shard, simulate the sites, coordinate);
//   - Cost evaluates an Outcome against the whole input;
//   - String renders a one-line summary.
//
// client's Local and Cluster backends, the dpc-server job runner (behind
// the Remote and Balanced backends) and dpc-site all go through these
// methods instead of switching on the objective themselves.
//
// The package also defines the job frame a multi-job coordinator (the
// dpc-server's remote datasets, or a client.Cluster backend) ships to its
// persistent sites before each protocol run, and the site-side factory
// that turns such a frame into the right transport.Handler.
//
// Every frame is an envelope: a magic byte, then a kind byte, so one
// connected site fleet serves every protocol in the repository:
//
//   - KindPoint: Algorithm 1/2 over the site's point shard (the config
//     payload stays the exact core.EncodeConfig record, so the byte-parity
//     guarantees of the handshake encoding carry over).
//   - KindUncertain: Algorithm 3 (uncertain median/means/center-pp) over
//     the site's node shard; the config crosses as JSON (float64 values
//     round-trip exactly through encoding/json).
//   - KindCenterG: Algorithm 4 (uncertain center-g) over the node shard.
//
// A frame without the magic byte (such as a bare core.EncodeConfig record)
// is rejected, never guessed at.
package jobwire

import (
	"context"
	"encoding/json"
	"fmt"

	"dpc/internal/comm"
	"dpc/internal/core"
	"dpc/internal/dataio"
	"dpc/internal/metric"
	"dpc/internal/transport"
	"dpc/internal/uncertain"
)

// Kind discriminates the protocol a job frame starts.
type Kind byte

// Job kinds.
const (
	// KindPoint runs Algorithm 1/2 over point shards.
	KindPoint Kind = 1
	// KindUncertain runs Algorithm 3 over uncertain node shards.
	KindUncertain Kind = 2
	// KindCenterG runs Algorithm 4 over uncertain node shards.
	KindCenterG Kind = 3
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindPoint:
		return "point"
	case KindUncertain:
		return "uncertain"
	case KindCenterG:
		return "centerg"
	}
	return fmt.Sprintf("jobwire.Kind(%d)", byte(k))
}

// magic is the first byte of every job frame.
const magic = 0xDC

// Job is one decoded job frame.
type Job struct {
	Kind Kind

	// Core is the run configuration for KindPoint.
	Core core.Config
	// Obj / Unc parameterize KindUncertain.
	Obj uncertain.Objective
	Unc uncertain.Config
	// CenterG parameterizes KindCenterG.
	CenterG uncertain.CenterGConfig
}

// uncertainWire is the JSON payload of a KindUncertain frame.
type uncertainWire struct {
	Obj uncertain.Objective `json:"obj"`
	Cfg uncertain.Config    `json:"cfg"`
}

// Encode serializes a job frame.
func Encode(j Job) ([]byte, error) {
	switch j.Kind {
	case KindPoint:
		return append([]byte{magic, byte(KindPoint)}, core.EncodeConfig(j.Core)...), nil
	case KindUncertain:
		body, err := json.Marshal(uncertainWire{Obj: j.Obj, Cfg: j.Unc})
		if err != nil {
			return nil, fmt.Errorf("jobwire: %w", err)
		}
		return append([]byte{magic, byte(KindUncertain)}, body...), nil
	case KindCenterG:
		body, err := json.Marshal(j.CenterG)
		if err != nil {
			return nil, fmt.Errorf("jobwire: %w", err)
		}
		return append([]byte{magic, byte(KindCenterG)}, body...), nil
	}
	return nil, fmt.Errorf("jobwire: unknown job kind %v", j.Kind)
}

// Decode parses a job frame; a frame without the envelope magic is an
// error.
func Decode(b []byte) (Job, error) {
	if len(b) == 0 {
		return Job{}, fmt.Errorf("jobwire: empty job frame")
	}
	if b[0] != magic {
		return Job{}, fmt.Errorf("jobwire: bad job frame magic %#x, want %#x", b[0], magic)
	}
	if len(b) < 2 {
		return Job{}, fmt.Errorf("jobwire: truncated job frame")
	}
	body := b[2:]
	switch Kind(b[1]) {
	case KindPoint:
		cfg, err := core.DecodeConfig(body)
		if err != nil {
			return Job{}, fmt.Errorf("jobwire: point job: %w", err)
		}
		return Job{Kind: KindPoint, Core: cfg}, nil
	case KindUncertain:
		var w uncertainWire
		if err := json.Unmarshal(body, &w); err != nil {
			return Job{}, fmt.Errorf("jobwire: uncertain job: %w", err)
		}
		return Job{Kind: KindUncertain, Obj: w.Obj, Unc: w.Cfg}, nil
	case KindCenterG:
		var cfg uncertain.CenterGConfig
		if err := json.Unmarshal(body, &cfg); err != nil {
			return Job{}, fmt.Errorf("jobwire: center-g job: %w", err)
		}
		return Job{Kind: KindCenterG, CenterG: cfg}, nil
	}
	return Job{}, fmt.Errorf("jobwire: unknown job kind %d", b[1])
}

// String renders a one-line job summary (dpc-site -v logs it per job).
func (j Job) String() string {
	switch j.Kind {
	case KindPoint:
		return fmt.Sprintf("%s/%s (k=%d, t=%d)", j.Core.Objective, j.Core.Variant, j.Core.K, j.Core.T)
	case KindUncertain:
		return fmt.Sprintf("%v (k=%d, t=%d)", j.Obj, j.Unc.K, j.Unc.T)
	case KindCenterG:
		return fmt.Sprintf("u-centerg (k=%d, t=%d)", j.CenterG.K, j.CenterG.T)
	}
	return j.Kind.String()
}

// Data is a job's input: a point set for KindPoint, or uncertain nodes
// over their shared ground set for the other kinds. It is a whole dataset
// for Run and Cost, and one site's shard inside SiteData.
type Data struct {
	Pts   []metric.Point
	G     *uncertain.Ground
	Nodes []uncertain.Node
}

// Inputs returns how many inputs d holds for j's kind (points, or nodes
// with their ground set), and 0 when d lacks that kind's input.
func (j Job) Inputs(d Data) int {
	if j.Kind == KindPoint {
		return len(d.Pts)
	}
	if d.G == nil {
		return 0
	}
	return len(d.Nodes)
}

// Outcome is one protocol run's answer, whichever protocol produced it.
type Outcome struct {
	Centers []metric.Point
	// OutlierBudget is the number of (weighted) inputs the solution may
	// ignore.
	OutlierBudget float64
	// SiteBudgets are the allocated per-site budgets t_i (nil for 1-round
	// variants).
	SiteBudgets []int
	Report      comm.Report
	// CoordinatorCost is the coordinator's objective on its induced
	// instance (point jobs; zero otherwise).
	CoordinatorCost float64
	// Tau is center-g's chosen truncation threshold (zero otherwise).
	Tau float64
}

func pointOutcome(r core.Result) Outcome {
	return Outcome{Centers: r.Centers, OutlierBudget: r.OutlierBudget, SiteBudgets: r.SiteBudgets,
		Report: r.Report, CoordinatorCost: r.CoordinatorCost}
}

func uncertainOutcome(r uncertain.Result) Outcome {
	return Outcome{Centers: r.Centers, OutlierBudget: r.OutlierBudget, SiteBudgets: r.SiteBudgets, Report: r.Report}
}

func centerGOutcome(r uncertain.CenterGResult) Outcome {
	return Outcome{Centers: r.Centers, OutlierBudget: r.OutlierBudget, SiteBudgets: r.SiteBudgets,
		Report: r.Report, Tau: r.Tau}
}

// Handler builds j's site half for the site holding d. o is an optional
// externally owned distance oracle over d.Pts (see
// core.NewSiteHandlerOracle); the uncertain kinds ignore it.
func (j Job) Handler(d SiteData, o metric.Oracle) (transport.Handler, error) {
	if j.Inputs(d.Data) == 0 {
		return nil, fmt.Errorf("site %d holds no %v shard", d.Site, j.Kind)
	}
	switch j.Kind {
	case KindPoint:
		return core.NewSiteHandlerOracle(j.Core, d.Site, d.Pts, o)
	case KindUncertain:
		return uncertain.NewSiteHandler(d.G, d.Nodes, j.Unc, j.Obj, d.Site)
	case KindCenterG:
		return uncertain.NewCenterGSiteHandler(d.G, d.Nodes, j.CenterG, d.Site)
	}
	return nil, fmt.Errorf("jobwire: unknown job kind %v", j.Kind)
}

// Coordinate runs j's coordinator half over tr, whose sites each serve
// j's site half (a persistent fleet after the caller shipped j's frame, or
// in-process Handlers). g is the shared ground metric the uncertain kinds
// need; point jobs ignore it. The transport is left open.
func (j Job) Coordinate(ctx context.Context, g *uncertain.Ground, tr transport.Transport) (Outcome, error) {
	if j.Kind != KindPoint && g == nil {
		return Outcome{}, fmt.Errorf("jobwire: %v job needs the shared ground metric", j.Kind)
	}
	switch j.Kind {
	case KindPoint:
		res, err := core.RunOverCtx(ctx, tr, j.Core)
		return pointOutcome(res), err
	case KindUncertain:
		res, err := uncertain.RunOverCtx(ctx, g, tr, j.Unc, j.Obj)
		return uncertainOutcome(res), err
	case KindCenterG:
		res, err := uncertain.RunCenterGOverCtx(ctx, g, tr, j.CenterG)
		return centerGOutcome(res), err
	}
	return Outcome{}, fmt.Errorf("jobwire: unknown job kind %v", j.Kind)
}

// Run is the in-process path: d is sharded round-robin over `sites`
// simulated sites (dataio's split, the sharding every backend shares) and
// the protocol runs over the wire backend tk.
func (j Job) Run(ctx context.Context, d Data, sites int, tk transport.Kind) (Outcome, error) {
	if j.Inputs(d) == 0 {
		return Outcome{}, fmt.Errorf("jobwire: %v job has no input", j.Kind)
	}
	switch j.Kind {
	case KindPoint:
		cfg := j.Core
		cfg.Transport = tk
		res, err := core.RunCtx(ctx, dataio.SplitRoundRobin(d.Pts, sites), cfg)
		return pointOutcome(res), err
	case KindUncertain:
		cfg := j.Unc
		cfg.Transport = tk
		res, err := uncertain.RunCtx(ctx, d.G, dataio.SplitNodesRoundRobin(d.Nodes, sites), cfg, j.Obj)
		return uncertainOutcome(res), err
	case KindCenterG:
		cfg := j.CenterG
		cfg.Transport = tk
		res, err := uncertain.RunCenterGCtx(ctx, d.G, dataio.SplitNodesRoundRobin(d.Nodes, sites), cfg)
		return centerGOutcome(res), err
	}
	return Outcome{}, fmt.Errorf("jobwire: unknown job kind %v", j.Kind)
}

// CenterGCostSamples is the Monte-Carlo sample count behind u-centerg
// costs; every backend evaluates through Cost, so remote and local
// u-centerg costs agree exactly.
const CenterGCostSamples = 200

// Cost evaluates o against d, the job's whole input, and says against
// what: "global" (the true objective over all inputs), "estimate"
// (u-centerg's seeded Monte Carlo), "coordinator" (a point job without
// its input reports the coordinator's induced cost) or "" (an uncertain
// job without its input is not evaluated).
func (j Job) Cost(d Data, o Outcome) (float64, string) {
	if j.Inputs(d) == 0 {
		if j.Kind == KindPoint {
			return o.CoordinatorCost, "coordinator"
		}
		return 0, ""
	}
	switch j.Kind {
	case KindPoint:
		return core.Evaluate(d.Pts, o.Centers, o.OutlierBudget, j.Core.Objective), "global"
	case KindCenterG:
		return uncertain.EvalCenterG(d.G, d.Nodes, o.Centers, o.OutlierBudget, CenterGCostSamples, j.CenterG.LocalOpts.Seed), "estimate"
	}
	switch j.Obj {
	case uncertain.Means:
		return uncertain.EvalMeans(d.G, d.Nodes, o.Centers, o.OutlierBudget), "global"
	case uncertain.CenterPP:
		return uncertain.EvalCenterPP(d.G, d.Nodes, o.Centers, o.OutlierBudget), "global"
	}
	return uncertain.EvalMedian(d.G, d.Nodes, o.Centers, o.OutlierBudget), "global"
}

// SiteData is the state a persistent site holds across jobs: its shard —
// points for point jobs, uncertain nodes plus the shared ground set for
// uncertain jobs — and an optional long-lived distance cache over the
// point shard. Any subset may be nil; a job frame of a kind the site has
// no data for fails that job loudly instead of computing on garbage.
type SiteData struct {
	Site int
	Data
	Cache *metric.DistCache
}

// ServeJobs runs the whole persistent-site loop over an established
// connection: it verifies the coordinator's multi-job hello marker (a
// site must never be silently paired with a single-run coordinator),
// builds one long-lived distance cache over the point shard when none was
// provided and the shard fits the memoization cap, and serves one handler
// per job frame via Factory until the coordinator closes. wrap, when
// non-nil, decorates each job's handler (dpc-site -v hangs its logging
// off it). It is the single implementation behind dpc-site -persist and
// client.ServeSite.
func ServeJobs(sc *transport.Site, d SiteData, wrap func(job int, blob []byte, h transport.Handler) transport.Handler) error {
	if string(sc.Hello()) != transport.JobsHello {
		return fmt.Errorf("jobwire: coordinator is not multi-job (welcome %q, want %q)",
			sc.Hello(), transport.JobsHello)
	}
	if d.Cache == nil && len(d.Pts) > 0 && len(d.Pts) <= metric.MaxCachePoints {
		d.Cache = metric.NewDistCache(metric.NewPoints(d.Pts))
	}
	factory := Factory(d)
	return sc.ServeJobs(func(job int, blob []byte) (transport.Handler, error) {
		h, err := factory(job, blob)
		if err != nil || wrap == nil {
			return h, err
		}
		return wrap(job, blob, h), nil
	})
}

// Factory returns the transport.Site.ServeJobs factory for a persistent
// site holding d: each job frame is decoded and turned into its site half
// (Job.Handler), closing over the site-held data so datasets and caches
// stay warm across jobs. It is the single implementation behind dpc-site
// -persist, the client.Cluster tests and the dpc-server remote e2e tests.
func Factory(d SiteData) func(job int, blob []byte) (transport.Handler, error) {
	// The site's pivot index is as long-lived as its distance cache: built
	// lazily by the first indexed job, reused (same pivot count) by every
	// later one. Jobs on one connection are served sequentially, so the
	// memo needs no locking.
	var siteIx *metric.Index
	ixPivots := -1
	oracle := func(cfg core.Config) metric.Oracle {
		if !cfg.Index || cfg.NoCache || len(d.Pts) == 0 {
			if d.Cache == nil {
				return nil
			}
			return d.Cache
		}
		m := cfg.Pivots
		if m <= 0 {
			m = metric.DefaultPivots
		}
		if m > len(d.Pts) {
			m = len(d.Pts)
		}
		if siteIx == nil || ixPivots != m {
			var sp metric.Space
			if d.Cache != nil {
				sp = d.Cache
			} else {
				sp = metric.NewPoints(d.Pts)
			}
			siteIx = metric.NewIndex(sp, metric.IndexOptions{Pivots: m})
			ixPivots = m
		}
		return siteIx
	}
	return func(job int, blob []byte) (transport.Handler, error) {
		j, err := Decode(blob)
		if err != nil {
			return nil, fmt.Errorf("job %d: %w", job, err)
		}
		h, err := j.Handler(d, oracle(j.Core))
		if err != nil {
			return nil, fmt.Errorf("job %d: %w", job, err)
		}
		return h, nil
	}
}
