package client

import (
	"context"
	"fmt"

	"dpc/internal/central"
	"dpc/internal/core"
	"dpc/internal/jobwire"
	"dpc/internal/kmedian"
	"dpc/internal/serve"
	"dpc/internal/transport"
)

// Local answers requests in-process: the request's Points (or
// Ground+Nodes) are sharded round-robin over req.Sites simulated sites and
// the full distributed protocol runs over the loopback (or, with
// req.Transport = "tcp", real localhost socket) backend. With req.Central
// set, point median/means requests run the Section 3.1 centralized solver
// instead. It subsumes the one-shot Run / RunUncertain / RunCenterG /
// Centralized entrypoints behind the unified Request.
type Local struct{}

// NewLocal creates the in-process backend.
func NewLocal() *Local { return &Local{} }

// Close implements Client (no resources held).
func (l *Local) Close() error { return nil }

// Do implements Client.
func (l *Local) Do(ctx context.Context, req Request) (*Response, error) {
	job, err := req.job()
	if err != nil {
		return nil, err
	}
	tkind, err := transport.ParseKind(req.Transport)
	if err != nil {
		return nil, err
	}
	if req.Central && job.Kind != jobwire.KindPoint {
		return nil, fmt.Errorf("client: the centralized solver handles point median/means only")
	}
	d := req.data()
	n := job.Inputs(d)
	if n == 0 {
		if job.Kind == jobwire.KindPoint {
			return nil, fmt.Errorf("client: local %s request needs Points", req.Objective)
		}
		return nil, fmt.Errorf("client: local %s request needs Ground and Nodes", req.Objective)
	}
	// One range check for both solvers: a budget covering every input
	// would "succeed" with zero centers.
	if req.T >= n {
		return nil, fmt.Errorf("client: t = %d out of range [0, %d)", req.T, n)
	}
	if req.Central {
		return centralized(ctx, req, job.Core)
	}
	sites := req.Sites
	if sites <= 0 {
		sites = serve.DefaultJobSites
	}
	out, err := job.Run(ctx, d, sites, tkind)
	if err != nil {
		return nil, err
	}
	return response(job, d, out, "local"), nil
}

// centralized answers a point median/means request with the Section 3.1
// centralized solver.
func centralized(ctx context.Context, req Request, cfg core.Config) (*Response, error) {
	if cfg.Objective == core.Center {
		return nil, fmt.Errorf("client: the centralized solver handles median/means only")
	}
	// The centralized solver is one indivisible solve; honor the context
	// at its boundary (a cancelled request never starts it).
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	sol := central.PartialMedian(req.Points, central.Config{
		K: req.K, T: req.T, Levels: req.Levels, Eps: req.Eps,
		Objective: cfg.Objective, Engine: cfg.Engine,
		Opts: kmedian.Options{Seed: req.Seed, Options: cfg.Options},
	})
	return &Response{
		Centers:       sol.Centers,
		Cost:          sol.Cost,
		CostKind:      "global",
		OutlierBudget: sol.OutlierBudget,
		Backend:       "local",
	}, nil
}
