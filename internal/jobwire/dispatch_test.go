package jobwire

import (
	"context"
	"reflect"
	"testing"

	"dpc/internal/core"
	"dpc/internal/dataio"
	"dpc/internal/engine"
	"dpc/internal/gen"
	"dpc/internal/kmedian"
	"dpc/internal/transport"
	"dpc/internal/uncertain"
)

// TestRunMatchesCoordinateOverFactoryFleet: for every kind, the in-process
// path (Job.Run) and the coordinator half (Job.Coordinate) over a loopback
// fleet of Factory-built site handlers — the persistent-site path, fed the
// encoded frame — return identical Outcomes and identical costs.
func TestRunMatchesCoordinateOverFactoryFleet(t *testing.T) {
	const sites = 3
	in := gen.Mixture(gen.MixtureSpec{N: 150, K: 3, OutlierFrac: 0.05, Seed: 4})
	uin := gen.UncertainMixture(gen.UncertainSpec{N: 48, K: 3, Support: 3, OutlierFrac: 0.05, Seed: 5})
	data := Data{Pts: in.Pts, G: uin.Ground, Nodes: uin.Nodes}
	ptShards := dataio.SplitRoundRobin(in.Pts, sites)
	nodeShards := dataio.SplitNodesRoundRobin(uin.Nodes, sites)
	seed := kmedian.Options{Seed: 2}
	jobs := []Job{
		{Kind: KindPoint, Core: core.Config{K: 3, T: 8, Objective: core.Median, LocalOpts: seed}},
		{Kind: KindPoint, Core: core.Config{K: 3, T: 8, Objective: core.Means, Variant: core.OneRound, LocalOpts: seed}},
		{Kind: KindPoint, Core: core.Config{K: 3, T: 8, Objective: core.Center, LocalOpts: seed,
			Options: engine.Options{Index: true, Pivots: 4}}},
		{Kind: KindUncertain, Obj: uncertain.Median, Unc: uncertain.Config{K: 3, T: 4, LocalOpts: seed}},
		{Kind: KindUncertain, Obj: uncertain.Means, Unc: uncertain.Config{K: 3, T: 4, LocalOpts: seed}},
		{Kind: KindUncertain, Obj: uncertain.CenterPP, Unc: uncertain.Config{K: 3, T: 4, LocalOpts: seed}},
		{Kind: KindCenterG, CenterG: uncertain.CenterGConfig{K: 3, T: 4, LocalOpts: seed}},
	}
	ctx := context.Background()
	for _, j := range jobs {
		t.Run(j.String(), func(t *testing.T) {
			want, err := j.Run(ctx, data, sites, transport.KindLoopback)
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			blob, err := Encode(j)
			if err != nil {
				t.Fatal(err)
			}
			handlers := make([]transport.Handler, sites)
			for i := range handlers {
				d := SiteData{Site: i, Data: Data{Pts: ptShards[i], G: uin.Ground, Nodes: nodeShards[i]}}
				if handlers[i], err = Factory(d)(0, blob); err != nil {
					t.Fatalf("site %d: %v", i, err)
				}
			}
			got, err := j.Coordinate(ctx, uin.Ground, transport.NewLoopback(handlers, true))
			if err != nil {
				t.Fatalf("Coordinate: %v", err)
			}
			if len(want.Centers) == 0 || want.Report.Rounds == 0 {
				t.Fatalf("Run returned %d centers over %d rounds", len(want.Centers), want.Report.Rounds)
			}
			// Wall-clock measurements are the only fields allowed to differ.
			for _, o := range []*Outcome{&want, &got} {
				o.Report.SiteWall, o.Report.SiteWork, o.Report.CoordWork = 0, 0, 0
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("Coordinate over the Factory fleet:\n%+v\nRun:\n%+v", got, want)
			}
			gc, gk := j.Cost(data, got)
			wc, wk := j.Cost(data, want)
			if gc != wc || gk != wk {
				t.Fatalf("cost %g (%s) vs %g (%s)", gc, gk, wc, wk)
			}
		})
	}
}

// TestCostWithoutInput pins the fallbacks of Cost when the caller does not
// hold the job's input: point jobs report the coordinator's induced cost,
// uncertain jobs none.
func TestCostWithoutInput(t *testing.T) {
	o := Outcome{CoordinatorCost: 7.5}
	if c, k := (Job{Kind: KindPoint}).Cost(Data{}, o); c != 7.5 || k != "coordinator" {
		t.Fatalf("point job without points: %g %q", c, k)
	}
	for _, kind := range []Kind{KindUncertain, KindCenterG} {
		if c, k := (Job{Kind: kind}).Cost(Data{Nodes: make([]uncertain.Node, 3)}, o); c != 0 || k != "" {
			t.Fatalf("%v job without a ground set: %g %q", kind, c, k)
		}
	}
}
