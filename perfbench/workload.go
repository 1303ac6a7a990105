package main

import (
	"fmt"
	"time"

	"dpc/client"
	"dpc/internal/core"
	"dpc/internal/gen"
	"dpc/internal/metric"
	"dpc/internal/serve"
	"dpc/internal/tree"
	"dpc/internal/uncertain"
)

// Workload names, as BENCHMARK.json lists them.
const (
	wlBigShards   = "median-big-shards"
	wlSmallShards = "median-small-shards"
	wlCenterTree  = "center-tcp-tree"
	wlServerMix   = "server-mix"
)

// workloadNames lists every workload in BENCHMARK.json order.
var workloadNames = []string{wlBigShards, wlSmallShards, wlCenterTree, wlServerMix}

// size selects the input scale: full is what the benchmark measures, tiny
// keeps the tests fast while exercising every code path.
type size int

const (
	full size = iota
	tiny
)

// localShape is one closed-loop client.Local workload: a pool of seeded
// instances, each a mixture sharded round-robin over sites sites, answered
// in order. The pool is sized so one pass takes about the default window:
// each run then answers many distinct instances (its medians average over
// the inputs' variation) and every run of a seed answers the same ones.
type localShape struct {
	name       string
	objectives []string // objective of instance i is objectives[i % len]
	pool       int      // number of distinct instances
	sites      int
	perSite    int
	k, t       int
	outliers   float64 // planted outlier fraction of the points
	transport  string
	topology   string
	// think is the client's pause between requests. A TCP request opens
	// a localhost connection per site and aggregator, each left in
	// TIME_WAIT for a minute; back to back, a run leaves ~27k of them,
	// and as the kernel's table nears its cap, connects in that run and
	// in the runs after it slow down (by up to 70% on a 2-CPU host). The
	// pause keeps the table well short of that, so a run's figures do not
	// depend on how many runs came just before it.
	think time.Duration
}

// shapeOf returns the shape of a Local workload at the given scale.
func shapeOf(name string, sz size) (localShape, bool) {
	var s localShape
	switch name {
	case wlBigShards:
		s = localShape{name: name, objectives: []string{client.Median, client.Means}, pool: 16,
			sites: 4, perSite: 1200, k: 5, t: 100, outliers: 0.02}
		if sz == tiny {
			s.pool, s.perSite, s.t = 2, 150, 10
		}
	case wlSmallShards:
		s = localShape{name: name, objectives: []string{client.Median}, pool: 9,
			sites: 32, perSite: 120, k: 5, t: 60, outliers: 0.015}
		if sz == tiny {
			s.pool, s.sites, s.perSite, s.t = 2, 8, 40, 6
		}
	case wlCenterTree:
		s = localShape{name: name, objectives: []string{client.Center}, pool: 16,
			sites: 64, perSite: 100, k: 5, t: 60, outliers: 0.009,
			transport: "tcp", topology: "tree,branch=4", think: 500 * time.Millisecond}
		if sz == tiny {
			s.pool, s.sites, s.perSite, s.t, s.think = 2, 12, 30, 4, 0
		}
	default:
		return localShape{}, false
	}
	return s, true
}

// instance is one request of a workload's pool together with the data
// the checks need to recompute its cost.
type instance struct {
	spec   serve.JobSpec // the request in the job API's vocabulary
	req    client.Request
	points []metric.Point
	ground *uncertain.Ground
	nodes  []uncertain.Node
	// planted is the cost of the generator's planted centers at the
	// instance's outlier budget t: the yardstick the reported cost is
	// divided by, so cost figures compare across seeds.
	planted float64
}

// label names the instance in reports and digest checks.
func (in instance) label() string {
	return fmt.Sprintf("%s/%s/k%d/t%d/seed%d", in.spec.Dataset, in.spec.Objective, in.spec.K, in.spec.T, in.spec.Seed)
}

// costRatio is a reported cost relative to the planted centers' cost.
func (in instance) costRatio(cost float64) float64 {
	return cost / in.planted
}

// plantedCost evaluates the planted centers on the instance's data.
func (in instance) plantedCost(centers []metric.Point) float64 {
	t := float64(in.spec.T)
	switch in.spec.Objective {
	case client.Means:
		return core.Evaluate(in.points, centers, t, core.Means)
	case client.Center:
		return core.Evaluate(in.points, centers, t, core.Center)
	case client.UncertainMedian:
		return uncertain.EvalMedian(in.ground, in.nodes, centers, t)
	}
	return core.Evaluate(in.points, centers, t, core.Median)
}

// requestOf builds the client.Request a spec describes over in-memory
// data. Local, Remote and the traced path all start from the same
// serve.JobSpec, so they cannot disagree about the question asked.
func requestOf(spec serve.JobSpec, transport string) client.Request {
	return client.Request{
		Objective: spec.Objective,
		Variant:   spec.Variant,
		K:         spec.K,
		T:         spec.T,
		Sites:     spec.Sites,
		Eps:       spec.Eps,
		Seed:      spec.Seed,
		Engine:    spec.Engine,
		Transport: transport,
		Topology:  spec.Topology,
		Dataset:   spec.Dataset,
	}
}

// instanceSeed derives the seed of a workload's i-th generated input from
// the run seed, so one seed fixes every input of the run.
func instanceSeed(seed int64, i int) int64 {
	return seed*7919 + int64(i)*104729 + 1
}

// makeLocal generates the instance pool of a Local workload.
func makeLocal(sh localShape, seed int64) ([]instance, error) {
	var topo tree.Spec
	if sh.topology != "" {
		if err := topo.Set(sh.topology); err != nil {
			return nil, err
		}
	}
	out := make([]instance, sh.pool)
	for i := range out {
		obj := sh.objectives[i%len(sh.objectives)]
		mix := gen.Mixture(gen.MixtureSpec{
			N: sh.sites * sh.perSite, K: sh.k, Dim: 2,
			OutlierFrac: sh.outliers, Seed: instanceSeed(seed, i),
		})
		spec := serve.JobSpec{
			Objective: obj, K: sh.k, T: sh.t, Sites: sh.sites,
			Seed: instanceSeed(seed, i) + 17, Topology: topo,
		}
		req := requestOf(spec, sh.transport)
		req.Points = mix.Pts
		if err := req.Validate(); err != nil {
			return nil, fmt.Errorf("%s instance %d: %w", sh.name, i, err)
		}
		out[i] = instance{spec: spec, req: req, points: mix.Pts}
		out[i].planted = out[i].plantedCost(mix.TrueCenters)
	}
	return out, nil
}

// mixShape sizes the server-mix workload.
type mixShape struct {
	queryPoints int     // points per query table dataset
	nodes       int     // nodes of the uncertain query dataset
	ingestBase  int     // points an ingest dataset is registered with
	ingestStep  int     // points per append
	rate        float64 // offered events per second (jobs and writes)
	sites       int
}

func mixShapeOf(sz size) mixShape {
	if sz == tiny {
		return mixShape{queryPoints: 120, nodes: 40, ingestBase: 40, ingestStep: 20, rate: 40, sites: 4}
	}
	return mixShape{queryPoints: 800, nodes: 200, ingestBase: 200, ingestStep: 100, rate: 5, sites: 8}
}

// mixData is the generated input of one server-mix run: the fixed query
// datasets (never written) and the ingest stream, one dataset per block of
// the schedule.
type mixData struct {
	shape   mixShape
	queries []instance // one per (query dataset, spec) pair; each block runs each once
	tables  map[string][]metric.Point
	ground  *uncertain.Ground
	nodes   []uncertain.Node
	ingest  []ingestSet
}

// ingestSet is one ingest dataset: registered with parts[0], then
// appended parts[1] and parts[2], then queried once cold.
type ingestSet struct {
	name  string
	parts [3][]metric.Point
	cold  instance
}

// Query dataset names: four point tables (several, so a run's median jobs
// average over several inputs of a seed) and one uncertain dataset.
var dsTables = []string{"query-a", "query-b", "query-c", "query-d"}

const dsNodes = "query-u"

// makeMix generates the query datasets and blocks ingest datasets.
func makeMix(sz size, seed int64, blocks int) mixData {
	sh := mixShapeOf(sz)
	d := mixData{shape: sh, tables: map[string][]metric.Point{}}
	truth := map[string][]metric.Point{}
	for i, name := range dsTables {
		mix := gen.Mixture(gen.MixtureSpec{
			N: sh.queryPoints, K: 5, Dim: 2, OutlierFrac: 0.02, Seed: instanceSeed(seed, 100+i),
		})
		d.tables[name], truth[name] = mix.Pts, mix.TrueCenters
	}
	u := gen.UncertainMixture(gen.UncertainSpec{N: sh.nodes, K: 3, Dim: 2, OutlierFrac: 0.03, Seed: instanceSeed(seed, 200)})
	d.ground, d.nodes, truth[dsNodes] = u.Ground, u.Nodes, u.TrueCenters
	tq := sh.queryPoints / 50
	for i, q := range []struct {
		ds, obj string
		k, t    int
	}{
		{dsTables[0], client.Median, 5, tq},
		{dsTables[1], client.Median, 5, tq},
		{dsNodes, client.UncertainMedian, 3, sh.nodes / 25},
		{dsTables[2], client.Median, 5, tq},
		{dsTables[3], client.Median, 5, tq},
		{dsTables[0], client.Center, 5, tq},
	} {
		spec := serve.JobSpec{Dataset: q.ds, Objective: q.obj, K: q.k, T: q.t, Sites: sh.sites, Seed: instanceSeed(seed, 300+i)}
		in := instance{spec: spec}
		if q.ds == dsNodes {
			in.ground, in.nodes = d.ground, d.nodes
		} else {
			in.points = d.tables[q.ds]
		}
		in.planted = in.plantedCost(truth[q.ds])
		d.queries = append(d.queries, in)
	}
	for b := 0; b < blocks; b++ {
		set := ingestSet{name: fmt.Sprintf("ingest-%04d", b)}
		var all []metric.Point
		for part := range set.parts {
			n := sh.ingestBase
			if part > 0 {
				n = sh.ingestStep
			}
			set.parts[part] = gen.Mixture(gen.MixtureSpec{
				N: n, K: 4, Dim: 2, OutlierFrac: 0.02, Seed: instanceSeed(seed, 1000+10*b+part),
			}).Pts
			all = append(all, set.parts[part]...)
		}
		spec := serve.JobSpec{Dataset: set.name, Objective: client.Median, K: 4, T: len(all) / 50, Sites: sh.sites, Seed: instanceSeed(seed, 2000+b)}
		set.cold = instance{spec: spec, points: all}
		d.ingest = append(d.ingest, set)
	}
	return d
}
