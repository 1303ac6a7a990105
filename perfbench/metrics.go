package main

// metricDef names one reported metric and its unit. The lists below are
// the benchmark's output contract; BENCHMARK.json at the repository root
// lists the same names and units (a test keeps the two in step).
type metricDef struct {
	name, unit string
}

// endToEnd are the untraced run's metrics, reported on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"request_p50_s", "s"},
	{"request_tail_s", "s"},
	{"requests_per_s", "1/s"},
	{"wire_bytes", "bytes"},
	{"cost", "ratio"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the traced run's metrics, reported on every workload; a
// layer a workload does not exercise reads 0.
var perLayer = []metricDef{
	{"client.shard_s", "s"},
	{"client.eval_s", "s"},
	{"core.coord_s", "s"},
	{"core.rounds", "count"},
	{"kmedian.site_critical_s", "s"},
	{"kmedian.site_work_s", "s"},
	{"kmedian.site_skew", "ratio"},
	{"kcenter.site_critical_s", "s"},
	{"kcenter.site_work_s", "s"},
	{"comm.up_bytes", "bytes"},
	{"comm.down_bytes", "bytes"},
	{"transport.gather_s", "s"},
	{"transport.send_s", "s"},
	{"transport.overhead_s", "s"},
	{"tree.root_inbox_bytes", "bytes"},
	{"serve.queue_wait_p50_s", "s"},
	{"serve.queue_wait_tail_s", "s"},
	{"serve.solve_s.median", "s"},
	{"serve.solve_s.center", "s"},
	{"serve.solve_s.u-median", "s"},
	{"serve.cold_solve_s", "s"},
	{"serve.api_s", "s"},
	{"serve.polls_per_job", "count"},
	{"serve.write_p50_s", "s"},
	{"serve.write_tail_s", "s"},
	{"metric.cache_hit_ratio", "ratio"},
	{"metric.cache_misses_per_job", "count"},
	{"journal.records_per_write", "count"},
	{"journal.bytes_per_write", "bytes"},
	{"journal.append_s", "s"},
	{"loadgen.late_s", "s"},
	{"runtime.gc_pause_s", "s"},
	{"trace.overhead_s", "s"},
	{"trace.self_client_share", "ratio"},
	{"trace.self_coordinator_share", "ratio"},
	{"trace.self_transport_share", "ratio"},
	{"trace.self_site_share", "ratio"},
}

// metricValue is one reported figure.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// fill returns the metrics of defs taking values from vals; a metric
// without a value reads 0.
func fill(defs []metricDef, vals map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		out[d.name] = metricValue{Value: vals[d.name], Unit: d.unit}
	}
	return out
}
