package main

// metricDef names one metric of BENCHMARK.json. The two tables below are
// the harness's side of that file: smoke_test.go fails if they disagree.
type metricDef struct {
	Name, Unit, Better string
}

// endToEnd is what a user of the system sees, reported by every workload
// with tracing off.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"strings_per_s", "1/s", "higher"},
	{"op_p50_ms", "ms", "lower"},
	{"op_p90_ms", "ms", "lower"},
	{"cpu_ms_per_string", "ms", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// perLayer is measured by the -trace run only. A layer that has no part in
// a workload (the coordinator on serve_write, say) reports 0 there.
var perLayer = []metricDef{
	{"token.build_ms", "ms", "lower"},
	{"token.distinct_tokens", "count", "lower"},
	{"prefilter.index_ms", "ms", "lower"},
	{"prefilter.prefix_tokens_per_string", "count", "lower"},
	{"tsj.shared_token_ms", "ms", "lower"},
	{"tsj.similar_token_ms", "ms", "lower"},
	{"tsj.dedup_shuffle_ms", "ms", "lower"},
	{"tsj.verify_ms", "ms", "lower"},
	{"tsj.candidates_per_string", "count", "lower"},
	{"tsj.prefix_pruned_frac", "ratio", "higher"},
	{"tsj.budget_pruned_frac", "ratio", "higher"},
	{"tsj.verified_per_result", "count", "lower"},
	{"mapreduce.map_ms", "ms", "lower"},
	{"mapreduce.reduce_ms", "ms", "lower"},
	{"mapreduce.shuffle_records", "count", "lower"},
	{"massjoin.selfjoin_ms", "ms", "lower"},
	{"massjoin.similar_pairs", "count", "lower"},
	{"core.verify_ns_per_pair", "ns", "lower"},
	{"core.lane_fill_pct", "%", "higher"},
	{"core.batched_frac", "ratio", "higher"},
	{"strdist.lev_ns_per_pair", "ns", "lower"},
	{"simd.levbatch_ns_per_lane", "ns", "lower"},
	{"assignment.hungarian_ns_per_call", "ns", "lower"},
	{"stream.add_ms", "ms", "lower"},
	{"stream.query_ms", "ms", "lower"},
	{"stream.candgen_ms_per_op", "ms", "lower"},
	{"stream.verify_ms_per_op", "ms", "lower"},
	{"stream.verified_per_op", "count", "lower"},
	{"corpus.add_ms", "ms", "lower"},
	{"corpus.fsync_ms", "ms", "lower"},
	{"corpus.wal_bytes_per_string", "B", "lower"},
	{"corpus.load_ms", "ms", "lower"},
	{"corpus.snapshot_ms", "ms", "lower"},
	{"replica.ack_overhead_ms", "ms", "lower"},
	{"replica.lag_records", "count", "lower"},
	{"distrib.scatter_overhead_ms", "ms", "lower"},
	{"tsjserve.http_floor_ms", "ms", "lower"},
	{"tsjserve.handler_p50_ms", "ms", "lower"},
	{"tsjserve.op_p99_ms", "ms", "lower"},
	{"trace.unattributed_frac", "ratio", "lower"},
	{"trace.overhead_pct", "%", "lower"},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// withUnits attaches the table's units to values, one entry per table
// row: a value the run did not produce is an error, not a silent gap.
func withUnits(defs []metricDef, values map[string]float64) (map[string]metric, []string) {
	out := make(map[string]metric, len(defs))
	var missing []string
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			missing = append(missing, d.Name)
			continue
		}
		out[d.Name] = metric{v, d.Unit}
	}
	return out, missing
}
