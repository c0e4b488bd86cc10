package main

// metricSpec names one reported metric. The lists mirror BENCHMARK.json.
type metricSpec struct {
	name, unit, better string
}

// endToEnd are the untraced run's metrics (--trace 0).
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower"},
	{"portable_secs_per_s", "portable-s/s", "higher"},
	{"setups_per_s", "1/s", "higher"},
	{"op_latency_us.p50", "us", "lower"},
	{"op_latency_us.p90", "us", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// perLayer are the traced run's metrics (--trace 1). Counts and busy
// times are per pass over the replication set.
var perLayer = []metricSpec{
	{"core.ops", "count", "higher"},
	{"core.busy_s", "s", "lower"},
	{"core.op_us.p99", "us", "lower"},
	{"core.setups", "count", "higher"},
	{"core.setup_blocks", "count", "lower"},
	{"core.handoffs", "count", "higher"},
	{"core.handoff_drops", "count", "lower"},
	{"admission.calls", "count", "lower"},
	{"admission.busy_s", "s", "lower"},
	{"admission.call_us.p50", "us", "lower"},
	{"admission.calls_per_op", "1/op", "lower"},
	{"admission.admit_ratio", "ratio", "higher"},
	{"maxmin.calls", "count", "lower"},
	{"maxmin.busy_s", "s", "lower"},
	{"maxmin.messages", "count", "lower"},
	{"maxmin.sessions", "count", "lower"},
	{"maxmin.retransmits", "count", "lower"},
	{"des.events", "count", "lower"},
	{"des.events_per_op", "1/op", "lower"},
	{"des.dispatch_s", "s", "lower"},
	{"eventbus.records", "count", "lower"},
	{"eventbus.trace_bytes", "B", "lower"},
	{"topology.build_s", "s", "lower"},
	{"mobility.moves", "count", "higher"},
	{"mobility.gen_s", "s", "lower"},
	{"wire.frames", "count", "lower"},
	{"wire.frames_per_s", "1/s", "higher"},
	{"wire.frame_drops", "count", "lower"},
	{"wire.overhead_us_per_frame", "us", "lower"},
	{"testnet.commits", "count", "higher"},
	{"testnet.aborts", "count", "lower"},
	{"testnet.violations", "count", "lower"},
	{"runtime.mallocs_per_op", "1/op", "lower"},
	{"runtime.alloc_bytes_per_op", "B/op", "lower"},
	{"runtime.gc_cycles", "count", "lower"},
	{"cpu_share.admission", "share", "lower"},
	{"cpu_share.core", "share", "lower"},
	{"cpu_share.maxmin", "share", "lower"},
	{"cpu_share.topology", "share", "lower"},
	{"cpu_share.des", "share", "lower"},
	{"cpu_share.eventbus", "share", "lower"},
	{"cpu_share.wire", "share", "lower"},
	{"cpu_share.testnet", "share", "lower"},
	{"cpu_share.signal", "share", "lower"},
	{"cpu_share.other", "share", "lower"},
	{"bench.trace_overhead", "ratio", "lower"},
	{"handoff_drop_rate", "ratio", "lower"},
	{"setup_block_rate", "ratio", "lower"},
	{"error_rate", "ratio", "lower"},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line a run prints.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}
