package main

// metricDef names one metric of BENCHMARK.json. The names are the contract
// later changes are judged by; bench_test.go checks this table against the
// committed BENCHMARK.json, so a name cannot drift in one place only.
type metricDef struct {
	name, unit, better string
}

// endToEnd is what a user of the engine sees, measured with tracing off.
// failed_share, the eighth end-to-end number, is always 0 on a correct
// run, so it travels as the attempted/failed counts of every result line
// instead of as a metric a bound could be taken of.
var endToEnd = []metricDef{
	{"drain_rps", "1/s", "higher"},
	{"allocs_per_rec", "1/rec", "lower"},
	{"lat_mean_ms", "ms", "lower"},
	{"lat_p99_ms", "ms", "lower"},
	{"restart_ms", "ms", "lower"},
	{"peak_rss_mb", "MiB", "lower"},
	{"setup_s", "s", "lower"},
}

// perLayer is what the traced run reports, layer by layer. "better" is the
// direction an optimisation of that layer would move it; plain counts of
// work done are listed as lower, since doing the same job with fewer
// messages, checkpoints or bytes is the improvement.
var perLayer = []metricDef{
	{"wire.encode_ns", "ns/rec", "lower"},
	{"wire.decode_ns", "ns/rec", "lower"},
	{"wire.ops_per_rec", "1/rec", "lower"},
	{"mq.read_ns", "ns/rec", "lower"},
	{"nexmark.gen_ns_per_rec", "ns/rec", "lower"},

	{"core.data_msgs_per_rec", "1/rec", "lower"},
	{"core.batches_per_rec", "1/rec", "lower"},
	{"core.avg_batch_records", "count", "higher"},
	{"core.payload_bytes_per_rec", "B/rec", "lower"},
	{"core.protocol_bytes_per_rec", "B/rec", "lower"},
	{"core.marker_msgs", "count", "lower"},
	{"core.checkpoints", "count", "higher"},
	{"core.invalid_ckpts", "count", "lower"},
	{"core.forced_ckpts", "count", "lower"},
	{"core.ckpt_ms", "ms", "lower"},
	{"core.sync_pause_mean_ms", "ms", "lower"},
	{"core.sync_pause_max_ms", "ms", "lower"},
	{"core.materialize_mean_ms", "ms", "lower"},
	{"core.upload_mean_ms", "ms", "lower"},
	{"core.alloc_bytes_per_rec", "B/rec", "lower"},
	{"core.gc_cycles", "count", "lower"},
	{"core.gc_pause_ms", "ms", "lower"},
	{"core.framepool_hit_ratio", "ratio", "higher"},
	{"core.ckpt.marker_ms", "ms", "lower"},
	{"core.ckpt.align_ms", "ms", "lower"},
	{"core.ckpt.capture_ms", "ms", "lower"},
	{"core.ckpt.materialize_ms", "ms", "lower"},
	{"core.ckpt.queue_wait_ms", "ms", "lower"},
	{"core.ckpt.upload_ms", "ms", "lower"},
	{"core.ckpt.wal_barrier_ms", "ms", "lower"},
	{"core.ckpt.meta_ms", "ms", "lower"},
	{"core.ckpt.report_ms", "ms", "lower"},
	{"core.ckpt.round_ms", "ms", "lower"},
	{"core.residual_ns_per_rec", "ns/rec", "lower"},

	{"dedup.check_ns", "ns/rec", "lower"},
	{"dedup.dup_check_ns", "ns/rec", "lower"},
	{"dedup.dropped", "count", "lower"},

	{"msglog.append_ns", "ns/rec", "lower"},
	{"msglog.range_ns", "ns/rec", "lower"},
	{"msglog.trim_ns", "ns/rec", "lower"},
	{"msglog.replayed_records", "count", "lower"},

	{"wal.append_ns", "ns/rec", "lower"},
	{"wal.sync_ms", "ms", "lower"},
	{"wal.recover_ns_per_rec", "ns/rec", "lower"},
	{"wal.appends", "count", "lower"},
	{"wal.fsyncs", "count", "lower"},
	{"wal.appends_per_fsync", "ratio", "higher"},
	{"wal.bytes_per_rec", "B/rec", "lower"},

	{"statestore.put_ns", "ns/rec", "lower"},
	{"statestore.get_ns", "ns/rec", "lower"},
	{"statestore.capture_full_ns_per_key", "ns/key", "lower"},
	{"statestore.capture_delta_ns_per_key", "ns/key", "lower"},
	{"statestore.materialize_ns_per_key", "ns/key", "lower"},
	{"statestore.restore_ns_per_key", "ns/key", "lower"},
	{"statestore.apply_delta_ns_per_key", "ns/key", "lower"},
	{"statestore.keys", "count", "lower"},
	{"statestore.mb", "MiB", "lower"},
	{"statestore.full_ckpts", "count", "lower"},
	{"statestore.delta_ckpts", "count", "higher"},
	{"statestore.full_mb", "MiB", "lower"},
	{"statestore.delta_mb", "MiB", "lower"},
	{"statestore.max_chain", "count", "lower"},

	{"objstore.put_ms_per_mb", "ms/MiB", "lower"},
	{"objstore.get_ms_per_mb", "ms/MiB", "lower"},
	{"objstore.puts", "count", "lower"},
	{"objstore.put_mb", "MiB", "lower"},
	{"objstore.gets", "count", "lower"},
	{"objstore.get_mb", "MiB", "lower"},
	{"objstore.fsyncs", "count", "lower"},
	{"objstore.errors", "count", "lower"},
	{"objstore.retries", "count", "lower"},

	{"recovery.findline_us", "us", "lower"},
	{"recovery.validate_us", "us", "lower"},
	{"recovery.failures", "count", "higher"},
	{"recovery.recovered_share", "ratio", "higher"},
	{"recovery.detect_ms", "ms", "lower"},
	{"recovery.rollback_ms", "ms", "lower"},
	{"recovery.fetch_ms", "ms", "lower"},
	{"recovery.replay_ms", "ms", "lower"},
	{"recovery.catchup_ms", "ms", "lower"},
	{"recovery.rollback_records", "count", "lower"},
	{"recovery.restored_mb", "MiB", "lower"},
	{"recovery.scope_instances", "count", "lower"},

	{"vclock.merge_ns", "ns/op", "lower"},
	{"vclock.encode_ns", "ns/op", "lower"},

	{"trace.overhead_pct", "%", "lower"},
	{"trace.events", "count", "lower"},

	{"harness.none_rps", "1/s", "higher"},
	{"harness.cpu_ns_per_rec", "ns/rec", "lower"},
	{"harness.oracle_s", "s", "lower"},
	{"harness.input_rss_mb", "MiB", "lower"},
	{"harness.max_source_lag_ms", "ms", "lower"},
	{"harness.lat_p50_ms", "ms", "lower"},
	{"harness.visible_p50_ms", "ms", "lower"},
	{"harness.visible_p99_ms", "ms", "lower"},
	{"harness.drain_spread_pct", "%", "lower"},
}

func unitOf(defs []metricDef, name string) string {
	for _, d := range defs {
		if d.name == name {
			return d.unit
		}
	}
	return ""
}
