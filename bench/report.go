package main

import (
	"fmt"
	"io"
	"strings"
	"time"
)

// layerInputs is everything a traced run collected for the per-layer
// metrics.
type layerInputs struct {
	closed   *input
	oracle   drainResult
	plain    []drainResult // untraced measured drains
	traced   []drainResult
	paced    pacedResult
	replay   map[string]float64
	inputRSS float64
}

// layerMetrics fills in every per-layer metric. Engine counters are read
// from the untraced drains (means per drain, or totals per input record),
// lifecycle phases from the traced drains, recovery from the paced run,
// and per-operation costs from the layer replay.
func (w *workload) layerMetrics(res *runResult, li layerInputs) {
	set := func(name string, v float64) { res.set(perLayer, name, v) }
	// total sums a counter over the untraced drains; perRec and perDrain
	// are the two ways such a total is reported.
	total := func(f func(d drainResult) float64) float64 {
		t := 0.0
		for _, d := range li.plain {
			t += f(d)
		}
		return t
	}
	input := total(func(d drainResult) float64 { return float64(d.input) })
	perRec := func(f func(d drainResult) float64) float64 { return ratio(total(f), input) }
	perDrain := func(f func(d drainResult) float64) float64 { return ratio(total(f), float64(len(li.plain))) }
	each := func(ds []drainResult, f func(d drainResult) float64) []float64 {
		vs := make([]float64, len(ds))
		for i, d := range ds {
			vs[i] = f(d)
		}
		return vs
	}
	rps := each(li.plain, drainResult.rps)
	dataMsgs := total(func(d drainResult) float64 { return float64(d.sum.DataMessages) })
	msgsPerRec := ratio(dataMsgs, input)

	for name, v := range li.replay {
		set(name, v)
	}
	set("wire.ops_per_rec", msgsPerRec)
	set("nexmark.gen_ns_per_rec", ratio(float64(li.closed.genDur.Nanoseconds()), float64(li.closed.total)))

	set("core.data_msgs_per_rec", msgsPerRec)
	set("core.batches_per_rec", perRec(func(d drainResult) float64 { return float64(d.sum.BatchesSent) }))
	set("core.avg_batch_records", ratio(dataMsgs, total(func(d drainResult) float64 { return float64(d.sum.BatchesSent) })))
	set("core.payload_bytes_per_rec", perRec(func(d drainResult) float64 { return float64(d.sum.PayloadBytes) }))
	set("core.protocol_bytes_per_rec", perRec(func(d drainResult) float64 { return float64(d.sum.ProtocolBytes) }))
	set("core.marker_msgs", perDrain(func(d drainResult) float64 { return float64(d.sum.MarkerMessages) }))
	set("core.checkpoints", perDrain(func(d drainResult) float64 { return float64(d.sum.TotalCheckpoints) }))
	set("core.invalid_ckpts", perDrain(func(d drainResult) float64 { return float64(d.sum.InvalidCheckpoints) }))
	set("core.forced_ckpts", perDrain(func(d drainResult) float64 { return float64(d.sum.ForcedCkpts) }))
	set("core.ckpt_ms", median(each(li.plain, func(d drainResult) float64 { return ms(d.sum.AvgCheckpointTime) })))
	set("core.sync_pause_mean_ms", median(each(li.plain, func(d drainResult) float64 { return ms(d.sum.MeanSyncPause) })))
	set("core.sync_pause_max_ms", summarize(each(li.plain, func(d drainResult) float64 { return ms(d.sum.MaxSyncPause) })).Max)
	set("core.materialize_mean_ms", median(each(li.plain, func(d drainResult) float64 { return ms(d.sum.MeanMaterialize) })))
	set("core.upload_mean_ms", median(each(li.plain, func(d drainResult) float64 { return ms(d.sum.MeanUpload) })))
	set("core.alloc_bytes_per_rec", perRec(func(d drainResult) float64 { return float64(d.mem.bytes) }))
	set("core.gc_cycles", perDrain(func(d drainResult) float64 { return float64(d.mem.gcCycles) }))
	set("core.gc_pause_ms", perDrain(func(d drainResult) float64 { return float64(d.mem.gcPauseNS) / 1e6 }))
	poolGets := total(func(d drainResult) float64 { return float64(d.pool.Gets) })
	set("core.framepool_hit_ratio", ratio(poolGets, poolGets+total(func(d drainResult) float64 { return float64(d.pool.Misses) })))

	// Lifecycle phases: mean span duration over all traced drains.
	type phaseTotal struct {
		total time.Duration
		count int
	}
	phases := map[string]phaseTotal{}
	for _, d := range li.traced {
		for _, ps := range d.phases {
			p := phases[ps.Name]
			phases[ps.Name] = phaseTotal{p.total + ps.Total, p.count + ps.Count}
		}
	}
	for _, name := range []string{"marker", "align", "capture", "materialize", "queue_wait", "upload", "wal_barrier", "meta", "report", "round"} {
		p := phases["ckpt."+name]
		set("core.ckpt."+name+"_ms", ratio(ms(p.total), float64(p.count)))
	}
	set("trace.overhead_pct", 100*(1-ratio(median(each(li.traced, drainResult.rps)), median(rps))))
	set("trace.events", median(each(li.traced, func(d drainResult) float64 { return float64(d.events) })))

	set("dedup.dropped", float64(li.paced.sum.DupDropped))
	set("msglog.replayed_records", float64(li.paced.sum.ReplayedOnRecovery))

	walAppends := total(func(d drainResult) float64 { return float64(d.wal.Appends) })
	walFsyncs := total(func(d drainResult) float64 { return float64(d.wal.Fsyncs) })
	set("wal.appends", perDrain(func(d drainResult) float64 { return float64(d.wal.Appends) }))
	set("wal.fsyncs", perDrain(func(d drainResult) float64 { return float64(d.wal.Fsyncs) }))
	set("wal.appends_per_fsync", ratio(walAppends, walFsyncs))
	set("wal.bytes_per_rec", perRec(func(d drainResult) float64 { return float64(d.wal.BytesWritten) }))

	set("statestore.keys", perDrain(func(d drainResult) float64 { return float64(d.keys) }))
	set("statestore.mb", perDrain(func(d drainResult) float64 { return mib(d.keyB) }))
	set("statestore.full_ckpts", perDrain(func(d drainResult) float64 { return float64(d.sum.FullKeyedCkpts) }))
	set("statestore.delta_ckpts", perDrain(func(d drainResult) float64 { return float64(d.sum.DeltaKeyedCkpts) }))
	set("statestore.full_mb", perDrain(func(d drainResult) float64 { return mib(d.sum.FullKeyedBytes) }))
	set("statestore.delta_mb", perDrain(func(d drainResult) float64 { return mib(d.sum.DeltaKeyedBytes) }))
	set("statestore.max_chain", summarize(each(li.plain, func(d drainResult) float64 { return float64(d.sum.MaxChainLen) })).Max)

	set("objstore.puts", perDrain(func(d drainResult) float64 { return float64(d.store.Puts) }))
	set("objstore.put_mb", perDrain(func(d drainResult) float64 { return mib(d.store.PutBytes) }))
	set("objstore.gets", float64(li.paced.store.Gets))
	set("objstore.get_mb", mib(li.paced.store.GetBytes))
	set("objstore.fsyncs", perDrain(func(d drainResult) float64 { return float64(d.store.Fsyncs) }))
	set("objstore.errors", total(func(d drainResult) float64 { return float64(d.store.Errors) })+float64(li.paced.store.Errors))
	set("objstore.retries", total(func(d drainResult) float64 { return float64(d.retries) })+float64(li.paced.retries))

	var detect, rollback, fetch, replay, catchup []float64
	var restoredBytes, scope float64
	for _, rto := range li.paced.sum.RTOs {
		detect = append(detect, ms(rto.Detect))
		rollback = append(rollback, ms(rto.Rollback))
		fetch = append(fetch, ms(rto.Fetch))
		replay = append(replay, ms(rto.Replay))
		if rto.Total > 0 {
			catchup = append(catchup, ms(rto.CatchUp))
		}
		restoredBytes += float64(rto.RestoredBytes)
		scope += float64(rto.ScopeInstances)
	}
	failures := float64(len(li.paced.sum.RTOs))
	set("recovery.failures", failures)
	set("recovery.recovered_share", ratio(float64(li.paced.caughtUp), float64(li.paced.planned)))
	set("recovery.detect_ms", median(detect))
	set("recovery.rollback_ms", median(rollback))
	set("recovery.fetch_ms", median(fetch))
	set("recovery.replay_ms", median(replay))
	set("recovery.catchup_ms", median(catchup))
	set("recovery.rollback_records", ratio(float64(li.paced.sum.RollbackDistance), failures))
	set("recovery.restored_mb", ratio(restoredBytes, failures)/(1<<20))
	set("recovery.scope_instances", ratio(scope, failures))

	cpuPerRec := perRec(func(d drainResult) float64 { return float64(d.cpu.Nanoseconds()) })
	set("harness.none_rps", li.oracle.rps())
	set("harness.cpu_ns_per_rec", cpuPerRec)
	set("harness.oracle_s", li.oracle.seconds)
	set("harness.input_rss_mb", li.inputRSS)
	set("harness.max_source_lag_ms", ms(li.paced.maxLag))
	set("harness.lat_p50_ms", percentile(li.paced.latMS, 0.50))
	set("harness.visible_p50_ms", percentile(li.paced.visibleMS, 0.50))
	set("harness.visible_p99_ms", percentile(li.paced.visibleMS, 0.99))
	set("harness.drain_spread_pct", 100*summarize(rps).spread())

	// The budget: what each replayed layer costs per call, times how often
	// a drain calls it per input record. Every record crossing a channel is
	// encoded and decoded once; the logging protocols also check and log it;
	// a durable log also writes it to the WAL. Records that reach the keyed
	// operator (all data messages minus the first hop and the sink's) pay
	// one get and one put. What the rows leave of the measured CPU time is
	// the engine's own loop, queues, frame pool, scheduling, checkpointing
	// and the synthetic network cost: the residual, reported as such.
	logging := w.proto != "COOR"
	onIf := func(cond bool, v float64) float64 {
		if cond {
			return v
		}
		return 0
	}
	keyedPerRec := onIf(w.stateful, ratio(dataMsgs-input-total(func(d drainResult) float64 { return float64(d.sink) }), input))
	rows := []budgetRow{
		{Layer: "mq.read", NSPerOp: li.replay["mq.read_ns"], OpsPerRec: 1},
		{Layer: "wire.encode", NSPerOp: li.replay["wire.encode_ns"], OpsPerRec: msgsPerRec},
		{Layer: "wire.decode", NSPerOp: li.replay["wire.decode_ns"], OpsPerRec: msgsPerRec},
		{Layer: "dedup.check", NSPerOp: li.replay["dedup.check_ns"], OpsPerRec: onIf(logging, msgsPerRec)},
		{Layer: "msglog.append", NSPerOp: li.replay["msglog.append_ns"], OpsPerRec: onIf(logging, msgsPerRec)},
		{Layer: "wal.append", NSPerOp: li.replay["wal.append_ns"], OpsPerRec: onIf(logging && w.durable, msgsPerRec)},
		{Layer: "statestore.get", NSPerOp: li.replay["statestore.get_ns"], OpsPerRec: keyedPerRec},
		{Layer: "statestore.put", NSPerOp: li.replay["statestore.put_ns"], OpsPerRec: keyedPerRec},
	}
	layered := 0.0
	for i := range rows {
		rows[i].NSPerRec = rows[i].NSPerOp * rows[i].OpsPerRec
		layered += rows[i].NSPerRec
	}
	residual := cpuPerRec - layered
	set("core.residual_ns_per_rec", residual)
	res.Budget = append(rows,
		budgetRow{Layer: "core.residual", NSPerOp: residual, OpsPerRec: 1, NSPerRec: residual},
		budgetRow{Layer: "harness.cpu_ns_per_rec", NSPerOp: cpuPerRec, OpsPerRec: 1, NSPerRec: cpuPerRec},
	)
}

// printBudget prints a run's budget table: the rows above the last sum to
// the last, which is the measured CPU time per input record.
func printBudget(w io.Writer, workload string, rows []budgetRow) {
	if len(rows) == 0 {
		return
	}
	total := rows[len(rows)-1].NSPerRec
	fmt.Fprintf(w, "\nbudget %s (ns per input record of a closed drain)\n", workload)
	fmt.Fprintf(w, "  %-24s %10s %12s %10s %7s\n", "layer", "ns/op", "ops/rec", "ns/rec", "share")
	for i, r := range rows {
		if i == len(rows)-1 {
			fmt.Fprintf(w, "  %s\n", strings.Repeat("-", 67))
		}
		fmt.Fprintf(w, "  %-24s %10.1f %12.4f %10.1f %6.1f%%\n", r.Layer, r.NSPerOp, r.OpsPerRec, r.NSPerRec, 100*ratio(r.NSPerRec, total))
	}
	fmt.Fprintln(w)
}
