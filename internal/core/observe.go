package core

import (
	"fmt"

	"checkmate/internal/statestore"
)

// MetricsSnapshot samples the engine's live gauges and counters for the
// /metrics endpoint. It is safe to call concurrently with a running job:
// everything read is either atomic, mutex-guarded, or a per-queue
// snapshot. The map encodes deterministically as JSON (encoding/json
// sorts keys), so the endpoint is diff-friendly.
func (e *Engine) MetricsSnapshot() map[string]any {
	m := map[string]any{
		"source_backlog_records": e.SourceBacklog(),
		"max_source_lag_ms":      float64(e.MaxSourceLag().Microseconds()) / 1e3,
		"rounds_completed":       e.coord.completedRound.Load(),
		"rounds_resolved":        e.coord.resolvedRound.Load(),
		"dup_dropped":            e.cfg.Recorder.DupDropped(),
	}

	cs := e.ChaosStats()
	m["store_retry_attempts"] = cs.Retry.Attempts
	m["store_retries"] = cs.Retry.Retries
	m["store_retry_exhausted"] = cs.Retry.Exhausted
	m["store_retry_backoff_ms"] = float64(cs.Retry.Backoff.Microseconds()) / 1e3
	m["rounds_abandoned"] = cs.RoundsAbandoned
	m["degraded"] = cs.Degraded
	m["degraded_entries"] = cs.DegradedEntries
	m["degraded_ms"] = float64(cs.DegradedTime.Microseconds()) / 1e3
	m["uploads_shed_degraded"] = cs.UploadsShed
	if e.cfg.Chaos != nil {
		m["chaos_store_errors"] = cs.Injected.StoreErrors
		m["chaos_store_spikes"] = cs.Injected.StoreSpikes
		m["chaos_fsync_stalls"] = cs.Injected.FsyncStalls
	}

	ws := e.WALStats()
	m["wal_appends"] = ws.Appends
	m["wal_fsyncs"] = ws.Fsyncs
	m["wal_bytes_written"] = ws.BytesWritten
	if ws.Fsyncs > 0 {
		m["wal_appends_per_fsync"] = float64(ws.Appends) / float64(ws.Fsyncs)
	} else {
		m["wal_appends_per_fsync"] = 0.0
	}

	e.mu.Lock()
	w := e.world
	e.mu.Unlock()
	if w == nil {
		return m
	}

	inboxes := make(map[string]int, len(w.instances))
	for _, it := range w.instances {
		if it.in == nil {
			continue
		}
		inboxes[fmt.Sprintf("%s[%d]", it.spec.Name, it.idx)] = it.in.pending()
	}
	m["inbox_depth"] = inboxes

	uq := make([]int, len(w.up))
	for i, q := range w.up {
		uq[i] = q.depth()
	}
	m["uploader_queue_depth"] = uq
	m["generation"] = w.gen

	if e.cfg.StateSpill.Enabled {
		ss := aggregateSpillStats(w)
		m["state_resident_bytes"] = ss.ResidentBytes
		m["state_mapped_bytes"] = ss.MappedBytes
		m["state_segments"] = ss.Segments
		m["state_spills"] = ss.Spills
		m["state_compactions"] = ss.Compactions
		m["state_spill_errors"] = ss.Errors
	}

	if tr := e.cfg.Trace; tr.Enabled() {
		m["trace_events"] = tr.EventCount()
	}
	return m
}

// aggregateSpillStats sums the spillable-backend gauges over a world's
// instances. The per-store stats are atomics, so this is safe concurrent
// with the running job.
func aggregateSpillStats(w *world) statestore.SpillStats {
	var agg statestore.SpillStats
	for _, it := range w.instances {
		if it.kv == nil {
			continue
		}
		st := it.kv.SpillStats()
		agg.ResidentBytes += st.ResidentBytes
		agg.MappedBytes += st.MappedBytes
		agg.Segments += st.Segments
		agg.Spills += st.Spills
		agg.Compactions += st.Compactions
		agg.Errors += st.Errors
	}
	return agg
}

// StateKeys sums the live keyed-state entries across the current world's
// instances. Unlike StateStats it reads the stores' plain (non-atomic)
// counters, so call it only when processing is quiesced — after Stop, or
// once a drain has settled.
func (e *Engine) StateKeys() int {
	e.mu.Lock()
	w := e.world
	e.mu.Unlock()
	if w == nil {
		return 0
	}
	n := 0
	for _, it := range w.instances {
		if it.kv != nil {
			n += it.kv.Len()
		}
	}
	return n
}

// StateBytes sums the logical live keyed-state bytes across the current
// world's instances — spilled or resident, the state the job would have to
// restore. Same quiescence requirement as StateKeys.
func (e *Engine) StateBytes() uint64 {
	e.mu.Lock()
	w := e.world
	e.mu.Unlock()
	if w == nil {
		return 0
	}
	var n uint64
	for _, it := range w.instances {
		if it.kv != nil {
			n += uint64(it.kv.Bytes())
		}
	}
	return n
}

// StateStats aggregates the spillable keyed-state gauges across the live
// world (zero when spilling is disabled or no world is running). Safe to
// call concurrently with the job — benchmarks sample it while draining.
func (e *Engine) StateStats() statestore.SpillStats {
	e.mu.Lock()
	w := e.world
	e.mu.Unlock()
	if w == nil {
		return statestore.SpillStats{}
	}
	return aggregateSpillStats(w)
}
