package core

import (
	"time"

	"checkmate/internal/chaos"
)

// This file is the engine side of the chaos plane (internal/chaos): the
// shared store retry policy, the degraded mode the engine enters when the
// object store is out for longer than the retries cover, and the stats
// surface both expose.
//
// Degraded-mode contract: when a store-facing operation exhausts its
// retries, the engine suspends checkpointing (no new coordinated rounds,
// no local UNC/CIC triggers, uploads shed without retrying) but KEEPS
// DRAINING records — processing is unaffected because checkpoint upload
// was already asynchronous. A prober watches the store; once it answers
// again the engine resumes checkpointing with forced fresh full bases
// (delta chains may have lost links while uploads were shed). Exactly-once
// is preserved throughout: the recovery line only ever advances over fully
// durable checkpoints, and transactional output commits only behind it.

// chaosProbeKey is the tiny blob the degraded-mode prober writes to test
// store health. The prefix is outside "meta/" and every checkpoint chain
// key, so recovery and GC never see it.
const chaosProbeKey = "chaos/probe"

// buildRetryPolicy constructs the engine's shared store retry policy (4
// attempts, backoff doubling from 1ms, +-50% jitter), wiring counters and
// per-backoff trace spans.
func (e *Engine) buildRetryPolicy() *chaos.RetryPolicy {
	p := &chaos.RetryPolicy{
		Counters: &e.retryCtr,
		Seed:     e.cfg.Seed + 0x5eed,
	}
	if tk := e.retryTrack; tk != nil {
		p.OnBackoff = func(op string, attempt int, d time.Duration) {
			// An instant, not a span: concurrent uploaders back off on the
			// shared retry track, and overlapping same-track spans would
			// break the trace's nesting invariant. The backoff length rides
			// in Arg (ns).
			tk.Instant("retry."+op, uint64(attempt), uint64(d.Nanoseconds()))
		}
	}
	return p
}

// enterDegraded flips the engine into degraded mode (idempotent) and
// starts the store prober. reason is for the run log.
func (e *Engine) enterDegraded(reason string) {
	if !e.degraded.CompareAndSwap(false, true) {
		return
	}
	e.degradedSince.Store(time.Now().UnixNano())
	e.degradedEntries.Add(1)
	e.cfg.Recorder.Note("degraded mode entered (%s): checkpointing suspended, records keep draining", reason)
	e.mu.Lock()
	stopped := e.stopped
	if !stopped {
		e.proberWG.Add(1)
	}
	e.mu.Unlock()
	if !stopped {
		go e.probeStoreLoop()
	}
}

// exitDegraded resumes checkpointing: accounting, then a forced fresh full
// base on every live instance so no new checkpoint leans on a chain whose
// segments were shed during the outage.
func (e *Engine) exitDegraded() {
	if !e.degraded.CompareAndSwap(true, false) {
		return
	}
	var episode time.Duration
	if since := e.degradedSince.Swap(0); since != 0 {
		episode = time.Duration(time.Now().UnixNano() - since)
		e.degradedNanos.Add(int64(episode))
	}
	e.mu.Lock()
	w := e.world
	e.mu.Unlock()
	if w != nil {
		for _, it := range w.instances {
			it.abandonChainBlob()
		}
	}
	e.cfg.Recorder.Note("degraded mode exited after %v: checkpointing resumed with fresh full bases", episode.Round(time.Millisecond))
}

// probeStoreLoop writes a tiny probe blob until the store answers again,
// then exits degraded mode. One prober runs per degraded episode.
func (e *Engine) probeStoreLoop() {
	defer e.proberWG.Done()
	every := e.cfg.CheckpointInterval / 8
	if every < 5*time.Millisecond {
		every = 5 * time.Millisecond
	}
	if every > 250*time.Millisecond {
		every = 250 * time.Millisecond
	}
	ticker := time.NewTicker(every)
	defer ticker.Stop()
	for {
		select {
		case <-e.chaosStop:
			return
		case <-ticker.C:
		}
		if !e.degraded.Load() {
			return
		}
		if err := e.cfg.Store.Put(chaosProbeKey, []byte{1}); err == nil {
			e.exitDegraded()
			return
		}
	}
}

// ChaosStats is the engine's robustness accounting: retry/backoff
// counters, injected-fault counters, watchdog round abandonments and the
// degraded-mode ledger.
type ChaosStats struct {
	// Retry aggregates every operation run under the shared RetryPolicy.
	Retry chaos.RetryStats
	// Injected counts faults manufactured by the configured injector
	// (zero when no chaos plan is set).
	Injected chaos.InjectorStats
	// RoundsCompleted counts coordinated rounds that fully completed;
	// RoundsAbandoned counts rounds the watchdog gave up on.
	RoundsCompleted uint64
	RoundsAbandoned uint64
	// Degraded reports whether the engine is degraded right now.
	Degraded bool
	// DegradedEntries counts degraded-mode episodes.
	DegradedEntries uint64
	// DegradedTime is the total time spent degraded (including a still-
	// open episode).
	DegradedTime time.Duration
	// UploadsShed counts checkpoint uploads fast-failed while degraded.
	UploadsShed uint64
}

// ChaosStats snapshots the engine's robustness counters.
func (e *Engine) ChaosStats() ChaosStats {
	dt := time.Duration(e.degradedNanos.Load())
	if since := e.degradedSince.Load(); since != 0 {
		dt += time.Duration(time.Now().UnixNano() - since)
	}
	return ChaosStats{
		Retry:           e.retryCtr.Snapshot(),
		Injected:        e.cfg.Chaos.Stats(),
		RoundsCompleted: e.coord.completedRound.Load(),
		RoundsAbandoned: e.coord.roundsAbandoned.Load(),
		Degraded:        e.degraded.Load(),
		DegradedEntries: e.degradedEntries.Load(),
		DegradedTime:    dt,
		UploadsShed:     e.uploadsShed.Load(),
	}
}
