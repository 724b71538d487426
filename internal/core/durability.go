package core

import (
	"encoding/json"
	"fmt"

	"checkmate/internal/msglog"
	"checkmate/internal/recovery"
	"checkmate/internal/trace"
	"checkmate/internal/wal"
)

// The real durability tier. With Config.Durability enabled the engine's
// persistent state survives an actual process crash, not just the
// simulated worker failures of InjectFailure:
//
//   - checkpoint blobs live in a disk-backed object store (the caller
//     configures objstore.Config.Dir);
//   - every durable checkpoint's metadata is persisted as a JSON blob
//     next to it (under metaPrefix), so a fresh process can rediscover
//     the recovery line without any in-memory coordinator state;
//   - for the logging protocols, message-log appends tee through a
//     segmented WAL before they are acknowledged, so the in-flight
//     channel state a recovery line needs is on disk too. COOR never
//     logs messages and therefore pays only the object-store fsyncs —
//     exactly the cost asymmetry the paper's protocol comparison is
//     about.
//
// Engine.Start detects existing durable state and performs a cold
// restart: seed the coordinator from the persisted metadata, compute
// the recovery line, fetch blobs, rebuild the world, and replay
// in-flight messages from the recovered WAL — the same rollback path a
// live failure takes, minus a failed world to tear down.

// DurabilityConfig configures the filesystem durability tier.
type DurabilityConfig struct {
	// Enabled turns the tier on: checkpoint metadata is persisted to
	// the object store and, for logging protocols, message-log appends
	// go through the WAL. The object store itself is made durable by
	// the caller (objstore.Config.Dir) — the engine only requires that
	// durable metas it finds at startup refer to blobs that still exist.
	Enabled bool
	// WALDir is the directory for message-log WAL segments. Required
	// when Enabled and the protocol logs messages (UNC/CIC).
	WALDir string
	// Sync selects the WAL sync policy. Default wal.SyncGroup.
	Sync wal.SyncPolicy
	// MaxSegmentBytes rotates WAL segments. Default 4 MiB.
	MaxSegmentBytes int64
}

// metaPrefix is the object-store key prefix under which checkpoint
// metadata blobs are persisted (checkpoint blobs live under "ckpt/").
const metaPrefix = "meta/"

// openDurableLog opens the WAL-backed message log when the
// configuration calls for one.
func (e *Engine) openDurableLog() error {
	d := e.cfg.Durability
	if !d.Enabled || !e.logging {
		return nil
	}
	if d.WALDir == "" {
		return fmt.Errorf("core: Durability.WALDir is required for logging protocol %s", e.cfg.Protocol.Name())
	}
	dl, err := msglog.OpenDurable(d.WALDir, wal.Options{
		MaxSegmentSize: d.MaxSegmentBytes,
		Policy:         d.Sync,
		Trace:          e.cfg.Trace.NewTrack("wal", trace.PIDEngine),
		FsyncDelay:     e.cfg.Chaos.FsyncDelay,
	}, sliceBatchEnvelope)
	if err != nil {
		return fmt.Errorf("core: open durable message log: %w", err)
	}
	e.dlog = dl
	e.log = dl
	return nil
}

// persistMeta writes a checkpoint's metadata blob next to its state
// blob. Called by the uploader after the state blob is durable and
// before the coordinator learns about the checkpoint, so every meta
// blob on disk refers to a blob that exists.
func (e *Engine) persistMeta(m recovery.Meta) error {
	data, err := json.Marshal(m)
	if err != nil {
		return err
	}
	return e.retry.Do("meta.put", func() error {
		return e.cfg.Store.Put(metaPrefix+m.SelfKey(), data)
	})
}

// dropMeta removes a checkpoint's persisted metadata blob (GC, or
// rollback invalidation).
func (e *Engine) dropMeta(selfKey string) {
	if e.cfg.Durability.Enabled {
		e.cfg.Store.Delete(metaPrefix + selfKey)
	}
}

// loadDurableMetas reads the persisted checkpoint metadata back from
// the object store, keeping only metas whose entire blob chain still
// exists — a meta whose chain lost a segment (partial GC, torn store)
// can never be restored and must not anchor the cold-start line.
func (e *Engine) loadDurableMetas() []recovery.Meta {
	store := e.cfg.Store
	existing := make(map[string]bool)
	for _, k := range store.List("ckpt/") {
		existing[k] = true
	}
	var metas []recovery.Meta
	for _, mk := range store.List(metaPrefix) {
		data, err := store.Get(mk)
		if err != nil {
			continue
		}
		var m recovery.Meta
		if json.Unmarshal(data, &m) != nil || m.Ref.Seq == 0 || len(m.StoreKeys) == 0 {
			store.Delete(mk) // unreadable or vacuous: never restorable
			continue
		}
		usable := true
		for _, k := range m.StoreKeys {
			if !existing[k] {
				usable = false
				break
			}
		}
		if !usable {
			store.Delete(mk)
			continue
		}
		metas = append(metas, m)
	}
	return metas
}

// coldStart attempts to restore the first world from durable on-disk
// state. Returns (nil, nil) when there is nothing to restore — the
// caller then builds a fresh world. Called under e.mu from Start.
func (e *Engine) coldStart() (*world, error) {
	metas := e.loadDurableMetas()
	if len(metas) == 0 {
		return nil, nil
	}
	e.coord.seedFromDurable(metas)
	line, acct, lineMetas := e.coord.lineForRecovery()
	restorable := false
	for _, ref := range line {
		if ref.Seq > 0 {
			restorable = true
			break
		}
	}
	if !restorable {
		return nil, nil
	}
	acct.set = true
	e.acct = acct
	rec := e.cfg.Recorder
	rec.SetCheckpointAccounting(acct.total, acct.invalid)
	// Purge metadata the line invalidates — exactly what a live
	// recovery does after rollback; here the "failure" was the previous
	// process exiting.
	e.coord.resetAfterFailure(line)
	blobs, _, err := e.fetchBlobs(line, lineMetas)
	if err != nil {
		return nil, fmt.Errorf("core: cold restart fetch: %w", err)
	}
	w, err := e.buildWorld(line, blobs)
	if err != nil {
		return nil, fmt.Errorf("core: cold restart rebuild: %w", err)
	}
	restored := 0
	for _, it := range w.instances {
		if it.spec.Source != nil {
			e.volatileOffsets[it.gid].Store(it.offset)
		}
		if ref := line[it.gid]; ref.Seq > 0 {
			restored++
		}
	}
	var replayed uint64
	if e.logging {
		replayed = e.replayInFlight(w, line, lineMetas)
	}
	for _, it := range w.instances {
		var injected int
		for _, c := range it.pendingInject {
			it.in.force(c.queue, c.data, c.count)
			replayed += uint64(c.count)
			injected += c.count
		}
		if injected > 0 {
			rec.IncReplayMessages(injected)
			it.pendingInject = nil
		}
	}
	rec.Note("cold restart: %d instances restored from durable checkpoints, %d in-flight records replayed", restored, replayed)
	return w, nil
}

// Kill tears the engine down as a crash would: no final WAL flush, no
// output commit, no end-of-run accounting. The world's goroutines are
// still joined (a Go test cannot leak them), which models a crash
// boundary falling after the records currently in flight — any
// checkpoint upload that completes before the boundary is durable,
// exactly as if the process had died a moment later.
func (e *Engine) Kill() {
	e.mu.Lock()
	if e.stopped {
		e.mu.Unlock()
		return
	}
	e.stopped = true
	w := e.world
	e.mu.Unlock()
	if w != nil {
		e.stopWorld(w)
	}
	if e.dlog != nil {
		e.dlog.CrashClose()
	}
}

// WALStats exposes the message-log WAL counters (zero when the engine
// runs without a durable log).
func (e *Engine) WALStats() wal.Stats {
	if e.dlog != nil {
		return e.dlog.WALStats()
	}
	return wal.Stats{}
}

// seedFromDurable rebuilds the coordinator's view from metadata
// recovered off disk, as if every checkpoint had just been reported.
// Called once, before the first world starts — nothing runs
// concurrently.
func (c *coordinator) seedFromDurable(metas []recovery.Meta) {
	for _, m := range metas {
		sh := c.shardOf(m.Ref.Instance)
		sh.mu.Lock()
		sh.metas = append(sh.metas, m)
		// Chain existence was verified against the store by the loader,
		// so the whole chain is durable — not just the self key.
		for _, k := range m.StoreKeys {
			sh.durable[k] = true
		}
		sh.mu.Unlock()
	}
	if c.eng.cfg.Protocol.Kind() != KindCoordinated {
		return
	}
	byRound := make(map[uint64][]recovery.Meta)
	for _, m := range metas {
		if m.Round > 0 {
			byRound[m.Round] = append(byRound[m.Round], m)
		}
	}
	var completed uint64
	for r, ms := range byRound {
		rs := c.round(r)
		rs.metas = ms
		rs.reports = len(ms)
		if len(ms) == c.eng.total && r > completed {
			completed = r
		}
	}
	c.completedRound.Store(completed)
	c.resolvedRound.Store(completed)
	c.mu.Lock()
	c.initiatedRound = completed
	c.mu.Unlock()
}
