package core

import (
	"sync"
	"sync/atomic"
	"time"

	"checkmate/internal/recovery"
	"checkmate/internal/trace"
)

// coordinator plays the role of the paper's coordinator node: it schedules
// coordinated checkpoint rounds, receives checkpoint metadata from all
// instances, periodically computes the current recovery line to trim the
// in-flight logs, and produces the line used for rollback after a failure.
//
// Reports arrive concurrently from the per-worker uploader goroutines, so
// the hot accumulation state is sharded along the cluster topology: each
// cluster worker owns a metaShard (its instances' metadata and durable-key
// set — one uploader per worker means a shard's writer never contends), and
// each coordinated round accumulates in its own roundState. The global mu is
// taken only at round resolution, garbage collection, line computation, and
// failure reset — never on the per-report fast path.
type coordinator struct {
	eng *Engine

	// shards holds reported metadata partitioned by the cluster worker of
	// the reporting instance. A meta's StoreKeys always reference blobs of
	// its own instance's chain, so durability lookups for a checkpoint
	// resolve entirely within the owning instance's shard.
	shards []metaShard

	// rounds accumulates coordinated-round reports; roundsMu guards only
	// the map (get-or-create and purge), not the per-round accumulation.
	roundsMu sync.Mutex
	rounds   map[uint64]*roundState

	// completedRound is the newest fully-reported coordinated round whose
	// blob chains are all durable — the newest round recovery can use.
	// resolvedRound is the newest fully-reported round regardless of chain
	// durability; it gates round initiation so an undurable round (an
	// abandoned chain segment) does not stall checkpointing forever.
	// Atomics: read lock-free by round initiation, GC, and accounting;
	// written only under mu (round resolution and failure reset).
	completedRound atomic.Uint64
	resolvedRound  atomic.Uint64

	// roundsAbandoned counts rounds the watchdog gave up on (stalled past
	// roundDeadlineIntervals checkpoint intervals without resolving).
	roundsAbandoned atomic.Uint64

	mu sync.Mutex
	// initiatedRound is the newest round whose markers were injected.
	initiatedRound uint64
	lastInitiate   time.Time
	// gcDone marks checkpoints already deleted by the garbage collector.
	gcDone map[recovery.CkptRef]bool

	// tk is the coordinator trace track (nil when tracing is off). Round
	// spans are recorded under mu at resolution, so the track is
	// effectively single-writer.
	tk *trace.Track
}

// metaShard is one cluster worker's slice of the reported metadata. durable
// indexes the self keys of the shard's metas — maintained incrementally on
// report instead of rebuilt over all metas per durability check, which was
// the coordinator's real serialization hotspot.
type metaShard struct {
	mu      sync.Mutex
	metas   []recovery.Meta
	durable map[string]bool
	_       [24]byte // keep neighbouring shards off one cache line
}

// roundState accumulates one coordinated round's reports.
type roundState struct {
	mu      sync.Mutex
	metas   []recovery.Meta
	reports int
	start   time.Time
	// startNS mirrors start on the tracer's run clock (0 when tracing is
	// off), anchoring the round's resolution span.
	startNS int64
}

func newCoordinator(eng *Engine) *coordinator {
	c := &coordinator{
		eng:    eng,
		shards: make([]metaShard, eng.topo.Workers()),
		rounds: make(map[uint64]*roundState),
		gcDone: make(map[recovery.CkptRef]bool),
	}
	for i := range c.shards {
		c.shards[i].durable = make(map[string]bool)
	}
	c.tk = eng.cfg.Trace.NewTrack("coordinator", trace.PIDEngine)
	return c
}

// shardOf returns the metaShard owning the given instance's metadata,
// following the cluster placement (one uploader goroutine per worker feeds
// exactly one shard).
func (c *coordinator) shardOf(gid int) *metaShard {
	return &c.shards[c.eng.topo.WorkerOf(gid)]
}

// round returns the accumulation state for a coordinated round.
func (c *coordinator) round(r uint64) *roundState {
	c.roundsMu.Lock()
	rs, ok := c.rounds[r]
	if !ok {
		rs = &roundState{}
		c.rounds[r] = rs
	}
	c.roundsMu.Unlock()
	return rs
}

// metaWireSize approximates the encoded size of a checkpoint-metadata
// report, charged as protocol bytes (the paper: "the uncoordinated protocol
// requires the operators to send the metadata of every checkpoint they take
// to the coordinator"). Incremental checkpoints report their whole blob-ref
// chain, so longer chains cost proportionally more metadata.
func metaWireSize(m *recovery.Meta) int {
	n := 24 + 12*(len(m.SentUpTo)+len(m.RecvUpTo))
	for _, k := range m.StoreKeys {
		n += len(k) + 2
	}
	return n
}

// report registers a durable checkpoint. Called concurrently from the
// per-worker upload goroutines; the fast path touches only the reporting
// worker's shard (and, for coordinated rounds, the round's own state) —
// the coordinator-wide mu is taken by the single reporter that completes a
// round, for the resolution itself.
func (c *coordinator) report(m recovery.Meta, dur time.Duration) {
	rec := c.eng.cfg.Recorder
	rec.AddProtocolBytes(metaWireSize(&m))

	sh := c.shardOf(m.Ref.Instance)
	sh.mu.Lock()
	sh.metas = append(sh.metas, m)
	sh.durable[m.SelfKey()] = true
	sh.mu.Unlock()

	switch c.eng.cfg.Protocol.Kind() {
	case KindCoordinated:
		rs := c.round(m.Round)
		rs.mu.Lock()
		rs.metas = append(rs.metas, m)
		rs.reports++
		complete := rs.reports == c.eng.total
		var roundMetas []recovery.Meta
		var start time.Time
		var startNS int64
		if complete {
			roundMetas = append([]recovery.Meta(nil), rs.metas...)
			start = rs.start
			startNS = rs.startNS
		}
		rs.mu.Unlock()
		if complete {
			c.resolveRound(m.Round, roundMetas, start, startNS)
		}
	case KindUncoordinated, KindCIC:
		rec.RecordCheckpointDuration(dur)
	}
}

// resolveRound runs once per coordinated round, by the reporter that
// delivered the round's final report. All of the round's shard and durable
// insertions happened-before that reporter observed the full count, so the
// durability check sees every key the round depends on.
func (c *coordinator) resolveRound(round uint64, metas []recovery.Meta, start time.Time, startNS int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if round > c.resolvedRound.Load() {
		c.resolvedRound.Store(round)
	}
	if !start.IsZero() {
		c.eng.cfg.Recorder.RecordRoundDuration(time.Since(start))
		// The full-round span: marker injection to last durable report.
		// Rounds never overlap (initiation waits for resolution), so these
		// spans are disjoint on the coordinator track.
		c.tk.SpanAt("ckpt.round", round, uint64(len(metas)), startNS, c.eng.cfg.Trace.Now())
	}
	// The round only becomes the recovery anchor if every blob its chains
	// reference is durable; a round leaning on an abandoned chain segment
	// could never be restored. The next round's fresh full bases
	// (abandonChainBlob) will complete normally.
	if round > c.completedRound.Load() && c.roundChainsDurable(metas) {
		c.completedRound.Store(round)
		// A completed round is durable at every instance: its epoch's
		// transactional output commits.
		c.eng.output.commitAll(round, c.eng.nowNS())
	}
}

// isDurable reports whether the blob key, owned by the given instance's
// chain, is known to be in the object store.
func (c *coordinator) isDurable(instance int, key string) bool {
	sh := c.shardOf(instance)
	sh.mu.Lock()
	ok := sh.durable[key]
	sh.mu.Unlock()
	return ok
}

// roundChainsDurable reports whether every chain segment referenced by the
// given round's checkpoints is durable.
func (c *coordinator) roundChainsDurable(metas []recovery.Meta) bool {
	for _, m := range metas {
		for _, k := range m.StoreKeys {
			if !c.isDurable(m.Ref.Instance, k) {
				return false
			}
		}
	}
	return true
}

// allMetas returns a copy of all reported metadata, gathered shard by shard.
func (c *coordinator) allMetas() []recovery.Meta {
	var all []recovery.Meta
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		all = append(all, sh.metas...)
		sh.mu.Unlock()
	}
	return all
}

// usableMetas returns the reported metadata whose blob chains are fully
// durable. A checkpoint whose chain references an abandoned upload can
// never be restored, so it must not anchor recovery lines, log trimming, or
// output commits. Off the report fast path (trim/GC/recovery cadence only).
func (c *coordinator) usableMetas() []recovery.Meta {
	all := c.allMetas()
	usable := make([]recovery.Meta, 0, len(all))
	for _, m := range all {
		ok := true
		for _, k := range m.StoreKeys {
			if !c.isDurable(m.Ref.Instance, k) {
				ok = false
				break
			}
		}
		if ok {
			usable = append(usable, m)
		}
	}
	return usable
}

// run is the coordinator loop: round scheduling and log trimming.
func (c *coordinator) run(w *world) {
	defer w.wg.Done()
	kind := c.eng.cfg.Protocol.Kind()
	ticker := time.NewTicker(c.eng.cfg.PollInterval)
	defer ticker.Stop()
	lastTrim := time.Now()
	for {
		select {
		case <-w.stopCh:
			return
		case <-ticker.C:
		}
		switch {
		case kind == KindCoordinated:
			c.watchdog()
			c.maybeStartRound(w)
			if c.eng.cfg.CheckpointGC && time.Since(lastTrim) >= c.eng.cfg.CheckpointInterval {
				lastTrim = time.Now()
				c.gcCoordinated()
			}
		case kind.NeedsLogging():
			if time.Since(lastTrim) >= c.eng.cfg.CheckpointInterval {
				lastTrim = time.Now()
				c.trimLogs()
			}
		}
	}
}

// roundMetaView snapshots every round's accumulated metadata.
func (c *coordinator) roundMetaView() map[uint64][]recovery.Meta {
	c.roundsMu.Lock()
	rounds := make(map[uint64]*roundState, len(c.rounds))
	for r, rs := range c.rounds {
		rounds[r] = rs
	}
	c.roundsMu.Unlock()
	view := make(map[uint64][]recovery.Meta, len(rounds))
	for r, rs := range rounds {
		rs.mu.Lock()
		view[r] = append([]recovery.Meta(nil), rs.metas...)
		rs.mu.Unlock()
	}
	return view
}

// gcCoordinated deletes the checkpoints of rounds strictly older than the
// newest completed round: a completed round is always a newer valid
// recovery line, so older rounds can never be used again. Blobs still
// serving as chain segments (base or intermediate delta) of a retained
// round's incremental checkpoint are kept until the chain compacts past
// them.
func (c *coordinator) gcCoordinated() {
	view := c.roundMetaView()
	c.mu.Lock()
	completed := c.completedRound.Load()
	retained := make(map[string]bool)
	for round, metas := range view {
		if round < completed {
			continue
		}
		for _, m := range metas {
			for _, k := range m.StoreKeys {
				retained[k] = true
			}
		}
	}
	var victims []recovery.Meta
	for round, metas := range view {
		if round >= completed {
			continue
		}
		for _, m := range metas {
			if !c.gcDone[m.Ref] && !retained[m.SelfKey()] {
				c.gcDone[m.Ref] = true
				victims = append(victims, m)
			}
		}
	}
	c.mu.Unlock()
	c.deleteBlobs(victims)
}

// gcAgainstLine deletes every reported checkpoint strictly older than the
// given recovery line whose blob is no longer referenced by any retained
// checkpoint's chain. Safe for UNC/CIC because the maximal consistent line
// is monotone as checkpoints accumulate; superseded chain segments (bases
// and deltas older than the line checkpoint's own chain) are reclaimed as
// soon as the line's chains stop referencing them.
func (c *coordinator) gcAgainstLine(line recovery.Line, metas []recovery.Meta) {
	c.mu.Lock()
	retained := make(map[string]bool)
	for _, m := range metas {
		ref, ok := line[m.Ref.Instance]
		if !ok || m.Ref.Seq >= ref.Seq {
			for _, k := range m.StoreKeys {
				retained[k] = true
			}
		}
	}
	var victims []recovery.Meta
	for _, m := range metas {
		ref, ok := line[m.Ref.Instance]
		if ok && m.Ref.Seq < ref.Seq && !c.gcDone[m.Ref] && !retained[m.SelfKey()] {
			c.gcDone[m.Ref] = true
			victims = append(victims, m)
		}
	}
	c.mu.Unlock()
	c.deleteBlobs(victims)
}

// deleteBlobs removes checkpoint blobs from the store and accounts the
// reclaimed space.
func (c *coordinator) deleteBlobs(victims []recovery.Meta) {
	if len(victims) == 0 {
		return
	}
	var bytes uint64
	for _, m := range victims {
		bytes += uint64(c.eng.cfg.Store.Delete(m.SelfKey()))
		// A GC'd checkpoint must not be rediscovered by a cold restart.
		c.eng.dropMeta(m.SelfKey())
		if c.eng.cache != nil {
			// A blob deleted from the store must not linger in worker
			// memory either, or a later recovery could restore state the
			// garbage collector already declared unreachable.
			c.eng.cache.Drop(m.SelfKey())
		}
	}
	c.eng.cfg.Recorder.AddGCReclaimed(len(victims), bytes)
}

// watchdog abandons a coordinated round stalled past
// roundDeadlineIntervals checkpoint intervals.
// Reports only happen on successful durable upload, so a round whose
// uploads were all abandoned (store outage) never resolves — and since
// rounds never overlap, initiation would stall forever. The watchdog marks
// such a round resolved (initiation moves on) but never completed (an
// unresolvable round must not anchor recovery or commit output); a late
// report for it is still harmless, resolution is monotone.
func (c *coordinator) watchdog() {
	deadline := roundDeadlineIntervals * c.eng.cfg.CheckpointInterval
	c.mu.Lock()
	var round uint64
	if c.initiatedRound > c.resolvedRound.Load() && !c.lastInitiate.IsZero() &&
		time.Since(c.lastInitiate) > deadline {
		round = c.initiatedRound
		c.resolvedRound.Store(round)
	}
	c.mu.Unlock()
	if round != 0 {
		c.roundsAbandoned.Add(1)
		c.eng.cfg.Recorder.Note("round %d abandoned by watchdog: unresolved after %v", round, deadline)
	}
}

// maybeStartRound initiates the next coordinated round once the interval
// elapsed and the previous round completed (rounds never overlap, as in
// Flink's default configuration). Suspended while the engine is degraded —
// a round started during a store outage could only be abandoned.
func (c *coordinator) maybeStartRound(w *world) {
	if c.eng.degraded.Load() {
		return
	}
	c.mu.Lock()
	due := time.Since(c.lastInitiate) >= c.eng.cfg.CheckpointInterval
	idle := c.initiatedRound == c.resolvedRound.Load()
	var round uint64
	if due && idle {
		c.initiatedRound++
		round = c.initiatedRound
		rs := c.round(round)
		rs.start = time.Now()
		rs.startNS = c.eng.cfg.Trace.Now()
		c.lastInitiate = time.Now()
	}
	c.mu.Unlock()
	if round == 0 {
		return
	}
	rec := c.eng.cfg.Recorder
	for _, it := range w.instances {
		if it.spec.Source == nil {
			continue
		}
		rec.AddProtocolBytes(16) // coordinator -> worker control message
		select {
		case it.ctl <- round:
		case <-w.stopCh:
			return
		}
	}
}

// trimLogs computes the current recovery line and discards in-flight log
// prefixes that can never be replayed again. Safe because the maximal
// consistent line is monotone as checkpoints accumulate.
func (c *coordinator) trimLogs() {
	metas := c.usableMetas()
	res := recovery.FindLine(c.eng.total, c.eng.channels, metas)
	for _, ch := range c.eng.channels {
		if ref := res.Line[ch.To]; ref.Seq > 0 {
			frontier := recvFrontier(metas, ref, ch.ID)
			if frontier > 0 {
				c.eng.log.Trim(ch.ID, frontier)
			}
		}
	}
	// The maximal consistent line is monotone: checkpoints it covers can
	// never roll back, so their epochs' transactional output commits.
	c.eng.output.commitLine(res.Line, c.eng.nowNS())
	if c.eng.cfg.CheckpointGC {
		c.gcAgainstLine(res.Line, metas)
	}
}

func recvFrontier(metas []recovery.Meta, ref recovery.CkptRef, ch uint64) uint64 {
	for i := range metas {
		if metas[i].Ref == ref {
			return metas[i].RecvUpTo[ch]
		}
	}
	return 0
}

// resetAfterFailure clears checkpoint state that a rollback to `line`
// invalidates. For the coordinated protocol the round in flight at failure
// time can never complete (its markers died with the world), so it is
// abandoned and round initiation resumes from the last completed round —
// without this, maybeStartRound's no-overlapping-rounds guard would
// stall checkpointing forever after the first failure. For the logging
// protocols, metadata of checkpoints newer than the line is purged: the
// restored instances re-use those sequence numbers, and keeping the stale
// entries would double-count invalid checkpoints and shadow fresh
// metadata.
//
// Called after the world stopped and the upload queues drained: no report
// runs concurrently, so the shards can be rebuilt wholesale.
func (c *coordinator) resetAfterFailure(line recovery.Line) {
	c.mu.Lock()
	defer c.mu.Unlock()
	completed := c.completedRound.Load()
	c.roundsMu.Lock()
	for round := range c.rounds {
		if round > completed {
			delete(c.rounds, round)
		}
	}
	c.roundsMu.Unlock()
	c.initiatedRound = completed
	c.resolvedRound.Store(completed)
	// Trigger the next round promptly after the restart, as production
	// systems do after a restore.
	c.lastInitiate = time.Time{}

	var purgedKeys []string
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		keep := sh.metas[:0]
		for _, m := range sh.metas {
			if ref, ok := line[m.Ref.Instance]; !ok || m.Ref.Seq <= ref.Seq {
				keep = append(keep, m)
			} else if c.eng.cfg.Durability.Enabled {
				purgedKeys = append(purgedKeys, m.SelfKey())
			}
		}
		sh.metas = keep
		sh.durable = make(map[string]bool, len(keep))
		for _, m := range keep {
			sh.durable[m.SelfKey()] = true
		}
		sh.mu.Unlock()
	}
	// Rollback invalidated these checkpoints; their persisted metadata
	// must not seed a later cold restart. (The restarted instances
	// re-use the sequence numbers, so a stale meta would shadow the
	// fresh checkpoint's meta blob under the same key.)
	for _, k := range purgedKeys {
		c.eng.dropMeta(k)
	}
}

// snapshotMetas returns a copy of all reported metadata.
func (c *coordinator) snapshotMetas() []recovery.Meta {
	return c.allMetas()
}

// lineForRecovery computes the protocol-appropriate recovery line together
// with checkpoint accounting.
func (c *coordinator) lineForRecovery() (recovery.Line, accounting, []recovery.Meta) {
	kind := c.eng.cfg.Protocol.Kind()
	switch kind {
	case KindCoordinated:
		completed := c.completedRound.Load()
		line := make(recovery.Line, c.eng.total)
		for gid := 0; gid < c.eng.total; gid++ {
			line[gid] = recovery.CkptRef{Instance: gid, Seq: 0}
		}
		var lineMetas []recovery.Meta
		if completed > 0 {
			rs := c.round(completed)
			rs.mu.Lock()
			for _, m := range rs.metas {
				line[m.Ref.Instance] = m.Ref
				lineMetas = append(lineMetas, m)
			}
			rs.mu.Unlock()
		}
		acct := accounting{total: int(completed) * c.eng.total, invalid: 0}
		return line, acct, lineMetas
	case KindUncoordinated, KindCIC:
		metas := c.usableMetas()
		res := recovery.FindLine(c.eng.total, c.eng.channels, metas)
		return res.Line, accounting{total: res.Total, invalid: res.Invalid}, metas
	default:
		return nil, accounting{}, nil
	}
}

// finalCommitOutput flushes every committable transactional epoch when the
// run ends, so the consumer-visible output reflects all completed rounds
// (COOR) or the final stable recovery line (UNC/CIC). Called after the
// world stopped: no instance is appending concurrently.
func (c *coordinator) finalCommitOutput() {
	if c.eng.output.mode != OutputTransactional {
		return
	}
	kind := c.eng.cfg.Protocol.Kind()
	switch {
	case kind == KindCoordinated:
		c.eng.output.commitAll(c.completedRound.Load(), c.eng.nowNS())
	case kind.NeedsLogging():
		res := recovery.FindLine(c.eng.total, c.eng.channels, c.usableMetas())
		c.eng.output.commitLine(res.Line, c.eng.nowNS())
	}
}

// endOfRunAccounting produces Table III style accounting when no failure
// occurred during the run.
func (c *coordinator) endOfRunAccounting() accounting {
	kind := c.eng.cfg.Protocol.Kind()
	if kind == KindCoordinated {
		return accounting{total: int(c.completedRound.Load()) * c.eng.total, invalid: 0}
	}
	res := recovery.FindLine(c.eng.total, c.eng.channels, c.usableMetas())
	return accounting{total: res.Total, invalid: res.Invalid}
}

// accounting carries the Table III counters.
type accounting struct {
	total   int
	invalid int
	set     bool
}
