// Package metrics implements the measurements the paper defines in §V:
// end-to-end latency (per-second 50th and 99th percentiles), sustainable
// throughput accounting, average checkpointing time, restart and recovery
// time, invalid checkpoints, and message overhead.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Recorder collects all run-level measurements. It is shared by every
// component of a run (instances, coordinator, harness) and safe for
// concurrent use.
type Recorder struct {
	start time.Time

	timeline *Timeline

	// Byte accounting, split so overhead ratios can be computed.
	payloadBytes  atomic.Uint64 // serialized record payload + routing header
	protocolBytes atomic.Uint64 // piggybacked protocol state, markers, control

	// Message accounting. dataMessages counts records regardless of how
	// they were framed; batchesSent counts the wire frames that carried
	// them, split by what triggered the flush.
	dataMessages      atomic.Uint64
	markerMessages    atomic.Uint64
	watermarkMessages atomic.Uint64
	replayMessages    atomic.Uint64
	dupDropped        atomic.Uint64
	forcedCkpts       atomic.Uint64
	localCkpts        atomic.Uint64

	batchesSent     atomic.Uint64
	maxBatchRecords atomic.Uint64
	flushByReason   [numFlushReasons]atomic.Uint64

	// Checkpoint garbage collection.
	gcCkpts atomic.Uint64
	gcBytes atomic.Uint64

	// Keyed-state snapshot accounting: full (self-contained base) versus
	// delta (incremental) segments written by the state backend, their
	// byte volumes, and the longest base-plus-delta chain observed.
	fullKeyedCkpts  atomic.Uint64
	fullKeyedBytes  atomic.Uint64
	deltaKeyedCkpts atomic.Uint64
	deltaKeyedBytes atomic.Uint64
	maxChainLen     atomic.Uint64

	sinkCount atomic.Uint64

	mu             sync.Mutex
	ckptDurations  []time.Duration
	roundDurations []time.Duration
	restartTimes   []time.Duration
	recoveryTimes  []time.Duration
	rtos           []RTO
	totalCkpts     int
	invalidCkpts   int
	replayedOnRec  uint64
	rollbackDist   uint64
	failures       int
	notes          []string

	// Asynchronous-snapshot phase accounting: the synchronous capture pause
	// each checkpoint imposed on its processing goroutine, and the
	// off-thread materialize and upload durations.
	syncPauses     []time.Duration
	materializeDur []time.Duration
	uploadDur      []time.Duration
}

// NewRecorder returns a recorder; the timeline covers [0, horizon) split in
// one-second buckets (scaled by the run's time compression).
func NewRecorder(start time.Time, horizon, bucket time.Duration) *Recorder {
	return &Recorder{start: start, timeline: NewTimeline(horizon, bucket)}
}

// Start returns the run start time.
func (r *Recorder) Start() time.Time { return r.start }

// Timeline returns the latency timeline.
func (r *Recorder) Timeline() *Timeline { return r.timeline }

// RecordSinkLatency records one end-to-end latency observation at the sink.
// at is the absolute observation time; latency is observation − schedule.
func (r *Recorder) RecordSinkLatency(at time.Time, latency time.Duration) {
	r.sinkCount.Add(1)
	r.timeline.Record(at.Sub(r.start), latency)
}

// RecordSinkLatencySince is RecordSinkLatency for callers that already
// track time as an offset since run start — the engine hot path — sparing
// the absolute-time round trip per record.
func (r *Recorder) RecordSinkLatencySince(since, latency time.Duration) {
	r.sinkCount.Add(1)
	r.timeline.Record(since, latency)
}

// SinkCount reports the number of records that reached the sinks.
func (r *Recorder) SinkCount() uint64 { return r.sinkCount.Load() }

// AddPayloadBytes accounts bytes of record payloads put on the wire.
func (r *Recorder) AddPayloadBytes(n int) { r.payloadBytes.Add(uint64(n)) }

// AddProtocolBytes accounts bytes of protocol-related information put on the
// wire (piggybacks, markers, coordinator control traffic).
func (r *Recorder) AddProtocolBytes(n int) { r.protocolBytes.Add(uint64(n)) }

// PayloadBytes reports accumulated payload bytes.
func (r *Recorder) PayloadBytes() uint64 { return r.payloadBytes.Load() }

// ProtocolBytes reports accumulated protocol bytes.
func (r *Recorder) ProtocolBytes() uint64 { return r.protocolBytes.Load() }

// OverheadRatio reports (payload+protocol)/payload, the paper's Table II
// metric. It returns 1 when no payload bytes were recorded.
func (r *Recorder) OverheadRatio() float64 {
	p := float64(r.payloadBytes.Load())
	if p == 0 {
		return 1
	}
	return (p + float64(r.protocolBytes.Load())) / p
}

// IncDataMessages counts a data message crossing a channel.
func (r *Recorder) IncDataMessages() { r.dataMessages.Add(1) }

// AddDataMessages counts n data records crossing a channel (one batched
// wire frame can carry many).
func (r *Recorder) AddDataMessages(n int) { r.dataMessages.Add(uint64(n)) }

// FlushReason classifies what triggered the flush of an output batch.
type FlushReason uint8

// Flush reasons.
const (
	// FlushMaxRecords: the batch reached Batching.MaxRecords.
	FlushMaxRecords FlushReason = iota
	// FlushMaxBytes: the batch reached Batching.MaxBytes.
	FlushMaxBytes
	// FlushLinger: the batch aged past the linger bound (or the instance
	// went idle with records buffered).
	FlushLinger
	// FlushControl: a protocol event (checkpoint marker, watermark or
	// snapshot) forced the batch out to preserve ordering semantics.
	FlushControl
	numFlushReasons
)

// String names the flush reason.
func (f FlushReason) String() string {
	switch f {
	case FlushMaxRecords:
		return "records"
	case FlushMaxBytes:
		return "bytes"
	case FlushLinger:
		return "linger"
	case FlushControl:
		return "control"
	default:
		return "unknown"
	}
}

// AddBatchFlush accounts one flushed output batch: its record count and the
// reason it left the buffer. Call in addition to AddDataMessages.
func (r *Recorder) AddBatchFlush(records int, reason FlushReason) {
	r.batchesSent.Add(1)
	if reason < numFlushReasons {
		r.flushByReason[reason].Add(1)
	}
	for {
		cur := r.maxBatchRecords.Load()
		if uint64(records) <= cur || r.maxBatchRecords.CompareAndSwap(cur, uint64(records)) {
			return
		}
	}
}

// IncMarkerMessages counts a checkpoint marker crossing a channel.
func (r *Recorder) IncMarkerMessages() { r.markerMessages.Add(1) }

// IncWatermarkMessages counts one event-time watermark message.
func (r *Recorder) IncWatermarkMessages() { r.watermarkMessages.Add(1) }

// IncReplayMessages counts a message re-injected from the in-flight log.
func (r *Recorder) IncReplayMessages(n int) { r.replayMessages.Add(uint64(n)) }

// IncDupDropped counts a message dropped by deduplication.
func (r *Recorder) IncDupDropped() { r.dupDropped.Add(1) }

// DupDropped reports the messages dropped by deduplication so far (live
// gauge; the end-of-run value lands in Summary.DupDropped).
func (r *Recorder) DupDropped() uint64 { return r.dupDropped.Load() }

// AddGCReclaimed accounts checkpoints (and their bytes) deleted from the
// store by the checkpoint garbage collector.
func (r *Recorder) AddGCReclaimed(ckpts int, bytes uint64) {
	r.gcCkpts.Add(uint64(ckpts))
	r.gcBytes.Add(bytes)
}

// AddKeyedSnapshot accounts one keyed-state segment written into a
// checkpoint: its size and the length of the base-plus-delta chain it
// belongs to. A chain length of 1 is a self-contained full snapshot;
// longer chains mean the segment is an incremental delta on top of an
// earlier base. Checkpoints of instances without a keyed backend are not
// counted here.
func (r *Recorder) AddKeyedSnapshot(bytes, chainLen int) {
	if chainLen > 1 {
		r.deltaKeyedCkpts.Add(1)
		r.deltaKeyedBytes.Add(uint64(bytes))
	} else {
		r.fullKeyedCkpts.Add(1)
		r.fullKeyedBytes.Add(uint64(bytes))
	}
	for {
		cur := r.maxChainLen.Load()
		if uint64(chainLen) <= cur || r.maxChainLen.CompareAndSwap(cur, uint64(chainLen)) {
			return
		}
	}
}

// IncForcedCheckpoints counts a CIC forced checkpoint.
func (r *Recorder) IncForcedCheckpoints() { r.forcedCkpts.Add(1) }

// IncLocalCheckpoints counts a local (timer-driven) checkpoint.
func (r *Recorder) IncLocalCheckpoints() { r.localCkpts.Add(1) }

// RecordCheckpointDuration records the time one checkpoint took (local
// snapshot for UNC/CIC).
func (r *Recorder) RecordCheckpointDuration(d time.Duration) {
	r.mu.Lock()
	r.ckptDurations = append(r.ckptDurations, d)
	r.mu.Unlock()
}

// RecordSyncPause records the synchronous portion of one checkpoint: the
// time the processing goroutine was stalled capturing state (everything
// else — serialization, compression, upload — runs off-thread).
func (r *Recorder) RecordSyncPause(d time.Duration) {
	r.mu.Lock()
	r.syncPauses = append(r.syncPauses, d)
	r.mu.Unlock()
}

// RecordMaterializeDuration records the off-thread serialization time of
// one checkpoint (capture → blob bytes, including the keyed segment).
func (r *Recorder) RecordMaterializeDuration(d time.Duration) {
	r.mu.Lock()
	r.materializeDur = append(r.materializeDur, d)
	r.mu.Unlock()
}

// RecordUploadDuration records the store round-trip time of one checkpoint
// blob (compression and retries included).
func (r *Recorder) RecordUploadDuration(d time.Duration) {
	r.mu.Lock()
	r.uploadDur = append(r.uploadDur, d)
	r.mu.Unlock()
}

// RecordRoundDuration records a full coordinated round duration (COOR's
// checkpointing time).
func (r *Recorder) RecordRoundDuration(d time.Duration) {
	r.mu.Lock()
	r.roundDurations = append(r.roundDurations, d)
	r.mu.Unlock()
}

// RecordRestart records the restart time after a failure (detection → ready
// to process).
func (r *Recorder) RecordRestart(d time.Duration) {
	r.mu.Lock()
	r.restartTimes = append(r.restartTimes, d)
	r.failures++
	r.mu.Unlock()
}

// RecordRecovery records the recovery time after a failure (detection →
// caught up with the input schedule).
func (r *Recorder) RecordRecovery(d time.Duration) {
	r.mu.Lock()
	r.recoveryTimes = append(r.recoveryTimes, d)
	r.mu.Unlock()
}

// RTO is the phase breakdown of one recovery: the time from failure to
// caught-up, split along the recovery pipeline — detection (failure →
// detected), rollback computation (world teardown + recovery-line/rollback
// scope computation), state fetch (checkpoint download + restore decode),
// replay (in-flight log re-injection + restart), and catch-up (restart →
// source lag back under the threshold) — plus where the restored state came
// from (worker-local cache vs remote object store) and how far the rollback
// reached across the cluster.
type RTO struct {
	// Detect is the failure-detection latency (failure → detected).
	Detect time.Duration
	// Rollback covers world teardown and recovery-line computation.
	Rollback time.Duration
	// Fetch covers checkpoint state download and restore decoding.
	Fetch time.Duration
	// Replay covers in-flight log replay, channel-state re-injection and
	// the relaunch of the pipeline.
	Replay time.Duration
	// CatchUp is the time from restart until the sources caught up with
	// their arrival schedule. Zero until the recovery completes.
	CatchUp time.Duration
	// Total is failure → caught-up. Zero until the recovery completes.
	Total time.Duration

	// FailedWorkers are the cluster workers the failure took down.
	FailedWorkers []int
	// ScopeInstances counts the instances that restored checkpoint state;
	// ScopeWorkers counts the distinct workers hosting them — the
	// per-worker rollback scope of the failure.
	ScopeInstances int
	ScopeWorkers   int

	// RestoredBytes is the checkpoint blob volume restore consumed (in
	// persisted form); LocalBytes of it came from worker-local caches,
	// RemoteBytes from the object store. A cold recovery has
	// RemoteBytes == RestoredBytes; warm-cache recovery on surviving
	// workers fetches strictly less remotely for the same restored state.
	RestoredBytes uint64
	LocalBytes    uint64
	RemoteBytes   uint64
	// CacheHits / CacheMisses count worker-local cache lookups during the
	// state-fetch phase.
	CacheHits   uint64
	CacheMisses uint64
}

// RecordRTO registers the phase breakdown of a recovery in progress
// (CatchUp and Total still zero); CompleteRTO finalizes it once the
// pipeline caught up.
func (r *Recorder) RecordRTO(rto RTO) {
	r.mu.Lock()
	r.rtos = append(r.rtos, rto)
	r.mu.Unlock()
}

// CompleteRTO finalizes the most recent RTO: sinceDetect is the elapsed
// time from failure detection to caught-up (the classic recovery time), of
// which everything beyond the rollback/fetch/replay phases is catch-up.
func (r *Recorder) CompleteRTO(sinceDetect time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.rtos) == 0 {
		return
	}
	rto := &r.rtos[len(r.rtos)-1]
	rto.CatchUp = sinceDetect - rto.Rollback - rto.Fetch - rto.Replay
	if rto.CatchUp < 0 {
		rto.CatchUp = 0
	}
	rto.Total = rto.Detect + sinceDetect
}

// SetCheckpointAccounting records total/invalid checkpoint counts determined
// at recovery time (or end of run).
func (r *Recorder) SetCheckpointAccounting(total, invalid int) {
	r.mu.Lock()
	r.totalCkpts = total
	r.invalidCkpts = invalid
	r.mu.Unlock()
}

// AddReplayedOnRecovery accounts messages replayed during a recovery and the
// rollback distance (messages reprocessed from source rewind).
func (r *Recorder) AddReplayedOnRecovery(replayed, rollback uint64) {
	r.mu.Lock()
	r.replayedOnRec += replayed
	r.rollbackDist += rollback
	r.mu.Unlock()
}

// Note appends a free-form annotation carried into the summary.
func (r *Recorder) Note(format string, args ...any) {
	r.mu.Lock()
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
	r.mu.Unlock()
}

// Summary is an immutable snapshot of all measurements of a run.
type Summary struct {
	SinkCount      uint64
	PayloadBytes   uint64
	ProtocolBytes  uint64
	OverheadRatio  float64
	DataMessages   uint64
	MarkerMessages uint64
	// WatermarkMessages counts event-time watermark control messages.
	WatermarkMessages uint64
	ReplayMessages    uint64
	DupDropped        uint64
	ForcedCkpts       uint64
	LocalCkpts        uint64

	// BatchesSent counts the wire frames that carried the data records;
	// AvgBatchRecords is DataMessages/BatchesSent and MaxBatchRecords the
	// largest single flush. FlushRecords/FlushBytes/FlushLinger/FlushControl
	// split BatchesSent by flush trigger.
	BatchesSent     uint64
	AvgBatchRecords float64
	MaxBatchRecords uint64
	FlushRecords    uint64
	FlushBytes      uint64
	FlushLinger     uint64
	FlushControl    uint64

	AvgCheckpointTime time.Duration // protocol definition dependent
	AvgRoundTime      time.Duration
	RestartTime       time.Duration // last failure
	RecoveryTime      time.Duration // last failure; 0 if never recovered
	Recovered         bool
	Failures          int

	TotalCheckpoints   int
	InvalidCheckpoints int
	ReplayedOnRecovery uint64
	RollbackDistance   uint64

	// GCCheckpoints / GCBytes report checkpoints reclaimed from the store
	// by the garbage collector.
	GCCheckpoints uint64
	GCBytes       uint64

	// FullKeyedCkpts / DeltaKeyedCkpts count keyed-state segments written
	// by the state backend as full bases vs incremental deltas; the byte
	// counters hold their volumes. MaxChainLen is the longest
	// base-plus-delta chain any checkpoint spanned. Steady-state
	// DeltaKeyedBytes/DeltaKeyedCkpts versus FullKeyedBytes/FullKeyedCkpts
	// quantifies the incremental-checkpointing saving.
	FullKeyedCkpts  uint64
	FullKeyedBytes  uint64
	DeltaKeyedCkpts uint64
	DeltaKeyedBytes uint64
	MaxChainLen     uint64

	// Asynchronous-snapshot pause profile. SyncPauses counts recorded
	// checkpoint captures; Max/Mean/P99SyncPause characterize the stall the
	// record path paid per checkpoint, and MeanMaterialize/MeanUpload the
	// off-thread phases.
	SyncPauses      int
	MaxSyncPause    time.Duration
	MeanSyncPause   time.Duration
	P99SyncPause    time.Duration
	MeanMaterialize time.Duration
	MeanUpload      time.Duration

	// RTOs carries the phase breakdown of every recovery of the run, in
	// failure order (see RTO).
	RTOs []RTO

	// RoundPhases is the per-phase breakdown of the checkpoint lifecycle
	// (marker, align, capture, materialize, compress, upload, wal barrier,
	// meta, report, round), aggregated from the run's trace spans. Empty
	// when the run was not traced.
	RoundPhases []PhaseStat

	Timeline TimelineSummary
	Notes    []string
}

// PhaseStat aggregates the spans of one named lifecycle phase.
type PhaseStat struct {
	Name  string
	Count int
	Total time.Duration
	Max   time.Duration
}

// Mean is the average span duration of the phase (0 when Count is 0).
func (p PhaseStat) Mean() time.Duration {
	if p.Count == 0 {
		return 0
	}
	return p.Total / time.Duration(p.Count)
}

// Summarize computes the summary. coordinated selects whether the average
// checkpointing time is the round duration (COOR) or the local snapshot
// duration (UNC/CIC).
func (r *Recorder) Summarize(coordinated bool) Summary {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Summary{
		SinkCount:          r.sinkCount.Load(),
		PayloadBytes:       r.payloadBytes.Load(),
		ProtocolBytes:      r.protocolBytes.Load(),
		OverheadRatio:      r.overheadRatioLocked(),
		DataMessages:       r.dataMessages.Load(),
		MarkerMessages:     r.markerMessages.Load(),
		WatermarkMessages:  r.watermarkMessages.Load(),
		ReplayMessages:     r.replayMessages.Load(),
		DupDropped:         r.dupDropped.Load(),
		ForcedCkpts:        r.forcedCkpts.Load(),
		LocalCkpts:         r.localCkpts.Load(),
		BatchesSent:        r.batchesSent.Load(),
		MaxBatchRecords:    r.maxBatchRecords.Load(),
		FlushRecords:       r.flushByReason[FlushMaxRecords].Load(),
		FlushBytes:         r.flushByReason[FlushMaxBytes].Load(),
		FlushLinger:        r.flushByReason[FlushLinger].Load(),
		FlushControl:       r.flushByReason[FlushControl].Load(),
		AvgRoundTime:       avgDur(r.roundDurations),
		TotalCheckpoints:   r.totalCkpts,
		InvalidCheckpoints: r.invalidCkpts,
		ReplayedOnRecovery: r.replayedOnRec,
		RollbackDistance:   r.rollbackDist,
		GCCheckpoints:      r.gcCkpts.Load(),
		GCBytes:            r.gcBytes.Load(),
		FullKeyedCkpts:     r.fullKeyedCkpts.Load(),
		FullKeyedBytes:     r.fullKeyedBytes.Load(),
		DeltaKeyedCkpts:    r.deltaKeyedCkpts.Load(),
		DeltaKeyedBytes:    r.deltaKeyedBytes.Load(),
		MaxChainLen:        r.maxChainLen.Load(),
		Failures:           r.failures,
		RTOs:               append([]RTO(nil), r.rtos...),
		Timeline:           r.timeline.Summarize(),
		Notes:              append([]string(nil), r.notes...),
	}
	if s.BatchesSent > 0 {
		s.AvgBatchRecords = float64(s.DataMessages) / float64(s.BatchesSent)
	}
	if coordinated {
		s.AvgCheckpointTime = avgDur(r.roundDurations)
	} else {
		s.AvgCheckpointTime = avgDur(r.ckptDurations)
	}
	s.SyncPauses = len(r.syncPauses)
	if s.SyncPauses > 0 {
		s.MeanSyncPause = avgDur(r.syncPauses)
		for _, d := range r.syncPauses {
			if d > s.MaxSyncPause {
				s.MaxSyncPause = d
			}
		}
		s.P99SyncPause = Percentile(r.syncPauses, 0.99)
	}
	s.MeanMaterialize = avgDur(r.materializeDur)
	s.MeanUpload = avgDur(r.uploadDur)
	if n := len(r.restartTimes); n > 0 {
		s.RestartTime = r.restartTimes[n-1]
	}
	if n := len(r.recoveryTimes); n > 0 {
		s.RecoveryTime = r.recoveryTimes[n-1]
		s.Recovered = true
	}
	return s
}

func (r *Recorder) overheadRatioLocked() float64 {
	p := float64(r.payloadBytes.Load())
	if p == 0 {
		return 1
	}
	return (p + float64(r.protocolBytes.Load())) / p
}

func avgDur(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return sum / time.Duration(len(ds))
}

// Timeline buckets latency observations by time since run start and computes
// per-bucket percentiles, reproducing the per-second latency series of
// Figures 9 and 10. Each bucket keeps a capped reservoir of samples;
// percentiles are exact until the cap, then computed over a uniform sample.
type Timeline struct {
	bucket  time.Duration
	buckets []*reservoir
}

const reservoirCap = 4096

type reservoir struct {
	mu      sync.Mutex
	n       uint64
	samples []time.Duration
}

func (rv *reservoir) record(d time.Duration) {
	rv.mu.Lock()
	rv.n++
	if len(rv.samples) < reservoirCap {
		rv.samples = append(rv.samples, d)
	} else {
		// Uniform reservoir sampling (Vitter's Algorithm R) with a cheap
		// deterministic-ish index derived from the counter; adequate for
		// percentile estimation at this scale.
		idx := (rv.n * 2654435761) % uint64(reservoirCap)
		rv.samples[idx] = d
	}
	rv.mu.Unlock()
}

// NewTimeline creates a timeline covering [0, horizon) with the given bucket
// width.
func NewTimeline(horizon, bucket time.Duration) *Timeline {
	if bucket <= 0 {
		bucket = time.Second
	}
	n := int(horizon/bucket) + 1
	if n < 1 {
		n = 1
	}
	t := &Timeline{bucket: bucket, buckets: make([]*reservoir, n)}
	for i := range t.buckets {
		t.buckets[i] = &reservoir{}
	}
	return t
}

// Record adds one observation at the given offset since run start.
func (t *Timeline) Record(since time.Duration, latency time.Duration) {
	if since < 0 {
		since = 0
	}
	i := int(since / t.bucket)
	if i >= len(t.buckets) {
		i = len(t.buckets) - 1
	}
	t.buckets[i].record(latency)
}

// BucketWidth returns the bucket width.
func (t *Timeline) BucketWidth() time.Duration { return t.bucket }

// NumBuckets returns the number of buckets.
func (t *Timeline) NumBuckets() int { return len(t.buckets) }

// TimelinePoint is the percentile summary of one bucket.
type TimelinePoint struct {
	Start time.Duration
	Count uint64
	P50   time.Duration
	P99   time.Duration
}

// TimelineSummary is the full per-bucket series plus whole-run percentiles.
type TimelineSummary struct {
	Bucket time.Duration
	Points []TimelinePoint
	// Overall percentiles across all buckets (sample-weighted).
	P50, P99 time.Duration
}

// Summarize computes per-bucket and overall percentiles.
func (t *Timeline) Summarize() TimelineSummary {
	out := TimelineSummary{Bucket: t.bucket}
	var all []time.Duration
	for i, rv := range t.buckets {
		rv.mu.Lock()
		samples := append([]time.Duration(nil), rv.samples...)
		n := rv.n
		rv.mu.Unlock()
		if n == 0 {
			continue
		}
		sort.Slice(samples, func(a, b int) bool { return samples[a] < samples[b] })
		out.Points = append(out.Points, TimelinePoint{
			Start: time.Duration(i) * t.bucket,
			Count: n,
			P50:   pct(samples, 0.50),
			P99:   pct(samples, 0.99),
		})
		all = append(all, samples...)
	}
	if len(all) > 0 {
		sort.Slice(all, func(a, b int) bool { return all[a] < all[b] })
		out.P50 = pct(all, 0.50)
		out.P99 = pct(all, 0.99)
	}
	return out
}

// LastQuartileP50 returns the p50 over the last quarter of non-empty
// buckets, used by the sustainable-throughput verdict.
func (s TimelineSummary) LastQuartileP50() time.Duration {
	if len(s.Points) == 0 {
		return 0
	}
	start := len(s.Points) * 3 / 4
	var worst time.Duration
	for _, p := range s.Points[start:] {
		if p.P50 > worst {
			worst = p.P50
		}
	}
	return worst
}

func pct(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(math.Ceil(q*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// Percentile computes the q-quantile (0 < q <= 1) of ds without mutating it.
func Percentile(ds []time.Duration, q float64) time.Duration {
	cp := append([]time.Duration(nil), ds...)
	sort.Slice(cp, func(a, b int) bool { return cp[a] < cp[b] })
	return pct(cp, q)
}
