package core

import (
	"fmt"
	"hash/crc32"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"checkmate/internal/chaos"
	"checkmate/internal/cluster"
	"checkmate/internal/dedup"
	"checkmate/internal/metrics"
	"checkmate/internal/mq"
	"checkmate/internal/msglog"
	"checkmate/internal/objstore"
	"checkmate/internal/recovery"
	"checkmate/internal/statestore"
	"checkmate/internal/trace"
	"checkmate/internal/wire"
)

// Config parameterizes an Engine.
type Config struct {
	// Workers is the default parallelism (one worker hosts one parallel
	// instance of every operator, as in the paper's deployment).
	Workers int
	// CPUs pins runtime.GOMAXPROCS when the engine starts, making the
	// cores axis an explicit experiment knob instead of whatever the
	// process inherited. 0 leaves the runtime setting untouched. The
	// setting is process-global; harness layers that sweep the cores axis
	// restore the previous value around each run.
	CPUs int
	// Protocol is the checkpointing protocol under evaluation.
	Protocol Protocol
	// CheckpointInterval is the nominal interval between checkpoints
	// (coordinated round period; local interval base for UNC/CIC).
	CheckpointInterval time.Duration
	// ChannelCap bounds each inter-instance queue (records). Determines
	// backpressure depth.
	ChannelCap int
	// FeedbackCap bounds feedback-edge queues. Much larger than ChannelCap
	// to avoid cyclic-backpressure deadlocks.
	FeedbackCap int
	// Broker provides source topics.
	Broker *mq.Broker
	// Store persists checkpoints.
	Store *objstore.Store
	// Recorder collects metrics.
	Recorder *metrics.Recorder
	// DetectionDelay is the failure-detection latency.
	DetectionDelay time.Duration
	// DedupCap bounds the per-instance UID dedup ring (UNC/CIC).
	DedupCap int
	// PollInterval is the idle-poll resolution for timers and local
	// checkpoint triggers.
	PollInterval time.Duration
	// CatchUpLag is the source lag threshold under which the system counts
	// as recovered after a failure.
	CatchUpLag time.Duration
	// NetWorkFactor adds synthetic per-byte network cost (checksum passes
	// over each envelope), calibrating how strongly message size impacts
	// throughput. 0 disables.
	NetWorkFactor int
	// Semantics selects the processing guarantee for the logging protocols
	// (UNC/CIC); see the Semantics type. Defaults to ExactlyOnce.
	Semantics Semantics
	// StragglerDelay injects synthetic per-event processing delay into
	// every non-source instance hosted on StragglerWorker, simulating a
	// straggling worker (slow node, noisy neighbour) independent of data
	// skew. 0 disables.
	StragglerDelay time.Duration
	// StragglerWorker selects the straggling worker when StragglerDelay is
	// set: a cluster worker id in [0, Cluster.Workers), folded into the
	// cluster if out of range. Which instances straggle follows from the
	// placement policy — every non-source instance the topology hosts on
	// that worker, and only those. (Before the cluster model this knob was
	// applied as StragglerWorker mod parallelism per operator, which
	// silently straggled a different instance index in operators whose
	// parallelism differed from the worker count.)
	StragglerWorker int
	// Cluster configures the simulated cluster topology: how many workers
	// host the operator instances, the placement policy mapping instances
	// to workers, and the worker-local state cache consulted before the
	// object store when instances restore checkpoint state. The zero value
	// spreads instances over Workers workers (one worker per unit of
	// default parallelism, reproducing the legacy deployment model) with
	// the cache disabled.
	Cluster cluster.Config
	// WatermarkInterval enables event-time watermarks: every source emits
	// a watermark (its maximum extracted event time minus WatermarkLag) on
	// all output channels at this period, and every operator tracks the
	// minimum across its inputs, forwarding on advancement. 0 (default)
	// disables watermark flow entirely.
	WatermarkInterval time.Duration
	// WatermarkLag is the out-of-orderness bound subtracted from the
	// maximum observed event time when generating source watermarks.
	WatermarkLag time.Duration
	// Output selects how sink output is exposed to the external consumer:
	// not at all (default), immediately (duplicates possible after
	// failures), or transactionally (exactly-once output via epoch
	// commit). Transactional output requires a checkpointing protocol and,
	// for the logging protocols, exactly-once semantics.
	Output OutputMode
	// CompressCheckpoints deflates checkpoint blobs before upload and
	// inflates them on restore, trading CPU in the (asynchronous) upload
	// path for object-store bytes — the state-backend knob incremental
	// snapshots complement.
	CompressCheckpoints bool
	// CheckpointGC enables checkpoint garbage collection: blobs strictly
	// older than the globally stable recovery line (UNC/CIC) or the newest
	// completed round (COOR) are deleted from the store, except blobs still
	// referenced as base or delta segments by a retained checkpoint's
	// chain. Safe because the maximal consistent line is monotone as
	// checkpoints accumulate. The paper motivates this: invalid and
	// superseded checkpoints occupy expensive storage that will never be
	// used.
	CheckpointGC bool
	// DeltaCheckpoints persists the keyed state backend of KeyedStateUser
	// operators incrementally: each checkpoint uploads only the keys
	// changed since the previous one, with a full base snapshot taken per
	// ChainPolicy. Recovery composes the base-plus-delta chain. Frequent
	// checkpoints then pay for state churn instead of total state size —
	// the dominant synchronous-snapshot cost the paper measures.
	DeltaCheckpoints bool
	// ChainPolicy tunes base-vs-delta compaction when DeltaCheckpoints is
	// set. The zero value selects statestore.DefaultChainPolicy.
	ChainPolicy statestore.ChainPolicy
	// StateSpill enables the spillable keyed-state backend: each
	// KeyedStateUser instance's store keeps a bounded in-memory overlay
	// over mmap'd on-disk segments, so keyed state larger than memory
	// stays runnable and restore maps fetched checkpoint blobs instead of
	// decoding them. See statestore.NewSpilling.
	StateSpill StateSpillConfig
	// Batching configures the vectorized exchange: records crossing a
	// channel are staged in per-channel output buffers and shipped as one
	// batch envelope sharing the routing header. The zero value defaults to
	// MaxRecords=1, which preserves the unbatched engine's per-message
	// interleavings exactly.
	Batching BatchingConfig
	// Durability configures the real filesystem durability tier:
	// persisted checkpoint metadata (cold restart) and, for the logging
	// protocols, a WAL behind the message log. See durability.go.
	Durability DurabilityConfig
	// Trace, when non-nil, collects the checkpoint lifecycle as spans:
	// marker injection, per-channel alignment waits, sync capture,
	// materialize/compress/upload, the WAL barrier, metadata persistence,
	// coordinator reporting and round resolution, plus recovery's RTO
	// phases and WAL fsync batches. A nil tracer costs nothing on the
	// record path (every tracing call is a no-op on a nil track).
	Trace *trace.Tracer
	// Seed derives per-instance jitter.
	Seed int64
	// Chaos, when non-nil, is the deterministic fault plane: its windows
	// (store brownouts/outages/latency spikes, WAL fsync stalls, exchange
	// delay) are armed relative to Start. The engine consults it for WAL
	// stalls and exchange shaping; plug the same injector into the object
	// store via objstore.Config.Fault. Nil injects nothing.
	Chaos *chaos.Injector
	// Retry shapes the shared store retry policy every store-facing
	// operation (checkpoint uploads, metadata writes, recovery fetches)
	// runs under. Zero fields keep the defaults: 4 attempts, 1ms base
	// delay doubling to a 100ms cap, +-50% jitter, no deadline or budget.
	Retry RetryConfig
	// RoundDeadline is the coordinator round watchdog: a coordinated round
	// still unresolved this long after initiation is abandoned (marked
	// resolved but never completed) so checkpointing can move on — without
	// it, a round whose uploads were all abandoned would stall round
	// initiation forever. <= 0 defaults to 3x CheckpointInterval.
	RoundDeadline time.Duration
}

// RetryConfig tunes the engine's shared chaos.RetryPolicy without exposing
// its non-copyable internals through Config.
type RetryConfig struct {
	// MaxAttempts bounds tries per operation (<=0 defaults to 4).
	MaxAttempts int
	// BaseDelay is the first backoff sleep (<=0 defaults to 1ms).
	BaseDelay time.Duration
	// MaxDelay caps the exponential growth (<=0 defaults to 100ms).
	MaxDelay time.Duration
	// OpDeadline caps one operation's total wall-clock time across
	// retries. 0 disables.
	OpDeadline time.Duration
	// BudgetTokens/BudgetRefillPerSec, when BudgetTokens > 0, bound total
	// retries across all operations with a token bucket, so a dead store
	// fails fast instead of being hammered.
	BudgetTokens       float64
	BudgetRefillPerSec float64
}

// StateSpillConfig selects and budgets the spillable keyed-state backend.
type StateSpillConfig struct {
	// Enabled switches KeyedStateUser instances from the resident map
	// backend to the spillable backend.
	Enabled bool
	// Dir is the root directory for segment files; each instance gets a
	// per-generation subdirectory. Required when Enabled.
	Dir string
	// MaxResidentBytes / MaxOverlayEntries bound each instance's in-memory
	// overlay (<= 0 selects the statestore defaults).
	MaxResidentBytes  int
	MaxOverlayEntries int
}

// BatchingConfig is the flush policy of the vectorized exchange. A batch is
// flushed as soon as it holds MaxRecords records or MaxBytes encoded bytes,
// when it has lingered for LingerTicks poll intervals of virtual time, or —
// regardless of the policy — whenever a checkpoint marker, watermark or
// state snapshot requires the channel to be drained to keep protocol
// semantics identical at every batch size.
type BatchingConfig struct {
	// MaxRecords bounds the records per batch envelope. <= 0 defaults to 1
	// (batching effectively off: every record ships immediately).
	MaxRecords int
	// MaxBytes bounds the encoded record bytes per batch envelope.
	// <= 0 defaults to 32 KiB.
	MaxBytes int
	// LingerTicks bounds how long a non-full batch may wait, measured in
	// poll intervals of virtual time. <= 0 defaults to 1.
	LingerTicks int
}

func (c *Config) applyDefaults() {
	if c.ChannelCap <= 0 {
		c.ChannelCap = 128
	}
	if c.FeedbackCap <= 0 {
		c.FeedbackCap = 1 << 16
	}
	if c.CheckpointInterval <= 0 {
		c.CheckpointInterval = 500 * time.Millisecond
	}
	if c.DetectionDelay <= 0 {
		c.DetectionDelay = 50 * time.Millisecond
	}
	if c.DedupCap <= 0 {
		// The coordinator computes exact replay ranges, so the UID ring is
		// a safety net against over-replay; it only needs to cover the
		// in-flight window of a channel, not the full history.
		c.DedupCap = 1 << 14
	}
	if c.PollInterval <= 0 {
		c.PollInterval = 2 * time.Millisecond
	}
	if c.CatchUpLag <= 0 {
		c.CatchUpLag = 150 * time.Millisecond
	}
	if c.DeltaCheckpoints && c.ChainPolicy == (statestore.ChainPolicy{}) {
		c.ChainPolicy = statestore.DefaultChainPolicy()
	}
	if c.Batching.MaxRecords <= 0 {
		c.Batching.MaxRecords = 1
	}
	if c.Batching.MaxBytes <= 0 {
		c.Batching.MaxBytes = 32 << 10
	}
	if c.Batching.LingerTicks <= 0 {
		c.Batching.LingerTicks = 1
	}
	if c.RoundDeadline <= 0 {
		c.RoundDeadline = 3 * c.CheckpointInterval
	}
}

// world is one generation of running goroutines. A failure tears the whole
// world down; recovery builds a fresh one from durable state.
type world struct {
	gen       int
	stopCh    chan struct{}
	wg        sync.WaitGroup
	uploadWG  sync.WaitGroup
	instances []*instance
	// up holds one checkpoint uploader queue per cluster worker; each
	// instance's checkpoints materialize and upload FIFO on its worker's
	// uploader goroutine (see uploader.go).
	up []*uploadQueue
	// upTracks are the uploader goroutines' trace tracks (nil entries
	// when tracing is off).
	upTracks []*trace.Track
	stopOnce sync.Once
}

// Engine executes one job under one protocol. Build with NewEngine, then
// Start; inject failures with InjectFailure; Stop tears everything down and
// finalizes accounting.
type Engine struct {
	cfg  Config
	job  *JobSpec
	par  []int
	base []int
	// total is the number of operator instances (global ids 0..total-1).
	total int
	// topo places every instance on a cluster worker; cache is the
	// worker-local state cache (nil unless Cluster.LocalCache).
	topo      *cluster.Topology
	cache     *cluster.Cache
	logging   bool
	exactOnce bool
	unaligned bool
	channels  []recovery.ChannelInfo
	// inChansByGID / outChansByGID are the static wiring tables.
	inChansByGID  [][]inChan
	outChansByGID [][]outChan
	outEdgesByGID [][]outEdge
	// queueIdx maps channelKey -> receiver's local queue index.
	queueIdx map[uint64]int

	// log is the message log behind the Backend seam: the in-memory Log
	// by default, a WAL-backed DurableLog (dlog non-nil) when the
	// durability tier is on.
	log    msglog.Backend
	dlog   *msglog.DurableLog
	coord  *coordinator
	output *outputCollector
	start  time.Time
	// lingerNS is the batch linger bound (Batching.LingerTicks poll
	// intervals) in virtual-time nanoseconds.
	lingerNS int64

	volatileOffsets []atomic.Uint64

	mu      sync.Mutex
	world   *world
	gen     int
	stopped bool
	acct    accounting
	// savepoint, when set via ApplySavepoint, initializes the first world.
	savepoint *Savepoint
	// recovering guards against overlapping recoveries.
	recovering bool
	sinkGoal   uint64

	// recTrack carries the recovery RTO phases when tracing (nil
	// otherwise; recording on a nil track is a no-op).
	recTrack *trace.Track

	// retry is the shared store retry policy: checkpoint uploads, metadata
	// writes and recovery blob fetches all run under it, accumulating into
	// retryCtr. retryTrack carries one span per backoff sleep when tracing.
	retry      *chaos.RetryPolicy
	retryCtr   chaos.RetryCounters
	retryTrack *trace.Track

	// Degraded mode: entered when a store operation exhausts its retries
	// (sustained outage), the engine keeps draining records with
	// checkpointing suspended; a prober goroutine watches the store and on
	// recovery resumes checkpointing with forced fresh full bases.
	degraded        atomic.Bool
	degradedSince   atomic.Int64 // unix nanos of the current entry, 0 when healthy
	degradedNanos   atomic.Int64 // cumulative time of completed degraded episodes
	degradedEntries atomic.Uint64
	uploadsShed     atomic.Uint64 // uploads fast-failed while degraded
	proberWG        sync.WaitGroup
	chaosStop       chan struct{}
}

// NewEngine validates the job and builds the wiring tables.
func NewEngine(cfg Config, job *JobSpec) (*Engine, error) {
	cfg.applyDefaults()
	if cfg.Protocol == nil {
		return nil, fmt.Errorf("core: no protocol configured")
	}
	if cfg.Broker == nil || cfg.Store == nil || cfg.Recorder == nil {
		return nil, fmt.Errorf("core: broker, store and recorder are required")
	}
	par, err := job.Validate(cfg.Workers)
	if err != nil {
		return nil, err
	}
	unaligned := false
	if ua, ok := cfg.Protocol.(interface{ Unaligned() bool }); ok {
		unaligned = ua.Unaligned()
	}
	if cfg.Protocol.Kind().NeedsAlignment() && !unaligned && job.IsCyclic() {
		return nil, fmt.Errorf("core: the coordinated aligned protocol cannot handle cyclic dataflows (job %q): a marker on the feedback edge would deadlock", job.Name)
	}
	kind := cfg.Protocol.Kind()
	if cfg.Output == OutputTransactional {
		if kind == KindNone {
			return nil, fmt.Errorf("core: transactional output requires a checkpointing protocol")
		}
		if kind.NeedsLogging() && cfg.Semantics != ExactlyOnce {
			return nil, fmt.Errorf("core: transactional output under %s requires exactly-once semantics, got %s", kind, cfg.Semantics)
		}
	}
	e := &Engine{
		cfg:       cfg,
		job:       job,
		par:       par,
		logging:   kind.NeedsLogging() && cfg.Semantics != AtMostOnce,
		exactOnce: kind.NeedsLogging() && cfg.Semantics == ExactlyOnce,
		unaligned: unaligned,
		log:       msglog.NewWithSlicer(sliceBatchEnvelope),
		output:    newOutputCollector(cfg.Output),
		lingerNS:  int64(cfg.Batching.LingerTicks) * cfg.PollInterval.Nanoseconds(),
		chaosStop: make(chan struct{}),
	}
	e.recTrack = cfg.Trace.NewTrack("recovery", trace.PIDEngine)
	e.retryTrack = cfg.Trace.NewTrack("retry", trace.PIDEngine)
	e.retry = e.buildRetryPolicy()
	if err := e.openDurableLog(); err != nil {
		return nil, err
	}
	e.base = make([]int, len(job.Ops))
	for i := range job.Ops {
		e.base[i] = e.total
		e.total += par[i]
	}
	ops := make([]cluster.OpInfo, len(job.Ops))
	for i := range job.Ops {
		ops[i] = cluster.OpInfo{Name: job.Ops[i].Name, Parallelism: par[i]}
	}
	e.topo, err = cluster.New(cfg.Cluster, cfg.Workers, ops)
	if err != nil {
		return nil, err
	}
	if cfg.Cluster.LocalCache {
		e.cache = cluster.NewCache(e.topo.Workers())
	}
	e.volatileOffsets = make([]atomic.Uint64, e.total)
	e.buildWiring()
	e.coord = newCoordinator(e)
	return e, nil
}

// gidOf returns the global instance id of (op, idx).
func (e *Engine) gidOf(op, idx int) int { return e.base[op] + idx }

// buildWiring computes the static channel tables.
func (e *Engine) buildWiring() {
	e.inChansByGID = make([][]inChan, e.total)
	e.outChansByGID = make([][]outChan, e.total)
	e.outEdgesByGID = make([][]outEdge, e.total)
	e.queueIdx = make(map[uint64]int)

	for ei, edge := range e.job.Edges {
		pf, pt := e.par[edge.From], e.par[edge.To]
		for i := 0; i < pf; i++ {
			fromGID := e.gidOf(edge.From, i)
			var targets []int
			switch edge.Part {
			case Forward:
				targets = []int{i}
			case Hash, Broadcast:
				targets = make([]int, pt)
				for j := range targets {
					targets[j] = j
				}
			}
			oe := outEdge{edge: ei, part: edge.Part}
			for _, j := range targets {
				toGID := e.gidOf(edge.To, j)
				key := channelKey(ei, i, j)
				queue := len(e.inChansByGID[toGID])
				e.inChansByGID[toGID] = append(e.inChansByGID[toGID], inChan{key: key, edge: ei, fromGID: fromGID})
				e.queueIdx[key] = queue
				oe.targets = append(oe.targets, len(e.outChansByGID[fromGID]))
				e.outChansByGID[fromGID] = append(e.outChansByGID[fromGID], outChan{
					key: key, edge: ei, toGID: toGID, toIdx: j, toQueue: queue,
				})
				e.channels = append(e.channels, recovery.ChannelInfo{ID: key, From: fromGID, To: toGID})
			}
			e.outEdgesByGID[fromGID] = append(e.outEdgesByGID[fromGID], oe)
		}
	}
}

// nowNS reports nanoseconds since run start.
func (e *Engine) nowNS() int64 { return time.Since(e.start).Nanoseconds() }

// Start launches the job.
func (e *Engine) Start() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.world != nil {
		return fmt.Errorf("core: engine already started")
	}
	if e.cfg.CPUs > 0 {
		runtime.GOMAXPROCS(e.cfg.CPUs)
	}
	e.start = time.Now()
	// Fault windows are offsets from engine start (first Arm wins, so a
	// restart within one run does not shift the schedule).
	e.cfg.Chaos.Arm()
	var (
		w   *world
		err error
	)
	if e.cfg.Durability.Enabled {
		// Cold restart: if a previous process left durable checkpoints
		// (and, for logging protocols, WAL segments) behind, restore
		// from them instead of starting fresh.
		w, err = e.coldStart()
		if err != nil {
			return err
		}
	}
	if w == nil {
		w, err = e.buildWorld(nil, nil)
		if err != nil {
			return err
		}
	}
	e.world = w
	e.launch(w)
	return nil
}

// buildWorld constructs a fresh generation. line/blobs restore state when
// recovering (nil on first start or gap recovery); each instance's blobs
// form its checkpoint chain, oldest first.
func (e *Engine) buildWorld(line recovery.Line, blobs map[int][][]byte) (*world, error) {
	e.gen++
	w := &world{gen: e.gen, stopCh: make(chan struct{}), instances: make([]*instance, e.total)}
	w.up = make([]*uploadQueue, e.topo.Workers())
	for i := range w.up {
		w.up[i] = newUploadQueue()
	}
	if e.cfg.Trace.Enabled() {
		w.upTracks = make([]*trace.Track, len(w.up))
		for i := range w.upTracks {
			w.upTracks[i] = e.cfg.Trace.NewTrack(fmt.Sprintf("uploader w%d g%d", i, w.gen), i)
		}
	}
	kind := e.cfg.Protocol.Kind()
	for op := range e.job.Ops {
		spec := &e.job.Ops[op]
		for idx := 0; idx < e.par[op]; idx++ {
			gid := e.gidOf(op, idx)
			it := &instance{
				eng:      e,
				w:        w,
				gid:      gid,
				op:       op,
				idx:      idx,
				worker:   e.topo.WorkerOf(gid),
				spec:     spec,
				inChans:  e.inChansByGID[gid],
				outChans: e.outChansByGID[gid],
				outEdges: e.outEdgesByGID[gid],
				timerAt:  -1,
				enc:      wire.NewEncoder(make([]byte, 0, 512)),
				piggyEnc: wire.NewEncoder(make([]byte, 0, 128)),
			}
			it.sentSeq = make([]uint64, len(it.outChans))
			it.recvSeq = make([]uint64, len(it.inChans))
			if e.cfg.Trace.Enabled() {
				it.tt = e.cfg.Trace.NewTrack(fmt.Sprintf("%s[%d] g%d", spec.Name, idx, w.gen), it.worker)
				it.alignT0 = make([]int64, len(it.inChans))
			}
			// Store-key prefix with room for the sequence digits, so the
			// snapshot path builds keys without fmt.
			it.keyBuf = append(make([]byte, 0, 64), "ckpt/"...)
			it.keyBuf = append(it.keyBuf, e.job.Name...)
			it.keyBuf = append(it.keyBuf, '/')
			it.keyBuf = append(it.keyBuf, spec.Name...)
			it.keyBuf = append(it.keyBuf, '/')
			it.keyBuf = strconv.AppendInt(it.keyBuf, int64(idx), 10)
			it.keyBuf = append(it.keyBuf, '/')
			it.outBufs = make([]outBuf, len(it.outChans))
			for i := range it.outBufs {
				it.outBufs[i].recs = wire.NewEncoder(make([]byte, 0, 256))
			}
			it.curWM = noWatermark
			it.maxEventNS = noWatermark
			it.lastWMSent = noWatermark
			it.chanWM = make([]int64, len(it.inChans))
			for i := range it.chanWM {
				it.chanWM[i] = noWatermark
			}
			if spec.Source != nil {
				it.ctl = make(chan uint64, 4)
			} else {
				it.oper = spec.New(idx)
				if _, ok := it.oper.(KeyedStateUser); ok {
					if e.cfg.StateSpill.Enabled {
						scfg := statestore.SpillConfig{
							// Per-generation directories keep a rebuilt
							// world's segments disjoint from a dying world's
							// still-pinned ones.
							Dir: filepath.Join(e.cfg.StateSpill.Dir,
								fmt.Sprintf("g%d-%s-%d", w.gen, spec.Name, idx)),
							MaxResidentBytes:  e.cfg.StateSpill.MaxResidentBytes,
							MaxOverlayEntries: e.cfg.StateSpill.MaxOverlayEntries,
							Track:             it.tt,
						}
						if e.cfg.Trace.Enabled() {
							scfg.CompactTrack = e.cfg.Trace.NewTrack(
								fmt.Sprintf("%s[%d] compact g%d", spec.Name, idx, w.gen), it.worker)
						}
						kv, err := statestore.NewSpilling(scfg)
						if err != nil {
							return nil, fmt.Errorf("core: spill backend for %s[%d]: %w", spec.Name, idx, err)
						}
						it.kv = kv
					} else {
						it.kv = statestore.New()
					}
					if e.cfg.DeltaCheckpoints {
						// A fresh chain starts with a full snapshot, so a
						// rebuilt world never emits deltas against blobs
						// that predate its own first checkpoint. Streaming:
						// blobs live in the object store, not in memory.
						it.kvChain = statestore.NewStreamingChain(e.cfg.ChainPolicy)
					}
				}
				caps := make([]int, len(it.inChans))
				for i, ic := range it.inChans {
					if e.job.Edges[ic.edge].Feedback {
						caps[i] = e.cfg.FeedbackCap
					} else {
						caps[i] = e.cfg.ChannelCap
					}
				}
				it.in = newInbox(caps)
				it.alignGot = make([]bool, len(it.inChans))
			}
			interval := e.cfg.CheckpointInterval
			if spec.CheckpointInterval > 0 && kind != KindCoordinated {
				interval = spec.CheckpointInterval
			}
			it.ctrl = e.cfg.Protocol.NewController(gid, e.total, interval, e.cfg.Seed+int64(gid))
			if e.exactOnce {
				it.dedup = dedup.NewSet(e.cfg.DedupCap)
			}
			if e.cfg.StragglerDelay > 0 && spec.Source == nil && it.worker == e.topo.Normalize(e.cfg.StragglerWorker) {
				it.stragglerNS = e.cfg.StragglerDelay.Nanoseconds()
			}
			if line != nil {
				if ref := line[gid]; ref.Seq > 0 {
					chain, ok := blobs[gid]
					if !ok {
						return nil, fmt.Errorf("core: missing checkpoint blobs for %s[%d] %v", spec.Name, idx, ref)
					}
					if err := it.restore(chain); err != nil {
						return nil, err
					}
				}
			}
			if line == nil && blobs == nil && kind == KindNone && e.gen > 1 {
				// Gap recovery: resume sources from their volatile offsets.
				it.offset = e.volatileOffsets[gid].Load()
			}
			w.instances[gid] = it
		}
	}
	if e.savepoint != nil && e.gen == 1 {
		if err := e.applySavepointLocked(w); err != nil {
			return nil, err
		}
	}
	return w, nil
}

// launch starts all goroutines of a world.
func (e *Engine) launch(w *world) {
	for i, q := range w.up {
		w.uploadWG.Add(1)
		var tk *trace.Track
		if w.upTracks != nil {
			tk = w.upTracks[i]
		}
		go w.runUploader(q, tk)
	}
	for _, it := range w.instances {
		w.wg.Add(1)
		if it.spec.Source != nil {
			part := e.partitionFor(it)
			go it.runSource(part)
		} else {
			go it.run()
		}
	}
	w.wg.Add(1)
	go e.coord.run(w)
}

// partitionFor adapts the broker partition of a source instance.
func (e *Engine) partitionFor(it *instance) sourcePartition {
	topic, err := e.cfg.Broker.Topic(it.spec.Source.Topic)
	if err != nil {
		panic(fmt.Sprintf("core: source %s[%d]: %v", it.spec.Name, it.idx, err))
	}
	if it.idx >= len(topic.Partitions) {
		panic(fmt.Sprintf("core: source %s[%d]: topic %q has only %d partitions",
			it.spec.Name, it.idx, topic.Name, len(topic.Partitions)))
	}
	return &brokerPartition{p: topic.Partition(it.idx)}
}

type brokerPartition struct {
	p *mq.Partition
	// scratch is reused across ReadBatch calls; each source instance owns
	// its partition adapter, so no synchronization is needed.
	scratch []mq.Record
}

func (bp *brokerPartition) Read(offset uint64) (sourceRecord, bool) {
	r, ok := bp.p.Read(offset)
	if !ok {
		return sourceRecord{}, false
	}
	return sourceRecord{Offset: r.Offset, ScheduleNS: r.ScheduleNS, Key: r.Key, Value: r.Value}, true
}

func (bp *brokerPartition) ReadBatch(dst []sourceRecord, offset uint64, max int) []sourceRecord {
	bp.scratch = bp.p.ReadBatch(bp.scratch[:0], offset, max)
	for _, r := range bp.scratch {
		dst = append(dst, sourceRecord{Offset: r.Offset, ScheduleNS: r.ScheduleNS, Key: r.Key, Value: r.Value})
	}
	return dst
}

// stopWorld tears down a world and waits for all of its goroutines,
// including pending checkpoint materializations and uploads: the uploader
// queues close only after every instance goroutine exited (no producer
// left), then drain fully — so checkpoints captured before a failure still
// become durable and reportable before the recovery line is computed,
// exactly as the per-checkpoint upload goroutines behaved.
func (e *Engine) stopWorld(w *world) {
	w.stopOnce.Do(func() {
		close(w.stopCh)
		for _, it := range w.instances {
			if it.in != nil {
				it.in.close()
			}
		}
	})
	w.wg.Wait()
	for _, q := range w.up {
		q.close()
	}
	w.uploadWG.Wait()
}

// closeStores releases a stopped world's keyed-state backends: for
// spillable stores this stops the compactor and unmaps/deletes segment
// files. Only safe after stopWorld (uploads drained, so no capture pins a
// store), and only once the world's state will never be read again — the
// recovery path closes the replaced world; the final world is closed by
// Engine.Close, not Stop, so ExportSavepoint can still read it.
func (w *world) closeStores() {
	for _, it := range w.instances {
		if it.kv != nil {
			it.kv.Close()
		}
	}
}

// InjectFailure simulates the crash of one cluster worker: all instances
// the placement hosts on it die immediately; the coordinator detects the
// failure after the configured detection delay and performs a rollback.
// The worker id is folded into the cluster if out of range.
func (e *Engine) InjectFailure(worker int) { e.InjectWorkerFailure(worker) }

// InjectWorkerFailure simulates the simultaneous crash of one or more
// cluster workers — a correlated failure domain (shared rack, switch or
// power domain) when more than one is given. Every instance hosted on a
// failed worker dies immediately and the worker's local state cache is
// invalidated (its memory is gone); recovery then restores the protocol's
// rollback line, fetching state from surviving workers' caches where
// possible. A failure hitting only empty workers (no hosted instances) is
// a no-op.
func (e *Engine) InjectWorkerFailure(workers ...int) {
	if len(workers) == 0 {
		return
	}
	failed := make(map[int]bool, len(workers))
	for _, w := range workers {
		failed[e.topo.Normalize(w)] = true
	}

	e.mu.Lock()
	w := e.world
	if w == nil || e.stopped || e.recovering {
		e.mu.Unlock()
		return
	}
	e.recovering = true
	e.mu.Unlock()

	killed := 0
	for _, it := range w.instances {
		if failed[it.worker] {
			it.dead.Store(true)
			if it.in != nil {
				it.in.close()
			}
			killed++
		}
	}
	if killed == 0 {
		e.cfg.Recorder.Note("failure of empty worker(s) %v: no instances hosted, nothing to recover", workers)
		e.mu.Lock()
		e.recovering = false
		e.mu.Unlock()
		return
	}
	failedWorkers := make([]int, 0, len(failed))
	for fw := range failed {
		failedWorkers = append(failedWorkers, fw)
	}
	sort.Ints(failedWorkers)
	if e.cache != nil {
		for _, fw := range failedWorkers {
			e.cache.Invalidate(fw)
		}
	}
	failedAt := time.Now()
	detectAt := failedAt.Add(e.cfg.DetectionDelay)
	go func() {
		time.Sleep(time.Until(detectAt))
		e.recover(failedAt, detectAt, failedWorkers, w)
	}()
}

// recover performs the rollback: stop the world, compute the protocol's
// recovery line, restore all instances from durable checkpoints (worker-
// local cache first, object store on miss), re-inject in-flight messages
// from the logs, and restart. Each phase is timed into the RTO breakdown.
func (e *Engine) recover(failedAt, detectAt time.Time, failedWorkers []int, failedWorld *world) {
	rec := e.cfg.Recorder
	rto := metrics.RTO{
		Detect:        detectAt.Sub(failedAt),
		FailedWorkers: failedWorkers,
	}
	phase := time.Now()
	e.stopWorld(failedWorld)
	// The dead world's in-flight uploads have drained now; wipe anything
	// they cached onto the failed workers after the first invalidation —
	// the restarted worker processes must not remember those blobs.
	if e.cache != nil {
		for _, fw := range failedWorkers {
			e.cache.Invalidate(fw)
		}
	}

	e.mu.Lock()
	if e.stopped || e.world != failedWorld {
		e.recovering = false
		e.mu.Unlock()
		return
	}
	e.mu.Unlock()

	// The failed world is being permanently replaced: release its
	// keyed-state backends (compactor goroutines, mmap'd segment files).
	// The new world restores from durable checkpoint blobs, never from the
	// dead world's stores.
	failedWorld.closeStores()

	kind := e.cfg.Protocol.Kind()
	var (
		w   *world
		err error
	)
	var replayed uint64
	if kind == KindNone {
		rec.Note("gap recovery: all operator state lost (at-most-once)")
		rto.Rollback = time.Since(phase)
		phase = time.Now()
		w, err = e.buildWorld(nil, nil)
		rto.Fetch = time.Since(phase)
		phase = time.Now()
	} else {
		line, acct, metas := e.coord.lineForRecovery()
		acct.set = true
		e.mu.Lock()
		e.acct = acct
		e.mu.Unlock()
		rec.SetCheckpointAccounting(acct.total, acct.invalid)
		// Resolve buffered transactional output against the rollback line:
		// durable epochs flush, newer ones are discarded (replay will
		// regenerate them).
		e.output.rollback(line, e.nowNS())
		// Abandon the round in flight (COOR) and purge checkpoint metadata
		// the rollback invalidated (UNC/CIC).
		e.coord.resetAfterFailure(line)
		// Rollback scope, grouped by hosting worker: which part of the
		// cluster the failure actually reaches.
		var scope []recovery.ScopeEntry
		for gid, ref := range line {
			if ref.Seq > 0 {
				scope = append(scope, recovery.ScopeEntry{Instance: gid})
			}
		}
		byWorker := recovery.WorkerScope(scope, e.topo.WorkerOf)
		rto.ScopeInstances = len(scope)
		rto.ScopeWorkers = len(byWorker)
		rto.Rollback = time.Since(phase)
		phase = time.Now()

		blobs, acctFetch, ferr := e.fetchBlobs(line, metas)
		rto.RestoredBytes = acctFetch.restored
		rto.LocalBytes = acctFetch.local
		rto.RemoteBytes = acctFetch.remote
		rto.CacheHits = acctFetch.hits
		rto.CacheMisses = acctFetch.misses
		if ferr == nil {
			w, err = e.buildWorld(line, blobs)
		} else {
			err = ferr
		}
		rto.Fetch = time.Since(phase)
		phase = time.Now()
		if err == nil {
			var rollback uint64
			for _, it := range w.instances {
				if it.spec.Source != nil {
					cur := e.volatileOffsets[it.gid].Load()
					if cur > it.offset {
						rollback += cur - it.offset
					}
					e.volatileOffsets[it.gid].Store(it.offset)
				}
			}
			if e.logging {
				replayed = e.replayInFlight(w, line, metas)
			}
			// Unaligned checkpoints carry their in-flight channel state in
			// the blobs; re-inject it before the instances start.
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
			rec.AddReplayedOnRecovery(replayed, rollback)
		}
	}
	if err != nil {
		rec.Note("recovery failed: %v", err)
		e.mu.Lock()
		e.recovering = false
		e.mu.Unlock()
		return
	}

	e.mu.Lock()
	e.world = w
	e.recovering = false
	stopped := e.stopped
	e.mu.Unlock()
	if stopped {
		return
	}
	e.launch(w)
	rto.Replay = time.Since(phase)
	rec.RecordRTO(rto)
	rec.RecordRestart(time.Since(detectAt))
	// The RTO phases land on the recovery track as one back-to-back span
	// sequence (each phase starts where the previous ended), tagged with
	// the new world generation.
	var catchStart int64
	if tk := e.recTrack; tk != nil {
		gen := uint64(w.gen)
		t0 := e.cfg.Trace.At(failedAt)
		end := t0 + rto.Detect.Nanoseconds()
		tk.SpanAt("rto.detect", gen, 0, t0, end)
		t0, end = end, end+rto.Rollback.Nanoseconds()
		tk.SpanAt("rto.rollback", gen, uint64(rto.ScopeInstances), t0, end)
		t0, end = end, end+rto.Fetch.Nanoseconds()
		tk.SpanAt("rto.fetch", gen, rto.RestoredBytes, t0, end)
		t0, end = end, end+rto.Replay.Nanoseconds()
		tk.SpanAt("rto.replay", gen, replayed, t0, end)
		catchStart = end
	}
	go e.monitorCatchUp(w, detectAt, catchStart)
}

// fetchAcct accounts where the restored checkpoint state of one recovery
// came from. Byte counts are in persisted (stored) form, so local and
// remote volumes are directly comparable: restored = local + remote.
type fetchAcct struct {
	restored uint64 // blob bytes the restore consumed
	local    uint64 // served from worker-local caches
	remote   uint64 // fetched from the object store
	hits     uint64 // cache hits (only counted when the cache is enabled)
	misses   uint64 // cache misses
}

// fetchBlobs loads the blob chain of every checkpoint on the line,
// preserving chain order (base first). Every segment of every chain is
// fetched concurrently. Each blob is looked up in the hosting worker's
// local state cache first: a hit restores from worker memory with no
// object-store RPC, a miss (cold cache, or the hosting worker itself died
// and lost its cache) falls back to the store and re-warms the cache for
// the next failure.
func (e *Engine) fetchBlobs(line recovery.Line, metas []recovery.Meta) (map[int][][]byte, fetchAcct, error) {
	var acct fetchAcct
	keys := make(map[int][]string)
	for gid, ref := range line {
		if ref.Seq == 0 {
			continue
		}
		found := false
		for i := range metas {
			if metas[i].Ref == ref {
				if len(metas[i].StoreKeys) == 0 {
					return nil, acct, fmt.Errorf("core: checkpoint %v has no blob refs", ref)
				}
				keys[gid] = metas[i].StoreKeys
				found = true
				break
			}
		}
		if !found {
			return nil, acct, fmt.Errorf("core: no metadata for line checkpoint %v", ref)
		}
	}
	blobs := make(map[int][][]byte, len(keys))
	var mu sync.Mutex
	var wg sync.WaitGroup
	var firstErr error
	sem := make(chan struct{}, 16)
	for gid, chain := range keys {
		// dst is handed to the fetch goroutines directly: the blobs map
		// itself is only written by this loop.
		dst := make([][]byte, len(chain))
		blobs[gid] = dst
		worker := e.topo.WorkerOf(gid)
		for i, key := range chain {
			wg.Add(1)
			go func(worker, i int, key string, dst [][]byte) {
				defer wg.Done()
				sem <- struct{}{}
				defer func() { <-sem }()
				var (
					blob  []byte
					err   error
					local bool
				)
				if e.cache != nil {
					blob, local = e.cache.Get(worker, key)
				}
				if !local {
					err = e.retry.Do("ckpt.get", func() error {
						var gerr error
						blob, gerr = e.cfg.Store.Get(key)
						return gerr
					})
					if err == nil && e.cache != nil {
						// Re-warm: the restored instance's worker holds the
						// blob again, exactly as if it had just uploaded it.
						e.cache.Put(worker, key, blob)
					}
				}
				stored := uint64(len(blob))
				if err == nil && e.cfg.CompressCheckpoints {
					blob, err = flateDecompress(blob)
				}
				mu.Lock()
				defer mu.Unlock()
				if err != nil && firstErr == nil {
					firstErr = fmt.Errorf("core: fetch chain blob %s: %w", key, err)
					return
				}
				if err == nil {
					acct.restored += stored
					if local {
						acct.local += stored
					} else {
						acct.remote += stored
					}
					if e.cache != nil {
						if local {
							acct.hits++
						} else {
							acct.misses++
						}
					}
				}
				dst[i] = blob
			}(worker, i, key, dst)
		}
	}
	wg.Wait()
	if firstErr != nil {
		return nil, acct, firstErr
	}
	return blobs, acct, nil
}

// replayInFlight truncates stale log suffixes and re-injects the channel
// state of the recovery line into the fresh inboxes. Returns the number of
// replayed messages.
func (e *Engine) replayInFlight(w *world, line recovery.Line, metas []recovery.Meta) uint64 {
	// Truncate every channel's log to the sender's restored frontier.
	frontier := make(map[uint64]uint64, len(e.channels))
	for _, ch := range e.channels {
		sender := w.instances[ch.From]
		for i := range sender.outChans {
			if sender.outChans[i].key == ch.ID {
				frontier[ch.ID] = sender.sentSeq[i]
				break
			}
		}
	}
	e.log.TrimSuffixAll(frontier)

	var replayed uint64
	if e.cfg.Semantics == AtLeastOnce {
		// At-least-once systems keep no durable receive frontiers, so
		// recovery conservatively re-delivers every retained log entry up
		// to the sender's restored frontier. Nothing is lost; overlap with
		// already-reflected state produces the duplicates Definition 2
		// permits.
		for _, ch := range e.channels {
			entries := e.log.Range(ch.ID, 0, frontier[ch.ID])
			target := w.instances[ch.To]
			queue := e.queueIdx[ch.ID]
			for _, en := range entries {
				target.in.force(queue, replayFrame(en.Data), en.Count)
				replayed += uint64(en.Count)
			}
		}
	} else {
		for _, rng := range recovery.InFlight(e.channels, metas, line) {
			entries := e.log.Range(rng.Channel.ID, rng.FromExcl, rng.ToIncl)
			target := w.instances[rng.Channel.To]
			queue := e.queueIdx[rng.Channel.ID]
			for _, en := range entries {
				target.in.force(queue, replayFrame(en.Data), en.Count)
				replayed += uint64(en.Count)
			}
		}
	}
	e.cfg.Recorder.IncReplayMessages(int(replayed))
	return replayed
}

// replayFrame copies a logged envelope into a pooled frame before it is
// force-loaded into an inbox. The message log retains its entries (a later
// failure may replay them again), while inbox frames are receiver-owned and
// recycled after delivery — handing the log's own buffer to the inbox would
// let the pool scribble over retained log state.
func replayFrame(data []byte) []byte {
	return append(getFrame(len(data)), data...)
}

// monitorCatchUp polls source lag after a restart and records the recovery
// time once the pipeline caught up with its input schedule. catchStart is
// the run-clock instant the replay phase ended (0 when tracing is off),
// anchoring the rto.catchup span.
func (e *Engine) monitorCatchUp(w *world, detectAt time.Time, catchStart int64) {
	ticker := time.NewTicker(5 * time.Millisecond)
	defer ticker.Stop()
	for {
		select {
		case <-w.stopCh:
			return
		case <-ticker.C:
		}
		// Only measure while w is the live, healthy world: once another
		// failure starts tearing it down (or a newer world replaced it —
		// rolling restarts), this monitor's detection baseline is stale and
		// must not record the *next* recovery's catch-up.
		e.mu.Lock()
		live := e.world == w && !e.recovering
		e.mu.Unlock()
		if !live {
			return
		}
		if e.MaxSourceLag() <= e.cfg.CatchUpLag && e.SourceBacklog() == 0 {
			d := time.Since(detectAt)
			e.cfg.Recorder.RecordRecovery(d)
			e.cfg.Recorder.CompleteRTO(d)
			if tk := e.recTrack; tk != nil {
				tk.SpanAt("rto.catchup", uint64(w.gen), 0, catchStart, e.cfg.Trace.Now())
			}
			return
		}
	}
}

// MaxSourceLag reports the worst lag behind the arrival schedule across all
// source instances of the current world.
func (e *Engine) MaxSourceLag() time.Duration {
	e.mu.Lock()
	w := e.world
	e.mu.Unlock()
	if w == nil {
		return 0
	}
	var worst int64
	for _, it := range w.instances {
		if it.spec.Source == nil {
			continue
		}
		if lag := it.lagNS.Load(); lag > worst {
			worst = lag
		}
	}
	return time.Duration(worst)
}

// SourceBacklog reports the number of already-scheduled records not yet
// ingested by the sources.
func (e *Engine) SourceBacklog() uint64 {
	e.mu.Lock()
	w := e.world
	e.mu.Unlock()
	if w == nil {
		return 0
	}
	now := e.nowNS()
	var backlog uint64
	for _, it := range w.instances {
		if it.spec.Source == nil {
			continue
		}
		topic, err := e.cfg.Broker.Topic(it.spec.Source.Topic)
		if err != nil {
			continue
		}
		part := topic.Partition(it.idx)
		// The source goroutine owns it.offset; read the atomic mirror the
		// engine keeps for exactly this kind of cross-goroutine peek.
		off := e.volatileOffsets[it.gid].Load()
		for {
			r, ok := part.Read(off)
			if !ok || r.ScheduleNS > now {
				break
			}
			backlog++
			off++
			if backlog > 1<<20 {
				return backlog
			}
		}
	}
	return backlog
}

// Stop tears the engine down and finalizes checkpoint accounting.
func (e *Engine) Stop() {
	e.mu.Lock()
	if e.stopped {
		e.mu.Unlock()
		return
	}
	e.stopped = true
	w := e.world
	acctSet := e.acct.set
	e.mu.Unlock()
	if w != nil {
		e.stopWorld(w)
	}
	close(e.chaosStop)
	e.proberWG.Wait()
	e.coord.finalCommitOutput()
	if !acctSet {
		acct := e.coord.endOfRunAccounting()
		e.cfg.Recorder.SetCheckpointAccounting(acct.total, acct.invalid)
	}
	if e.dlog != nil {
		e.dlog.Close()
	}
}

// Close releases resources that outlive Stop: the final world's
// keyed-state backends — for spillable state, the compactor goroutines
// and mmap'd segment files. Call once the engine's state will never be
// read again (after any ExportSavepoint or final metrics collection).
// Idempotent; resident-only stores make it a no-op.
func (e *Engine) Close() {
	e.mu.Lock()
	w := e.world
	e.mu.Unlock()
	if w != nil {
		w.closeStores()
	}
}

// Channels exposes the channel topology (for tests and diagnostics).
func (e *Engine) Channels() []recovery.ChannelInfo { return e.channels }

// Topology exposes the cluster placement of the job's instances.
func (e *Engine) Topology() *cluster.Topology { return e.topo }

// WorkerOf reports the cluster worker hosting global instance gid.
func (e *Engine) WorkerOf(gid int) int { return e.topo.WorkerOf(gid) }

// CacheStats reports the worker-local state cache counters (zero value
// when the cache is disabled).
func (e *Engine) CacheStats() cluster.CacheStats {
	if e.cache == nil {
		return cluster.CacheStats{}
	}
	return e.cache.Stats()
}

// CheckpointMetas returns a snapshot of all checkpoint metadata reported to
// the coordinator — the input of recovery-line and rollback-scope analysis.
func (e *Engine) CheckpointMetas() []recovery.Meta { return e.coord.snapshotMetas() }

// LiveFrontiers captures the per-channel sent/received frontiers of every
// instance. Call after Stop: the counters are only stable once the world's
// goroutines exited. Together with CheckpointMetas and Channels this feeds
// recovery.RollbackScope, quantifying how much of the pipeline a partial
// failure would roll back under the uncoordinated protocols.
func (e *Engine) LiveFrontiers() map[int]recovery.Frontiers {
	e.mu.Lock()
	w := e.world
	e.mu.Unlock()
	if w == nil {
		return nil
	}
	live := make(map[int]recovery.Frontiers, e.total)
	for gid, it := range w.instances {
		f := recovery.Frontiers{
			Sent: make(map[uint64]uint64, len(it.outChans)),
			Recv: make(map[uint64]uint64, len(it.inChans)),
		}
		for i := range it.outChans {
			f.Sent[it.outChans[i].key] = it.sentSeq[i]
		}
		for i := range it.inChans {
			f.Recv[it.inChans[i].key] = it.recvSeq[i]
		}
		live[gid] = f
	}
	return live
}

// TotalInstances reports the number of operator instances.
func (e *Engine) TotalInstances() int { return e.total }

// OperatorState extracts, after Stop, the operator instance logic for
// inspection by tests and result verification (e.g. comparing sink state
// between a failure run and a failure-free run).
func (e *Engine) OperatorState(op, idx int) Operator {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.world == nil {
		return nil
	}
	return e.world.instances[e.gidOf(op, idx)].oper
}

// netWork burns CPU proportional to the envelope size, modelling
// serialization plus NIC/bandwidth cost of the simulated network.
func (e *Engine) netWork(data []byte) {
	var sum uint32
	for i := 0; i < e.cfg.NetWorkFactor; i++ {
		sum += crc32.ChecksumIEEE(data)
	}
	if sum != 0 {
		crcSink.Store(sum)
	}
}

// crcSink defeats dead-code elimination of the synthetic network work. It
// is written from every instance goroutine, hence atomic.
var crcSink atomic.Uint32
