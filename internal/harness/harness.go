// Package harness drives the paper's experiments end to end: it builds
// workloads, runs a query under a protocol at a given input rate, injects
// failures, decides sustainability, searches for the maximum sustainable
// throughput, and formats the tables and figure data series of the paper's
// evaluation section (§VII).
package harness

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"checkmate/internal/chaos"
	"checkmate/internal/cluster"
	"checkmate/internal/core"
	"checkmate/internal/cyclic"
	"checkmate/internal/metrics"
	"checkmate/internal/mq"
	"checkmate/internal/nexmark"
	"checkmate/internal/objstore"
	"checkmate/internal/recovery"
	"checkmate/internal/statestore"
	"checkmate/internal/trace"
	"checkmate/internal/wal"
)

// QueryCyclic names the cyclic reachability query in RunConfig.Query.
const QueryCyclic = "cyclic"

// RunConfig describes a single experiment run.
type RunConfig struct {
	// Query is one of q1, q2, q3, q4, q5, q7, q8, q11, q12, q12et or
	// "cyclic". The paper evaluates q1/q3/q8/q12; the rest are
	// workload-library extensions (q12et is the event-time twin of q12).
	Query string
	// Protocol is the checkpointing protocol.
	Protocol core.Protocol
	// Workers is the parallelism (one worker per parallel instance).
	Workers int
	// CPUs pins runtime.GOMAXPROCS for the run (restored afterwards),
	// making the cores axis an explicit experiment dimension. 0 keeps the
	// process setting.
	CPUs int
	// Rate is the total input event rate (events/second).
	Rate float64
	// Duration is the measured run length (the paper's 60 s, possibly
	// time-compressed).
	Duration time.Duration
	// FailureAt injects a worker failure this long into the run (0 = no
	// failure). The paper uses 18 s of a 60 s run.
	FailureAt time.Duration
	// FailWorker selects the cluster worker to kill (the first worker of
	// rack and rolling failure domains).
	FailWorker int
	// FailDomain selects the failure domain injected at FailureAt:
	// "worker" (default, a single crash), "rack" (FailRackSize workers at
	// once) or "rolling" (FailRackSize successive single-worker crashes,
	// FailInterval apart).
	FailDomain string
	// FailRackSize is the blast radius of rack/rolling failures
	// (default 2).
	FailRackSize int
	// FailInterval separates successive rolling or flapping failures
	// (default Duration/10).
	FailInterval time.Duration
	// FailCount is how many times a flapping worker crashes (default 3).
	FailCount int
	// ClusterWorkers is the simulated cluster size instances are placed
	// on (0 = Workers, the legacy one-worker-per-parallel-instance
	// model).
	ClusterWorkers int
	// Placement selects the instance→worker placement policy: "spread"
	// (default), "round-robin" or "colocate".
	Placement string
	// LocalCache enables the worker-local state cache: recovery on
	// surviving workers restores checkpoint state from worker memory
	// instead of the object store.
	LocalCache bool
	// HotRatio is the NexMark hot-items ratio (0 = uniform).
	HotRatio float64
	// CheckpointInterval is the protocol checkpoint interval.
	CheckpointInterval time.Duration
	// Window is the tumbling window of Q8/Q12 and the sliding-window size
	// of Q5.
	Window time.Duration
	// Slide is the sliding-window step of Q5 (defaults to Window/2).
	Slide time.Duration
	// SessionGap is the inactivity gap closing a Q11 session (defaults to
	// Window/2).
	SessionGap time.Duration
	// Nodes is the cyclic query's node universe.
	Nodes uint64
	// Seed drives all deterministic randomness.
	Seed int64
	// NetWorkFactor is the synthetic per-byte network cost factor.
	NetWorkFactor int
	// StorePutLatency / StoreGetLatency configure the checkpoint store.
	StorePutLatency time.Duration
	StoreGetLatency time.Duration
	// ChannelCap bounds inter-instance queues.
	ChannelCap int
	// LagThreshold decides sustainability; defaults to 4% of Duration.
	LagThreshold time.Duration
	// DrainGrace extends the run after Duration to let in-flight records
	// drain into the latency timeline.
	DrainGrace time.Duration
	// Semantics selects the processing guarantee for the logging protocols
	// (default exactly-once).
	Semantics core.Semantics
	// StragglerDelay injects per-event processing delay on one worker's
	// instances (straggler simulation); 0 disables.
	StragglerDelay time.Duration
	// StragglerWorker selects the straggling worker.
	StragglerWorker int
	// CheckpointGC enables checkpoint garbage collection in the store.
	CheckpointGC bool
	// StoreFailureRate injects transient object-store errors (0..1); the
	// engine retries them.
	StoreFailureRate float64
	// Chaos is the deterministic fault plan for the run: windowed store
	// brownouts/outages/latency spikes, WAL fsync stalls and exchange
	// delay/jitter, armed at engine start. The zero plan injects nothing.
	Chaos chaos.Plan
	// RoundDeadline overrides the coordinator round watchdog deadline
	// (0 = engine default of 3x CheckpointInterval).
	RoundDeadline time.Duration
	// Output selects sink-output collection: none (default), immediate
	// (duplicates visible after failures), or transactional (exactly-once
	// output via epoch commit).
	Output core.OutputMode
	// WatermarkInterval enables event-time watermark flow (required by the
	// q12et event-time query; defaulted automatically for it).
	WatermarkInterval time.Duration
	// WatermarkLag is the out-of-orderness bound of source watermarks.
	WatermarkLag time.Duration
	// CompressCheckpoints deflates checkpoint blobs before upload.
	CompressCheckpoints bool
	// DeltaCheckpoints persists the keyed state of backend-using operators
	// (q3/q8/q12 joins and counts, the cyclic join) as base-plus-delta
	// chains instead of full snapshots per checkpoint.
	DeltaCheckpoints bool
	// SpillState switches the keyed-state backend of backend-using
	// operators to the spillable backend: a bounded in-memory overlay over
	// mmap'd on-disk segments, keeping larger-than-memory keyed state
	// runnable and making restore an mmap instead of a decode.
	SpillState bool
	// SpillMaxMB bounds each instance's resident keyed-state bytes in MiB
	// (0 = statestore default, 64 MiB).
	SpillMaxMB int
	// SpillMaxEntries bounds each instance's overlay entry count (0 =
	// statestore default).
	SpillMaxEntries int
	// SpillDir roots the segment files. Empty = a fresh temporary
	// directory, removed when the run ends.
	SpillDir string
	// BatchMaxRecords / BatchMaxBytes / BatchLingerTicks configure the
	// vectorized exchange (core.BatchingConfig): how many records, encoded
	// bytes, or poll-interval ticks an output batch may accumulate before
	// it is flushed. Zero values preserve today's per-record behavior
	// (batch size 1).
	BatchMaxRecords  int
	BatchMaxBytes    int
	BatchLingerTicks int
	// AnalyzeRollbackScope computes, after the run, the rollback scope of
	// every possible single-instance failure under the logging protocols
	// (see RunResult.Scope). Failure-free runs only.
	AnalyzeRollbackScope bool
	// PoisonFrames enables the frame pool's poison-on-recycle debug mode
	// for the duration of the run: recycled wire frames are scribbled
	// before reuse, so any component holding an alias past its ownership
	// window corrupts deterministically instead of silently. The setting is
	// process-wide while the run executes and restored afterwards.
	PoisonFrames bool
	// Durable enables the filesystem durability tier: checkpoint blobs go
	// to a disk-backed object store and, for the logging protocols, every
	// message-log append tees through a segmented WAL before it is
	// acknowledged. Store latency simulation (StorePutLatency etc.) still
	// applies on top of the real disk I/O.
	Durable bool
	// DurableDir roots the durable files (blobs/ and wal/ subdirectories).
	// Empty = a fresh temporary directory, removed when the run ends.
	DurableDir string
	// WALSync selects the WAL sync policy: "always", "group" (default) or
	// "interval". See wal.SyncPolicy.
	WALSync string
	// Trace enables the checkpoint-lifecycle span collector for the run.
	// The collected spans land in RunResult.Trace (export with
	// trace.WriteChromeFile) and feed Summary.RoundPhases.
	Trace bool
	// TraceCap bounds each trace track's event ring (0 =
	// trace.DefaultTrackCap).
	TraceCap int
	// HTTPAddr, when non-empty, serves the live observability endpoint
	// (/metrics, /trace.json, /debug/pprof) on this address for the
	// duration of the run. Use ":0" to bind an ephemeral port.
	HTTPAddr string
}

func (c *RunConfig) applyDefaults() {
	if c.Duration <= 0 {
		c.Duration = 6 * time.Second
	}
	if c.CheckpointInterval <= 0 {
		c.CheckpointInterval = c.Duration / 12 // 5 s at paper scale
	}
	if c.Window <= 0 {
		c.Window = c.Duration / 60 * 10 // 10 s at paper scale
	}
	if c.LagThreshold <= 0 {
		c.LagThreshold = c.Duration / 25
	}
	if c.StorePutLatency <= 0 {
		c.StorePutLatency = 2 * time.Millisecond
	}
	if c.StoreGetLatency <= 0 {
		c.StoreGetLatency = 2 * time.Millisecond
	}
	if c.DrainGrace <= 0 {
		c.DrainGrace = c.Duration / 10
	}
	if c.NetWorkFactor == 0 {
		c.NetWorkFactor = 4
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Query == "q12et" && c.WatermarkInterval <= 0 {
		// One watermark per quarter paper-second keeps event-time windows
		// firing promptly at any time compression.
		c.WatermarkInterval = c.Duration / 240
	}
}

// RunResult carries the outcome of one run.
type RunResult struct {
	Config      RunConfig
	Summary     metrics.Summary
	Sustainable bool
	// MaxLag is the worst source lag observed in the second half of the
	// run (the sustainability criterion).
	MaxLag time.Duration
	// Produced counts generated records per topic.
	Produced map[string]uint64
	// Output summarizes the sink-output collector (zero unless
	// RunConfig.Output enabled collection).
	Output core.OutputStats
	// DuplicateUIDs counts distinct results the external consumer observed
	// more than once — the exactly-once-output violation immediate mode
	// exhibits after failures.
	DuplicateUIDs int
	// VisibilityP50 and VisibilityP99 are percentiles of the end-to-end
	// output visibility latency (visible time minus schedule time).
	VisibilityP50, VisibilityP99 time.Duration
	// Store reports the checkpoint-store traffic of the run.
	Store objstore.Stats
	// WAL reports the message-log WAL counters of a durable run (zero
	// unless RunConfig.Durable and the protocol logs messages).
	WAL wal.Stats
	// Spill aggregates the spillable keyed-state gauges at end of run
	// (zero unless RunConfig.SpillState).
	Spill statestore.SpillStats
	// Chaos reports the run's robustness accounting: retry/backoff
	// counters, injected faults, watchdog round abandonments and the
	// degraded-mode ledger.
	Chaos core.ChaosStats
	// Scope summarizes the single-failure rollback-scope analysis (set by
	// RunConfig.AnalyzeRollbackScope).
	Scope ScopeStats
	// Trace holds the run's span collector (nil unless RunConfig.Trace).
	// Export with Trace.WriteChromeFile.
	Trace *trace.Tracer
	// HTTPAddr is the bound observability address (set when
	// RunConfig.HTTPAddr was non-empty; useful with ":0").
	HTTPAddr string
}

// ScopeStats aggregates recovery.RollbackScope over every possible
// single-instance failure: how localized recovery could be under the
// uncoordinated family, in contrast to the global rollback the coordinated
// protocol requires by construction.
type ScopeStats struct {
	// Instances is the pipeline's total instance count.
	Instances int
	// AvgScope and MaxScope count instances that must restore state when
	// one instance fails (averaged over / maximized over the choice of
	// failed instance).
	AvgScope float64
	MaxScope int
	// AvgDepth is the mean number of checkpoints rolled back per in-scope
	// instance.
	AvgDepth float64
	// Workers is the cluster size; AvgWorkers and MaxWorkers count the
	// distinct workers hosting in-scope instances (averaged/maximized
	// over the choice of failed instance) — the per-worker rollback
	// scope, i.e. how much of the cluster a single-instance failure
	// drags into recovery under the given placement.
	Workers    int
	AvgWorkers float64
	MaxWorkers int
}

// buildWorkload creates the broker topics and the job for cfg.
func buildWorkload(cfg *RunConfig) (*mq.Broker, *core.JobSpec, map[string]uint64, error) {
	broker := mq.NewBroker()
	genDur := cfg.Duration
	if cfg.Query == QueryCyclic {
		counts, err := cyclic.Generate(broker, cyclic.GenConfig{
			Rate: cfg.Rate, Duration: genDur, Partitions: cfg.Workers,
			Nodes: cfg.Nodes, Seed: cfg.Seed,
		})
		if err != nil {
			return nil, nil, nil, err
		}
		return broker, cyclic.Build(), counts, nil
	}
	counts, err := nexmark.Generate(broker, nexmark.GenConfig{
		Rate: cfg.Rate, Duration: genDur, Partitions: cfg.Workers,
		HotRatio: cfg.HotRatio, Seed: cfg.Seed,
		Topics: nexmark.TopicsFor(cfg.Query),
	})
	if err != nil {
		return nil, nil, nil, err
	}
	job, err := nexmark.Build(cfg.Query, nexmark.QueryConfig{
		Window: cfg.Window, Slide: cfg.Slide, SessionGap: cfg.SessionGap,
	})
	if err != nil {
		return nil, nil, nil, err
	}
	return broker, job, counts, nil
}

// Run executes one experiment.
func Run(cfg RunConfig) (RunResult, error) {
	cfg.applyDefaults()
	if cfg.Rate <= 0 || cfg.Workers <= 0 {
		return RunResult{}, fmt.Errorf("harness: rate and workers must be positive (rate=%v workers=%d)", cfg.Rate, cfg.Workers)
	}
	if cfg.PoisonFrames {
		prev := core.SetFramePoison(true)
		defer core.SetFramePoison(prev)
	}
	if cfg.CPUs > 0 {
		prev := runtime.GOMAXPROCS(cfg.CPUs)
		defer runtime.GOMAXPROCS(prev)
	}
	broker, job, produced, err := buildWorkload(&cfg)
	if err != nil {
		return RunResult{}, err
	}
	storeCfg := objstore.Config{
		PutLatency:     cfg.StorePutLatency,
		GetLatency:     cfg.StoreGetLatency,
		PerByteLatency: time.Nanosecond,
		FailureRate:    cfg.StoreFailureRate,
		Seed:           cfg.Seed,
	}
	var injector *chaos.Injector
	if !cfg.Chaos.Empty() {
		plan := cfg.Chaos
		if plan.Seed == 0 {
			plan.Seed = cfg.Seed
		}
		injector = chaos.NewInjector(plan)
		storeCfg.Fault = injector
	}
	var durability core.DurabilityConfig
	if cfg.Durable {
		dir := cfg.DurableDir
		if dir == "" {
			tmp, terr := os.MkdirTemp("", "checkmate-durable-*")
			if terr != nil {
				return RunResult{}, fmt.Errorf("harness: durable dir: %w", terr)
			}
			defer os.RemoveAll(tmp)
			dir = tmp
		}
		policy := wal.SyncGroup
		if cfg.WALSync != "" {
			p, perr := wal.PolicyByName(cfg.WALSync)
			if perr != nil {
				return RunResult{}, fmt.Errorf("harness: %w", perr)
			}
			policy = p
		}
		storeCfg.Dir = filepath.Join(dir, "blobs")
		durability = core.DurabilityConfig{
			Enabled: true,
			WALDir:  filepath.Join(dir, "wal"),
			Sync:    policy,
		}
	}
	store, err := objstore.Open(storeCfg)
	if err != nil {
		return RunResult{}, fmt.Errorf("harness: open store: %w", err)
	}
	var stateSpill core.StateSpillConfig
	if cfg.SpillState {
		dir := cfg.SpillDir
		if dir == "" {
			tmp, terr := os.MkdirTemp("", "checkmate-spill-*")
			if terr != nil {
				return RunResult{}, fmt.Errorf("harness: spill dir: %w", terr)
			}
			defer os.RemoveAll(tmp)
			dir = tmp
		}
		stateSpill = core.StateSpillConfig{
			Enabled:           true,
			Dir:               dir,
			MaxResidentBytes:  cfg.SpillMaxMB << 20,
			MaxOverlayEntries: cfg.SpillMaxEntries,
		}
	}
	bucket := cfg.Duration / 60 // always 60 "paper seconds"
	if bucket <= 0 {
		bucket = time.Second
	}
	recorder := metrics.NewRecorder(time.Now(), cfg.Duration+cfg.DrainGrace, bucket)
	var tracer *trace.Tracer
	if cfg.Trace {
		tracer = trace.New(cfg.TraceCap)
	}
	eng, err := core.NewEngine(core.Config{
		Trace:               tracer,
		Workers:             cfg.Workers,
		Protocol:            cfg.Protocol,
		CheckpointInterval:  cfg.CheckpointInterval,
		ChannelCap:          cfg.ChannelCap,
		Broker:              broker,
		Store:               store,
		Recorder:            recorder,
		DetectionDelay:      cfg.Duration / 120,
		PollInterval:        2 * time.Millisecond,
		CatchUpLag:          cfg.LagThreshold / 2,
		NetWorkFactor:       cfg.NetWorkFactor,
		Semantics:           cfg.Semantics,
		StragglerDelay:      cfg.StragglerDelay,
		StragglerWorker:     cfg.StragglerWorker,
		CheckpointGC:        cfg.CheckpointGC,
		Output:              cfg.Output,
		WatermarkInterval:   cfg.WatermarkInterval,
		WatermarkLag:        cfg.WatermarkLag,
		CompressCheckpoints: cfg.CompressCheckpoints,
		DeltaCheckpoints:    cfg.DeltaCheckpoints,
		StateSpill:          stateSpill,
		Durability:          durability,
		Cluster: cluster.Config{
			Workers:    cfg.ClusterWorkers,
			Policy:     cluster.Policy(cfg.Placement),
			LocalCache: cfg.LocalCache,
		},
		Batching: core.BatchingConfig{
			MaxRecords:  cfg.BatchMaxRecords,
			MaxBytes:    cfg.BatchMaxBytes,
			LingerTicks: cfg.BatchLingerTicks,
		},
		Seed:          cfg.Seed,
		Chaos:         injector,
		RoundDeadline: cfg.RoundDeadline,
	}, job)
	if err != nil {
		return RunResult{}, err
	}
	defer eng.Close()
	var obs *trace.Server
	if cfg.HTTPAddr != "" {
		obs, err = trace.Serve(cfg.HTTPAddr, tracer, eng.MetricsSnapshot)
		if err != nil {
			return RunResult{}, fmt.Errorf("harness: observability endpoint: %w", err)
		}
		defer obs.Close()
	}
	if err := eng.Start(); err != nil {
		return RunResult{}, err
	}

	start := time.Now()
	if cfg.FailureAt > 0 {
		clusterWorkers := cfg.ClusterWorkers
		if clusterWorkers <= 0 {
			clusterWorkers = cfg.Workers
		}
		interval := cfg.FailInterval
		if interval <= 0 {
			interval = cfg.Duration / 10
		}
		events, perr := cluster.FailurePlan{
			Domain:   cluster.Domain(cfg.FailDomain),
			Worker:   cfg.FailWorker,
			Size:     cfg.FailRackSize,
			Interval: interval,
			Count:    cfg.FailCount,
		}.Events(clusterWorkers)
		if perr != nil {
			eng.Stop()
			return RunResult{}, perr
		}
		go func() {
			time.Sleep(cfg.FailureAt)
			for _, ev := range events {
				time.Sleep(ev.AfterPrev)
				// A rolling event landing mid-recovery is dropped by the
				// engine (one recovery at a time), as a real scheduler
				// would pause a rolling restart on an unhealthy cluster.
				eng.InjectWorkerFailure(ev.Workers...)
			}
		}()
	}
	// Sample source lag over the second half of the run for the
	// sustainability verdict.
	var maxLag time.Duration
	half := cfg.Duration / 2
	for {
		elapsed := time.Since(start)
		if elapsed >= cfg.Duration {
			break
		}
		if elapsed >= half && cfg.FailureAt == 0 {
			if lag := eng.MaxSourceLag(); lag > maxLag {
				maxLag = lag
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	// Grace period so in-flight records drain into the timeline: sources
	// done is not enough — records still queued between operators would be
	// dropped at Stop, so also wait (deadline-bounded) for the sink count
	// to settle.
	deadline := time.Now().Add(cfg.DrainGrace)
	var lastSink uint64
	sinkStable := 0
	for time.Now().Before(deadline) {
		if eng.SourceBacklog() == 0 && eng.MaxSourceLag() < cfg.LagThreshold/4 {
			if count := recorder.SinkCount(); count == lastSink {
				if sinkStable++; sinkStable >= 3 {
					break
				}
			} else {
				lastSink = count
				sinkStable = 0
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	if lag := eng.MaxSourceLag(); cfg.FailureAt == 0 && lag > maxLag {
		maxLag = lag
	}
	eng.Stop()

	sum := recorder.Summarize(cfg.Protocol.Kind() == core.KindCoordinated)
	if tracer != nil {
		for _, p := range tracer.PhaseStats() {
			sum.RoundPhases = append(sum.RoundPhases, metrics.PhaseStat{
				Name: p.Name, Count: p.Count, Total: p.Total, Max: p.Max,
			})
		}
	}
	res := RunResult{
		Config:      cfg,
		Summary:     sum,
		MaxLag:      maxLag,
		Sustainable: maxLag < cfg.LagThreshold && sum.SinkCount > 0,
		Produced:    produced,
	}
	res.Store = store.Stats()
	res.WAL = eng.WALStats()
	res.Spill = eng.StateStats()
	res.Chaos = eng.ChaosStats()
	res.Trace = tracer
	if obs != nil {
		res.HTTPAddr = obs.Addr()
	}
	if cfg.AnalyzeRollbackScope && cfg.Protocol.Kind().NeedsLogging() {
		res.Scope = analyzeScope(eng)
	}
	if cfg.Output != core.OutputNone {
		res.Output = eng.OutputStats()
		visible := eng.VisibleOutput()
		counts := make(map[uint64]int, len(visible))
		lats := make([]time.Duration, 0, len(visible))
		for _, r := range visible {
			counts[r.UID]++
			lats = append(lats, time.Duration(r.VisibleNS-r.SchedNS))
		}
		for _, n := range counts {
			if n > 1 {
				res.DuplicateUIDs++
			}
		}
		if len(lats) > 0 {
			sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
			res.VisibilityP50 = lats[len(lats)/2]
			res.VisibilityP99 = lats[len(lats)*99/100]
		}
	}
	return res, nil
}

// analyzeScope runs the rollback-dependency-graph scope analysis for every
// possible single-instance failure of a stopped engine: how many instances
// would have to restore state, and how deeply, if that instance alone
// failed — the partial-recovery potential of the uncoordinated family.
func analyzeScope(eng *core.Engine) ScopeStats {
	total := eng.TotalInstances()
	metas := eng.CheckpointMetas()
	channels := eng.Channels()
	live := eng.LiveFrontiers()
	st := ScopeStats{Instances: total, Workers: eng.Topology().Workers()}
	var scopeSum, depthSum, depthN, workerSum int
	for i := 0; i < total; i++ {
		scope := recovery.RollbackScope(total, channels, metas, []int{i}, live)
		scopeSum += len(scope)
		if len(scope) > st.MaxScope {
			st.MaxScope = len(scope)
		}
		byWorker := recovery.WorkerScope(scope, eng.WorkerOf)
		workerSum += len(byWorker)
		if len(byWorker) > st.MaxWorkers {
			st.MaxWorkers = len(byWorker)
		}
		for _, e := range scope {
			depthSum += int(e.Depth)
			depthN++
		}
	}
	if total > 0 {
		st.AvgScope = float64(scopeSum) / float64(total)
		st.AvgWorkers = float64(workerSum) / float64(total)
	}
	if depthN > 0 {
		st.AvgDepth = float64(depthSum) / float64(depthN)
	}
	return st
}
