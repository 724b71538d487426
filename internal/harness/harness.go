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

// RunConfig describes a single experiment run: the engine configuration,
// embedded so every engine setting lives in one field (cfg.Workers,
// cfg.Protocol, cfg.Batching, ...), plus the experiment settings the
// engine does not have — workload, input rate and length, failure and
// fault plans.
//
// Run owns the engine's wiring and the timings it derives from Duration:
// Broker, Store, Recorder, Chaos, DetectionDelay, CatchUpLag and
// Durability.WALDir must be left zero (Run rejects a preset one; the WAL
// goes under DurableDir). Trace, when set, is the caller's span
// collector: it feeds Summary.RoundPhases and stays with the caller for
// export. StateSpill needs no Dir (a fresh temporary directory when
// empty). An empty Durability.Sync is the engine's group commit.
type RunConfig struct {
	core.Config

	// Query is one of q1, q2, q3, q4, q5, q7, q8, q11, q12, q12et or
	// "cyclic". The paper evaluates q1/q3/q8/q12; the rest are
	// workload-library extensions (q12et is the event-time twin of q12).
	Query string
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
	// HotRatio is the NexMark hot-items ratio (0 = uniform).
	HotRatio float64
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
	// StoreFailureRate injects transient object-store errors (0..1); the
	// engine retries them.
	StoreFailureRate float64
	// ChaosPlan is the deterministic fault plan for the run: windowed
	// store brownouts/outages/latency spikes, WAL fsync stalls and
	// exchange jitter, armed at engine start. The zero plan injects
	// nothing.
	ChaosPlan chaos.Plan
	// AnalyzeRollbackScope computes, after the run, the rollback scope of
	// every possible single-instance failure under the logging protocols
	// (see RunResult.Scope). Failure-free runs only.
	AnalyzeRollbackScope bool
	// DurableDir roots the files of a Durability.Enabled run (blobs/ and
	// wal/ subdirectories). Empty = a fresh temporary directory, removed
	// when the run ends.
	DurableDir string
	// HTTPAddr, when non-empty, serves the live observability endpoint
	// (/metrics, /trace.json, /debug/pprof) on this address for the
	// duration of the run. Use ":0" to bind an ephemeral port.
	HTTPAddr string
}

// storeLatency is the simulated checkpoint-store put and get latency.
const storeLatency = 2 * time.Millisecond

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
	// unless RunConfig.Durability is enabled and the protocol logs
	// messages).
	WAL wal.Stats
	// Spill aggregates the spillable keyed-state gauges at end of run
	// (zero unless RunConfig.StateSpill is enabled).
	Spill statestore.SpillStats
	// StateKeys and StateBytes total the keyed state of all instances at
	// the end of the run: entries and value bytes.
	StateKeys  int
	StateBytes uint64
	// Chaos reports the run's robustness accounting: retry/backoff
	// counters, injected faults, watchdog round abandonments and the
	// degraded-mode ledger.
	Chaos core.ChaosStats
	// Scope summarizes the single-failure rollback-scope analysis (set by
	// RunConfig.AnalyzeRollbackScope).
	Scope ScopeStats
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
	if cfg.Broker != nil || cfg.Store != nil || cfg.Recorder != nil || cfg.Chaos != nil ||
		cfg.DetectionDelay != 0 || cfg.CatchUpLag != 0 || cfg.Durability.WALDir != "" {
		return RunResult{}, fmt.Errorf("harness: Run sets Broker, Store, Recorder, Chaos, DetectionDelay, CatchUpLag and Durability.WALDir itself; leave them zero")
	}
	cfg.applyDefaults()
	if cfg.Rate <= 0 || cfg.Workers <= 0 {
		return RunResult{}, fmt.Errorf("harness: rate and workers must be positive (rate=%v workers=%d)", cfg.Rate, cfg.Workers)
	}
	lagThreshold := cfg.Duration / 25 // the sustainability verdict
	drainGrace := cfg.Duration / 10   // lets in-flight records reach the timeline
	broker, job, produced, err := buildWorkload(&cfg)
	if err != nil {
		return RunResult{}, err
	}
	storeCfg := objstore.Config{
		PutLatency:     storeLatency,
		GetLatency:     storeLatency,
		PerByteLatency: time.Nanosecond,
		FailureRate:    cfg.StoreFailureRate,
		Seed:           cfg.Seed,
	}
	var injector *chaos.Injector
	if !cfg.ChaosPlan.Empty() {
		plan := cfg.ChaosPlan
		if plan.Seed == 0 {
			plan.Seed = cfg.Seed
		}
		injector = chaos.NewInjector(plan)
		storeCfg.Fault = injector
	}
	ecfg := cfg.Config
	if ecfg.Durability.Enabled {
		dir := cfg.DurableDir
		if dir == "" {
			tmp, terr := os.MkdirTemp("", "checkmate-durable-*")
			if terr != nil {
				return RunResult{}, fmt.Errorf("harness: durable dir: %w", terr)
			}
			defer os.RemoveAll(tmp)
			dir = tmp
		}
		storeCfg.Dir = filepath.Join(dir, "blobs")
		ecfg.Durability.WALDir = filepath.Join(dir, "wal")
	}
	store, err := objstore.Open(storeCfg)
	if err != nil {
		return RunResult{}, fmt.Errorf("harness: open store: %w", err)
	}
	if ecfg.StateSpill.Enabled && ecfg.StateSpill.Dir == "" {
		tmp, terr := os.MkdirTemp("", "checkmate-spill-*")
		if terr != nil {
			return RunResult{}, fmt.Errorf("harness: spill dir: %w", terr)
		}
		defer os.RemoveAll(tmp)
		ecfg.StateSpill.Dir = tmp
	}
	bucket := cfg.Duration / 60 // always 60 "paper seconds"
	if bucket <= 0 {
		bucket = time.Second
	}
	recorder := metrics.NewRecorder(time.Now(), cfg.Duration+drainGrace, bucket)
	ecfg.Broker, ecfg.Store, ecfg.Recorder, ecfg.Chaos = broker, store, recorder, injector
	ecfg.DetectionDelay = cfg.Duration / 120
	ecfg.CatchUpLag = lagThreshold / 2
	eng, err := core.NewEngine(ecfg, job)
	if err != nil {
		return RunResult{}, err
	}
	defer eng.Close()
	var obs *trace.Server
	if cfg.HTTPAddr != "" {
		obs, err = trace.Serve(cfg.HTTPAddr, cfg.Trace, eng.MetricsSnapshot)
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
		clusterWorkers := cfg.Cluster.Workers
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
	deadline := time.Now().Add(drainGrace)
	var lastSink uint64
	sinkStable := 0
	for time.Now().Before(deadline) {
		if eng.SourceBacklog() == 0 && eng.MaxSourceLag() < lagThreshold/4 {
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
	if cfg.Trace != nil {
		for _, p := range cfg.Trace.PhaseStats() {
			sum.RoundPhases = append(sum.RoundPhases, metrics.PhaseStat{
				Name: p.Name, Count: p.Count, Total: p.Total, Max: p.Max,
			})
		}
	}
	res := RunResult{
		Config:      cfg,
		Summary:     sum,
		MaxLag:      maxLag,
		Sustainable: maxLag < lagThreshold && sum.SinkCount > 0,
		Produced:    produced,
	}
	res.Store = store.Stats()
	res.WAL = eng.WALStats()
	res.Spill = eng.StateStats()
	res.StateKeys, res.StateBytes = eng.StateKeys(), eng.StateBytes()
	res.Chaos = eng.ChaosStats()
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
