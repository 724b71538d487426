// Command checkmate runs a single checkpointing-protocol experiment and
// prints the full metric summary, mirroring one cell of the paper's
// evaluation grid.
//
// Examples:
//
//	checkmate -query q3 -protocol UNC -workers 10 -rate 50000
//	checkmate -query cyclic -protocol CIC -workers 5 -rate 20000 -failure-at 3s
//	checkmate -query q12 -protocol COOR -hot 0.3 -rate 20000
//	checkmate -query q1 -protocol COOR -mst            # search max sustainable throughput
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strconv"
	"sync"
	"syscall"
	"time"

	"checkmate"
	"checkmate/internal/cluster"
	"checkmate/internal/wal"
)

// cliFlags holds the flags that steer the command rather than the run.
type cliFlags struct {
	mst, listScenarios                                 bool
	policy, scenario, benchScenarios                   string
	cpus                                               int
	cpuProfile, memProfile, mutexProfile, blockProfile string
	traceOut, checkTrace                               string
}

// bindFlags registers every flag on fs: run settings bind straight into
// cfg, the rest into the returned cliFlags.
func bindFlags(fs *flag.FlagSet, cfg *checkmate.RunConfig) *cliFlags {
	c := &cliFlags{}
	fs.StringVar(&cfg.Query, "query", "q1", "query: q1, q2, q3, q4, q5, q7, q8, q11, q12, q12et or cyclic")
	bindParsed(fs, &cfg.Protocol, "protocol", "COOR", checkmate.ProtocolByName, "protocol: NONE, COOR, UNC, CIC, UCOOR or BCS")
	fs.IntVar(&cfg.Workers, "workers", 4, "parallelism (workers)")
	fs.Float64Var(&cfg.Rate, "rate", 20000, "input rate (events/second)")
	fs.DurationVar(&cfg.Duration, "duration", 6*time.Second, "run duration")
	fs.DurationVar(&cfg.FailureAt, "failure-at", 0, "inject a worker failure at this offset (0 = none)")
	fs.Float64Var(&cfg.HotRatio, "hot", 0, "hot-items ratio (0..1)")
	fs.DurationVar(&cfg.CheckpointInterval, "interval", 0, "checkpoint interval (default duration/12)")
	fs.DurationVar(&cfg.Window, "window", 0, "Q8/Q12 tumbling window and Q5 sliding size (default duration/6)")
	fs.DurationVar(&cfg.Slide, "slide", 0, "Q5 sliding-window step (default window/2)")
	fs.Int64Var(&cfg.Seed, "seed", 1, "workload seed")
	fs.BoolVar(&c.mst, "mst", false, "search the maximum sustainable throughput instead of a fixed-rate run")
	fs.IntVar(&cfg.NetWorkFactor, "netcost", 0, "synthetic per-byte network cost factor (0 = default)")
	bindParsed(fs, &cfg.Semantics, "semantics", "exactly-once", checkmate.SemanticsByName, "processing guarantee for UNC/CIC: exactly-once, at-least-once, at-most-once")
	fs.StringVar(&c.policy, "policy", "", "UNC trigger policy: fixed, events=<n>, idle=<dur> (default: jittered interval)")
	fs.DurationVar(&cfg.StragglerDelay, "straggler", 0, "per-event delay injected on one worker (straggler simulation)")
	fs.BoolVar(&cfg.CheckpointGC, "gc", false, "enable checkpoint garbage collection")
	fs.Float64Var(&cfg.StoreFailureRate, "store-failure-rate", 0, "transient object-store failure rate (0..1), retried by the engine")
	bindParsed(fs, &cfg.Output, "output", "none", outputByName, "sink output mode: none, immediate, transactional")
	fs.BoolVar(&cfg.CompressCheckpoints, "compress", false, "deflate checkpoint blobs before upload")
	fs.BoolVar(&cfg.DeltaCheckpoints, "delta", false, "incremental (base+delta) checkpoints of keyed operator state")
	fs.BoolVar(&cfg.AnalyzeRollbackScope, "scope", false, "analyze the single-failure rollback scope after the run (UNC/CIC)")
	fs.IntVar(&cfg.Batching.MaxRecords, "batch", 0, "exchange batch size in records (0/1 = unbatched)")
	fs.IntVar(&cfg.Batching.MaxBytes, "batch-bytes", 0, "exchange batch size bound in bytes (0 = default 32KiB)")
	fs.IntVar(&cfg.Batching.LingerTicks, "batch-linger", 0, "exchange batch linger bound in poll-interval ticks (0 = default 1)")
	fs.BoolVar(&cfg.StateSpill.Enabled, "spill", false, "run keyed operator state on the spillable backend: bounded in-memory overlay over mmap'd on-disk segments")
	bindParsed(fs, &cfg.StateSpill.MaxResidentBytes, "spill-max-mb", "0", mebibytes, "per-instance resident-overlay budget in MiB for -spill (0 = backend default, 64)")
	fs.IntVar(&cfg.StateSpill.MaxOverlayEntries, "spill-max-entries", 0, "per-instance overlay entry budget for -spill (0 = backend default)")
	fs.StringVar(&cfg.StateSpill.Dir, "spill-dir", "", "directory for spilled state segments; default: a fresh temp dir removed after the run")
	fs.BoolVar(&cfg.Durability.Enabled, "durable", false, "enable the filesystem durability tier: disk-backed object store plus a WAL behind the message log (UNC/CIC)")
	fs.StringVar(&cfg.DurableDir, "wal-dir", "", "directory for durable files (blobs/ and wal/); default: a fresh temp dir removed after the run")
	bindParsed(fs, &cfg.Durability.Sync, "wal-sync", "group", wal.PolicyByName, "WAL sync policy for -durable: always, group or interval")
	fs.StringVar(&c.scenario, "scenario", "", "run one named hostile scenario (see -scenarios) under -protocol with transactional output and print its point")
	fs.BoolVar(&c.listScenarios, "scenarios", false, "list the registered hostile scenarios and exit")
	fs.StringVar(&c.benchScenarios, "bench-scenarios", "", "run the hostile-scenario matrix (scenario x COOR/UNC/CIC) and write machine-readable results to this file")

	fs.IntVar(&cfg.Cluster.Workers, "cluster", 0, "cluster worker count instances are placed on (0 = -workers)")
	bindParsed(fs, &cfg.Cluster.Policy, "placement", "", cluster.ParsePolicy, "placement policy: spread (default), round-robin, colocate")
	fs.IntVar(&cfg.FailWorker, "fail-worker", 0, "cluster worker killed at -failure-at (first worker of rack/rolling/flapping domains)")
	fs.StringVar(&cfg.FailDomain, "fail-domain", "", "failure domain at -failure-at: worker (default), rack, rolling, flapping")
	fs.IntVar(&cfg.FailRackSize, "rack-size", 0, "blast radius of rack/rolling failure domains (default 2)")
	fs.IntVar(&cfg.FailCount, "fail-count", 0, "crash count of the flapping failure domain (default 3)")
	fs.DurationVar(&cfg.FailInterval, "fail-interval", 0, "gap between successive rolling/flapping crashes (default duration/10)")
	fs.BoolVar(&cfg.Cluster.LocalCache, "local-cache", false, "enable the worker-local state cache (warm recovery on surviving workers)")

	fs.IntVar(&c.cpus, "cpus", 0, "pin runtime.GOMAXPROCS for the run (0 = leave the process setting)")

	fs.StringVar(&c.cpuProfile, "cpuprofile", "", "write a CPU profile of the run to this file on shutdown (clean or SIGINT/SIGTERM)")
	fs.StringVar(&c.memProfile, "memprofile", "", "write an allocation (heap) profile to this file on shutdown (clean or SIGINT/SIGTERM)")
	fs.StringVar(&c.mutexProfile, "mutexprofile", "", "write a mutex-contention profile to this file on shutdown")
	fs.StringVar(&c.blockProfile, "blockprofile", "", "write a blocking profile to this file on shutdown")

	fs.StringVar(&c.traceOut, "trace", "", "trace the checkpoint lifecycle and write a Chrome trace-event JSON to this file (load at ui.perfetto.dev)")
	fs.StringVar(&cfg.HTTPAddr, "http", "", "serve /metrics, /trace.json and /debug/pprof on this address for the duration of the run (e.g. :8080)")
	fs.StringVar(&c.checkTrace, "check-trace", "", "validate a Chrome trace file written by -trace (JSON parses, spans nest per track) and exit")
	return c
}

// parsedFlag is a flag whose text parses into a typed RunConfig field.
type parsedFlag[T any] struct {
	dst   *T
	text  string
	parse func(string) (T, error)
}

func (f *parsedFlag[T]) String() string { return f.text }

func (f *parsedFlag[T]) Set(s string) error {
	v, err := f.parse(s)
	if err != nil {
		return err
	}
	*f.dst, f.text = v, s
	return nil
}

// bindParsed registers a parsedFlag on fs and applies its default.
func bindParsed[T any](fs *flag.FlagSet, dst *T, name, def string, parse func(string) (T, error), usage string) {
	f := &parsedFlag[T]{dst: dst, parse: parse}
	if err := f.Set(def); err != nil {
		panic(err)
	}
	fs.Var(f, name, usage)
}

// outputByName parses the -output flag.
func outputByName(s string) (checkmate.OutputMode, error) {
	for _, m := range []checkmate.OutputMode{checkmate.OutputNone, checkmate.OutputImmediate, checkmate.OutputTransactional} {
		if m.String() == s {
			return m, nil
		}
	}
	return 0, fmt.Errorf("unknown output mode %q", s)
}

// mebibytes parses a MiB count into bytes.
func mebibytes(s string) (int, error) {
	n, err := strconv.Atoi(s)
	return n << 20, err
}

// applyPolicy swaps the -policy trigger policy into the UNC protocol; the
// trigger policies exist for UNC only.
func applyPolicy(cfg *checkmate.RunConfig, spec string) error {
	if spec == "" {
		return nil
	}
	if name := cfg.Protocol.Name(); name != "UNC" {
		return fmt.Errorf("checkmate: -policy applies to -protocol UNC only, not %s", name)
	}
	pol, err := parsePolicy(spec)
	if err != nil {
		return err
	}
	cfg.Protocol = checkmate.UNCWithPolicy(pol)
	return nil
}

func main() {
	var cfg checkmate.RunConfig
	cli := bindFlags(flag.CommandLine, &cfg)
	flag.Parse()

	if cli.checkTrace != "" {
		spans, err := checkmate.ValidateChromeTrace(cli.checkTrace)
		if err != nil {
			log.Fatalf("checkmate: trace %s: %v", cli.checkTrace, err)
		}
		fmt.Printf("%s: %d spans, nesting ok\n", cli.checkTrace, spans)
		return
	}
	if cli.listScenarios {
		for _, name := range checkmate.Scenarios() {
			fmt.Printf("%-24s %s\n", name, checkmate.ScenarioDoc(name))
		}
		fmt.Println("\nRun flags reach the scenario cell; the scenario's own settings above win on the fields they set.")
		return
	}
	if err := applyPolicy(&cfg, cli.policy); err != nil {
		log.Fatal(err)
	}

	if cli.cpus > 0 {
		runtime.GOMAXPROCS(cli.cpus)
	}
	stop, err := startProfiles(cli.cpuProfile, cli.memProfile, cli.mutexProfile, cli.blockProfile)
	if err != nil {
		log.Fatal(err)
	}
	// Flush profiles exactly once, on whichever exit path runs first —
	// the deferred clean shutdown or the signal handler below.
	var stopOnce sync.Once
	stopProfiles := func() { stopOnce.Do(stop) }
	defer stopProfiles()
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sigCh
		fmt.Fprintf(os.Stderr, "checkmate: %v — flushing profiles\n", s)
		stopProfiles()
		os.Exit(1)
	}()

	if cli.benchScenarios != "" {
		if err := runScenarioGrid(cli.benchScenarios); err != nil {
			log.Fatal(err)
		}
		return
	}
	if cli.traceOut != "" {
		cfg.Trace = checkmate.NewTracer(0)
	}
	if cli.scenario != "" {
		pt, err := checkmate.RunScenario(cli.scenario, cfg)
		if err != nil {
			log.Fatal(err)
		}
		writeTrace(cfg.Trace, cli.traceOut)
		printScenarioPoint(pt)
		if !pt.ExactlyOnce {
			log.Fatalf("checkmate: scenario %s/%s violated exactly-once: %d duplicate results",
				pt.Scenario, pt.Protocol, pt.DuplicateUIDs)
		}
		return
	}

	if cli.mst {
		cfg.Trace = nil // -trace covers single runs, not the search's probes
		v, err := checkmate.FindMST(checkmate.MSTConfig{Base: cfg, ProbeDuration: cfg.Duration / 4})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("maximum sustainable throughput: %.0f events/second\n", v)
		return
	}

	res, err := checkmate.Run(cfg)
	if err != nil {
		log.Fatal(err)
	}
	writeTrace(cfg.Trace, cli.traceOut)
	printResult(res)
	if !res.Sustainable && cfg.FailureAt == 0 {
		fmt.Fprintln(os.Stderr, "warning: the configured rate was not sustainable")
	}
}

// writeTrace exports the run's spans to path as a Chrome trace and
// re-validates the file (no-op without -trace).
func writeTrace(tr *checkmate.Tracer, path string) {
	if path == "" {
		return
	}
	if err := tr.WriteChromeFile(path); err != nil {
		log.Fatalf("checkmate: write trace: %v", err)
	}
	spans, err := checkmate.ValidateChromeTrace(path)
	if err != nil {
		log.Fatalf("checkmate: trace validation: %v", err)
	}
	fmt.Fprintf(os.Stderr, "wrote %d spans to %s\n", spans, path)
}

// startProfiles starts CPU profiling (when cpuPath is set) and enables
// mutex/block sampling (when their paths are set), returning a stop
// function that finalizes the CPU profile and writes the heap, mutex and
// block profiles. The stop function runs on clean shutdown — paths that
// exit through log.Fatal skip it by design.
func startProfiles(cpuPath, memPath, mutexPath, blockPath string) (func(), error) {
	var cpuF *os.File
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, err
		}
		cpuF = f
	}
	// Contention sampling is off by default in the runtime; it only costs
	// when a profile was requested. Fraction/rate 1 records every event —
	// the runs here are short and the point is diagnosing regressions, not
	// production overhead.
	if mutexPath != "" {
		runtime.SetMutexProfileFraction(1)
	}
	if blockPath != "" {
		runtime.SetBlockProfileRate(1)
	}
	writeLookup := func(name, path string) {
		if path == "" {
			return
		}
		f, err := os.Create(path)
		if err != nil {
			log.Printf("checkmate: create %s profile: %v", name, err)
			return
		}
		if err := pprof.Lookup(name).WriteTo(f, 0); err != nil {
			log.Printf("checkmate: write %s profile: %v", name, err)
		} else {
			fmt.Fprintf(os.Stderr, "wrote %s profile to %s\n", name, path)
		}
		f.Close()
	}
	return func() {
		if cpuF != nil {
			pprof.StopCPUProfile()
			if err := cpuF.Close(); err != nil {
				log.Printf("checkmate: close cpu profile: %v", err)
			} else {
				fmt.Fprintf(os.Stderr, "wrote CPU profile to %s\n", cpuPath)
			}
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				log.Printf("checkmate: create mem profile: %v", err)
				return
			}
			// Materialize the final live-heap picture; the profile also
			// carries cumulative allocation counts for alloc_objects views.
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				log.Printf("checkmate: write mem profile: %v", err)
			} else {
				fmt.Fprintf(os.Stderr, "wrote heap profile to %s\n", memPath)
			}
			f.Close()
		}
		writeLookup("mutex", mutexPath)
		writeLookup("block", blockPath)
	}, nil
}

// runScenarioGrid runs the full hostile-scenario matrix (every registered
// scenario x COOR/UNC/CIC, transactional output) and writes the
// machine-readable baseline consumed by the BENCH_scenarios.json
// trajectory. Every cell must come back exactly-once, and each scenario
// must demonstrably exercise its fault: brownouts inject store faults,
// outages enter degraded mode, worker scenarios recover every crash.
func runScenarioGrid(path string) error {
	type benchFile struct {
		GeneratedUnix int64 `json:"generated_unix"`
		// CPUs is the effective runtime.GOMAXPROCS of the grid;
		// PhysicalCPUs the container's core count.
		CPUs         int                       `json:"cpus"`
		PhysicalCPUs int                       `json:"physical_cpus"`
		Workers      int                       `json:"workers"`
		DurationMs   float64                   `json:"duration_ms"`
		Points       []checkmate.ScenarioPoint `json:"points"`
	}
	const cellDuration = 3 * time.Second
	out := benchFile{
		GeneratedUnix: time.Now().Unix(),
		CPUs:          runtime.GOMAXPROCS(0),
		PhysicalCPUs:  runtime.NumCPU(),
		Workers:       4,
		DurationMs:    float64(cellDuration) / 1e6,
	}
	for _, name := range checkmate.Scenarios() {
		for _, pn := range []string{"COOR", "UNC", "CIC"} {
			p, err := checkmate.ProtocolByName(pn)
			if err != nil {
				return err
			}
			pt, err := checkmate.RunScenario(name, checkmate.RunConfig{
				Config:   checkmate.EngineConfig{Protocol: p, Workers: out.Workers},
				Duration: cellDuration,
			})
			if err != nil {
				return fmt.Errorf("bench-scenarios %s/%s: %w", name, pn, err)
			}
			fmt.Printf("%-24s %-4s %9.0f rec/s  p99=%7.1fms  rounds=%d/%d abandoned  degraded=%5.0fms(%dx)  retries=%-3d  rto=%6.1fms  exactly-once=%v\n",
				pt.Scenario, pt.Protocol, pt.RecordsPerSec, pt.P99Millis,
				pt.RoundsCompleted, pt.RoundsAbandoned,
				pt.DegradedMillis, pt.DegradedEntries, pt.Retries, pt.RTOMillis, pt.ExactlyOnce)
			if !pt.ExactlyOnce {
				return fmt.Errorf("bench-scenarios: %s/%s violated exactly-once (%d duplicate results)",
					name, pn, pt.DuplicateUIDs)
			}
			if pt.Records == 0 || pt.OutputVisible == 0 {
				return fmt.Errorf("bench-scenarios: %s/%s produced no visible output", name, pn)
			}
			switch name {
			case "store-brownout":
				if pt.InjectedStoreErrors+pt.InjectedStoreSpikes == 0 {
					return fmt.Errorf("bench-scenarios: %s/%s injected no store faults", name, pn)
				}
			case "store-outage":
				if pt.InjectedStoreErrors == 0 {
					return fmt.Errorf("bench-scenarios: %s/%s injected no store errors", name, pn)
				}
			case "flapping-worker":
				if pt.Failures != 3 || !pt.Recovered {
					return fmt.Errorf("bench-scenarios: %s/%s failures=%d recovered=%v, want 3/true",
						name, pn, pt.Failures, pt.Recovered)
				}
			case "rack-loss-during-round":
				if pt.Failures == 0 || !pt.Recovered {
					return fmt.Errorf("bench-scenarios: %s/%s rack loss did not recover", name, pn)
				}
			}
			out.Points = append(out.Points, pt)
		}
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %d points to %s\n", len(out.Points), path)
	return nil
}

// printScenarioPoint prints one hostile-scenario cell the way printResult
// prints a plain run.
func printScenarioPoint(pt checkmate.ScenarioPoint) {
	fmt.Printf("scenario %s | protocol %s | query %s | %d workers\n",
		pt.Scenario, pt.Protocol, pt.Query, pt.Workers)
	fmt.Printf("  throughput:         %.0f rec/s (%d records in %.1fs)\n", pt.RecordsPerSec, pt.Records, pt.Seconds)
	fmt.Printf("  p50 / p99 latency:  %.1fms / %.1fms\n", pt.P50Millis, pt.P99Millis)
	fmt.Printf("  checkpoints:        %d total, %d invalid; rounds %d completed, %d abandoned\n",
		pt.Checkpoints, pt.InvalidCheckpoints, pt.RoundsCompleted, pt.RoundsAbandoned)
	if pt.Failures > 0 {
		fmt.Printf("  failures:           %d (recovered=%v, rto %.1fms)\n", pt.Failures, pt.Recovered, pt.RTOMillis)
	}
	if pt.RetryAttempts > 0 {
		fmt.Printf("  store retries:      %d attempts, %d retries, %d exhausted, %.1fms backoff\n",
			pt.RetryAttempts, pt.Retries, pt.RetryExhausted, pt.RetryBackoffMillis)
	}
	if pt.DegradedEntries > 0 {
		fmt.Printf("  degraded mode:      %d episode(s), %.0fms total, %d uploads shed\n",
			pt.DegradedEntries, pt.DegradedMillis, pt.UploadsShed)
	}
	if pt.InjectedStoreErrors+pt.InjectedStoreSpikes+pt.InjectedFsyncStalls > 0 {
		fmt.Printf("  injected faults:    %d store errors, %d latency spikes, %d fsync stalls\n",
			pt.InjectedStoreErrors, pt.InjectedStoreSpikes, pt.InjectedFsyncStalls)
	}
	fmt.Printf("  output:             %d visible, %d dup UIDs, %d replay-dedup drops\n",
		pt.OutputVisible, pt.DuplicateUIDs, pt.DupDropped)
	fmt.Printf("  exactly-once:       %v\n", pt.ExactlyOnce)
}

// parsePolicy parses the -policy flag: "fixed", "events=<n>" or
// "idle=<duration>".
func parsePolicy(s string) (checkmate.TriggerPolicy, error) {
	switch {
	case s == "fixed":
		return checkmate.IntervalPolicy{}, nil
	case len(s) > 7 && s[:7] == "events=":
		var n int
		if _, err := fmt.Sscanf(s[7:], "%d", &n); err != nil || n <= 0 {
			return nil, fmt.Errorf("checkmate: bad event budget %q", s)
		}
		return checkmate.EventCountPolicy{Events: n}, nil
	case len(s) > 5 && s[:5] == "idle=":
		d, err := time.ParseDuration(s[5:])
		if err != nil || d <= 0 {
			return nil, fmt.Errorf("checkmate: bad idle duration %q", s)
		}
		return checkmate.IdlePolicy{IdleFor: d}, nil
	default:
		return nil, fmt.Errorf("checkmate: unknown policy %q (want fixed, events=<n> or idle=<dur>)", s)
	}
}

func printResult(res checkmate.RunResult) {
	s := res.Summary
	fmt.Printf("query %s | protocol %s | %d workers | %.0f ev/s\n",
		res.Config.Query, res.Config.Protocol.Name(), res.Config.Workers, res.Config.Rate)
	fmt.Printf("  sustainable:        %v (max source lag %v)\n", res.Sustainable, res.MaxLag.Round(time.Millisecond))
	fmt.Printf("  sink records:       %d\n", s.SinkCount)
	fmt.Printf("  p50 / p99 latency:  %v / %v\n", s.Timeline.P50.Round(100*time.Microsecond), s.Timeline.P99.Round(100*time.Microsecond))
	fmt.Printf("  avg checkpoint:     %v\n", s.AvgCheckpointTime.Round(10*time.Microsecond))
	fmt.Printf("  checkpoints:        %d total, %d invalid, %d forced\n", s.TotalCheckpoints, s.InvalidCheckpoints, s.ForcedCkpts)
	fmt.Printf("  message overhead:   %.2fx (%d payload B, %d protocol B)\n", s.OverheadRatio, s.PayloadBytes, s.ProtocolBytes)
	fmt.Printf("  data/marker msgs:   %d / %d\n", s.DataMessages, s.MarkerMessages)
	if s.BatchesSent > 0 {
		fmt.Printf("  batches:            %d sent, avg %.1f rec/batch (max %d); flush: %d records, %d bytes, %d linger, %d control\n",
			s.BatchesSent, s.AvgBatchRecords, s.MaxBatchRecords,
			s.FlushRecords, s.FlushBytes, s.FlushLinger, s.FlushControl)
	}
	if s.Failures > 0 {
		fmt.Printf("  failure:            restart %v, recovery %v (recovered=%v)\n",
			s.RestartTime.Round(time.Millisecond), s.RecoveryTime.Round(time.Millisecond), s.Recovered)
		fmt.Printf("  replayed / dropped: %d / %d, rollback distance %d records\n",
			s.ReplayMessages, s.DupDropped, s.RollbackDistance)
	}
	for _, rto := range s.RTOs {
		fmt.Printf("  rto (worker %v):     detect %v | rollback %v | fetch %v | replay %v | catchup %v | total %v\n",
			rto.FailedWorkers,
			rto.Detect.Round(100*time.Microsecond), rto.Rollback.Round(100*time.Microsecond),
			rto.Fetch.Round(100*time.Microsecond), rto.Replay.Round(100*time.Microsecond),
			rto.CatchUp.Round(100*time.Microsecond), rto.Total.Round(100*time.Microsecond))
		fmt.Printf("    restored %d B (local %d, remote %d), cache %d hit / %d miss, scope %d instances on %d workers\n",
			rto.RestoredBytes, rto.LocalBytes, rto.RemoteBytes,
			rto.CacheHits, rto.CacheMisses, rto.ScopeInstances, rto.ScopeWorkers)
	}
	if s.SyncPauses > 0 {
		fmt.Printf("  ckpt pauses:        %d sync captures, max %v / mean %v / p99 %v; materialize %v, upload %v\n",
			s.SyncPauses, s.MaxSyncPause.Round(10*time.Microsecond),
			s.MeanSyncPause.Round(10*time.Microsecond), s.P99SyncPause.Round(10*time.Microsecond),
			s.MeanMaterialize.Round(10*time.Microsecond), s.MeanUpload.Round(10*time.Microsecond))
	}
	if len(s.RoundPhases) > 0 {
		fmt.Println("  checkpoint lifecycle (traced):")
		for _, p := range s.RoundPhases {
			fmt.Printf("    %-18s n=%-5d mean=%-10v max=%v\n",
				p.Name, p.Count, p.Mean().Round(time.Microsecond), p.Max.Round(time.Microsecond))
		}
	}
	if s.FullKeyedCkpts+s.DeltaKeyedCkpts > 0 {
		fmt.Printf("  keyed snapshots:    %d full (%d B), %d delta (%d B), max chain %d\n",
			s.FullKeyedCkpts, s.FullKeyedBytes, s.DeltaKeyedCkpts, s.DeltaKeyedBytes, s.MaxChainLen)
	}
	if s.GCCheckpoints > 0 {
		fmt.Printf("  gc reclaimed:       %d checkpoints (%d bytes)\n", s.GCCheckpoints, s.GCBytes)
	}
	if s.WatermarkMessages > 0 {
		fmt.Printf("  watermarks:         %d\n", s.WatermarkMessages)
	}
	if res.Output.Emitted > 0 {
		fmt.Printf("  output:             %d visible, %d dup UIDs, %d discarded, %d pending; vis p50/p99 %v / %v\n",
			res.Output.Visible, res.DuplicateUIDs, res.Output.Discarded, res.Output.Pending,
			res.VisibilityP50.Round(time.Millisecond), res.VisibilityP99.Round(time.Millisecond))
	}
	c := res.Chaos
	if c.Retry.Retries > 0 || c.RoundsAbandoned > 0 || c.DegradedEntries > 0 {
		fmt.Printf("  store retries:      %d attempts, %d retries, %d exhausted, %v backoff\n",
			c.Retry.Attempts, c.Retry.Retries, c.Retry.Exhausted, c.Retry.Backoff.Round(100*time.Microsecond))
		if c.RoundsAbandoned > 0 {
			fmt.Printf("  rounds abandoned:   %d (watchdog)\n", c.RoundsAbandoned)
		}
		if c.DegradedEntries > 0 {
			fmt.Printf("  degraded mode:      %d episode(s), %v total, %d uploads shed\n",
				c.DegradedEntries, c.DegradedTime.Round(time.Millisecond), c.UploadsShed)
		}
	}
	if c.Injected.StoreErrors+c.Injected.StoreSpikes+c.Injected.FsyncStalls > 0 {
		fmt.Printf("  injected faults:    %d store errors, %d latency spikes, %d fsync stalls\n",
			c.Injected.StoreErrors, c.Injected.StoreSpikes, c.Injected.FsyncStalls)
	}
	if res.Scope.Instances > 0 {
		fmt.Printf("  rollback scope:     avg %.1f / max %d of %d instances (avg depth %.2f)\n",
			res.Scope.AvgScope, res.Scope.MaxScope, res.Scope.Instances, res.Scope.AvgDepth)
	}
	if res.Config.StateSpill.Enabled {
		fmt.Printf("  spillable state:    resident %.2f MB, mapped %.2f MB, %d segments; %d spills, %d compactions, %d errors\n",
			float64(res.Spill.ResidentBytes)/(1<<20), float64(res.Spill.MappedBytes)/(1<<20),
			res.Spill.Segments, res.Spill.Spills, res.Spill.Compactions, res.Spill.Errors)
	}
	if res.Config.Durability.Enabled {
		fmt.Printf("  durability:         wal-sync=%s, store fsyncs %d\n", res.Config.Durability.Sync, res.Store.Fsyncs)
		if res.WAL.Appends > 0 {
			amort := float64(res.WAL.Appends) / float64(max64(res.WAL.Fsyncs, 1))
			fmt.Printf("    wal: %d appends, %d fsyncs (%.1f appends/fsync), %d B written, %d segments, %d recovered\n",
				res.WAL.Appends, res.WAL.Fsyncs, amort, res.WAL.BytesWritten, res.WAL.SegmentsCreated, res.WAL.Recovered)
		}
	}
	for _, n := range s.Notes {
		fmt.Printf("  note: %s\n", n)
	}
	fmt.Println("\nper-second p50/p99 (ms):")
	for _, pt := range s.Timeline.Points {
		fmt.Printf("  t=%5.1fs  n=%7d  p50=%8.2f  p99=%8.2f\n",
			pt.Start.Seconds(), pt.Count,
			float64(pt.P50)/1e6, float64(pt.P99)/1e6)
	}
}

func max64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}
