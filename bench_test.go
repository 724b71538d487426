// Benchmarks reproducing every table and figure of the paper's evaluation
// section (§VII). Each benchmark runs one experiment of the suite and
// prints the corresponding table; b.N iterations re-print cached results,
// so the measured time approximates the experiment cost.
//
// Default configuration: 20x time-compressed schedule (3 s runs standing
// in for the paper's 60 s), reduced parallelism grid {4, 8}. Set
// CHECKMATE_FULL=1 for the paper-scale sweep (60 s runs, 5..100 workers;
// expect hours), or CHECKMATE_SCALE / CHECKMATE_WORKERS to interpolate.
package checkmate_test

import (
	"fmt"
	"os"
	"strconv"
	"sync"
	"testing"
	"time"

	"checkmate"
	"checkmate/internal/metrics"
)

var (
	suiteOnce sync.Once
	suite     *checkmate.Suite
)

// benchSuite returns the shared experiment suite. Sharing it across
// benchmarks reuses the MST cache and measured cells exactly like the
// paper reuses its measured MSTs for the 80%- and 50%-load runs.
func benchSuite() *checkmate.Suite {
	suiteOnce.Do(func() {
		if os.Getenv("CHECKMATE_FULL") == "1" {
			suite = checkmate.FullPaperSuite()
			return
		}
		suite = checkmate.NewSuite()
		if v := os.Getenv("CHECKMATE_SCALE"); v != "" {
			if f, err := strconv.ParseFloat(v, 64); err == nil && f > 0 {
				suite.Scale = f
			}
		}
		if v := os.Getenv("CHECKMATE_WORKERS"); v != "" {
			if n, err := strconv.Atoi(v); err == nil && n > 0 {
				suite.Workers = []int{n}
				suite.TableWorkers = []int{n}
				suite.TimelineWorkers = []int{n}
				suite.CyclicWorkers = []int{n}
				suite.SkewWorkers = n
			}
		}
	})
	return suite
}

func printTables(b *testing.B, tables []*metrics.Table, err error) {
	b.Helper()
	if err != nil {
		b.Fatal(err)
	}
	for _, t := range tables {
		fmt.Println(t.String())
	}
}

// BenchmarkTableI_Features prints the qualitative protocol feature matrix
// (paper Table I).
func BenchmarkTableI_Features(b *testing.B) {
	s := benchSuite()
	for i := 0; i < b.N; i++ {
		printTables(b, []*metrics.Table{s.TableIFeatures()}, nil)
	}
}

// BenchmarkFig7_MST reproduces Figure 7: normalized maximum sustainable
// throughput per query, protocol and parallelism.
func BenchmarkFig7_MST(b *testing.B) {
	s := benchSuite()
	for i := 0; i < b.N; i++ {
		t, err := s.Fig7MST()
		printTables(b, []*metrics.Table{t}, err)
	}
}

// BenchmarkTableII_MessageOverhead reproduces Table II: message overhead
// ratio vs a checkpoint-free execution at 80% MST.
func BenchmarkTableII_MessageOverhead(b *testing.B) {
	s := benchSuite()
	for i := 0; i < b.N; i++ {
		t, err := s.TableIIOverhead()
		printTables(b, []*metrics.Table{t}, err)
	}
}

// BenchmarkFig8_CheckpointTime reproduces Figure 8: average checkpointing
// time per query and parallelism.
func BenchmarkFig8_CheckpointTime(b *testing.B) {
	s := benchSuite()
	for i := 0; i < b.N; i++ {
		t, err := s.Fig8CheckpointTime()
		printTables(b, []*metrics.Table{t}, err)
	}
}

// BenchmarkFig9_LatencyP50 reproduces Figure 9: per-second 50th percentile
// latency with a failure at the 18-second (paper time) mark.
func BenchmarkFig9_LatencyP50(b *testing.B) {
	s := benchSuite()
	for i := 0; i < b.N; i++ {
		ts, err := s.FigLatencyTimeline(50)
		printTables(b, ts, err)
	}
}

// BenchmarkFig10_LatencyP99 reproduces Figure 10: per-second 99th
// percentile latency with a failure.
func BenchmarkFig10_LatencyP99(b *testing.B) {
	s := benchSuite()
	for i := 0; i < b.N; i++ {
		ts, err := s.FigLatencyTimeline(99)
		printTables(b, ts, err)
	}
}

// BenchmarkFig11_RestartTime reproduces Figure 11: restart time after
// failure per query and parallelism.
func BenchmarkFig11_RestartTime(b *testing.B) {
	s := benchSuite()
	for i := 0; i < b.N; i++ {
		t, err := s.Fig11RestartTime()
		printTables(b, []*metrics.Table{t}, err)
	}
}

// BenchmarkRecoveryTime complements Figure 11 with the paper's recovery
// (catch-up) time discussion.
func BenchmarkRecoveryTime(b *testing.B) {
	s := benchSuite()
	for i := 0; i < b.N; i++ {
		t, err := s.RecoveryTimeTable()
		printTables(b, []*metrics.Table{t}, err)
	}
}

// BenchmarkTableIII_InvalidCheckpoints reproduces Table III: total and
// invalid checkpoints.
func BenchmarkTableIII_InvalidCheckpoints(b *testing.B) {
	s := benchSuite()
	for i := 0; i < b.N; i++ {
		t, err := s.TableIIIInvalid()
		printTables(b, []*metrics.Table{t}, err)
	}
}

// BenchmarkFig12_Skew50 reproduces Figure 12a: p50 latency and average
// checkpointing time under hot items at 50% of the non-skewed MST.
func BenchmarkFig12_Skew50(b *testing.B) {
	s := benchSuite()
	for i := 0; i < b.N; i++ {
		t, err := s.Fig12Skew(0.5)
		printTables(b, []*metrics.Table{t}, err)
	}
}

// BenchmarkFig12_Skew80 reproduces Figure 12b: the same at 80% of the
// non-skewed MST.
func BenchmarkFig12_Skew80(b *testing.B) {
	s := benchSuite()
	for i := 0; i < b.N; i++ {
		t, err := s.Fig12Skew(0.8)
		printTables(b, []*metrics.Table{t}, err)
	}
}

// BenchmarkFig13_SkewRestart reproduces Figure 13: restart time under skew
// with a failure at 50% MST.
func BenchmarkFig13_SkewRestart(b *testing.B) {
	s := benchSuite()
	for i := 0; i < b.N; i++ {
		t, err := s.Fig13SkewRestart()
		printTables(b, []*metrics.Table{t}, err)
	}
}

// BenchmarkTableIV_Cyclic reproduces Table IV: checkpointing time, restart
// time and invalid checkpoints of UNC and CIC on the cyclic reachability
// query.
func BenchmarkTableIV_Cyclic(b *testing.B) {
	s := benchSuite()
	for i := 0; i < b.N; i++ {
		t, err := s.TableIVCyclic()
		printTables(b, []*metrics.Table{t}, err)
	}
}

// BenchmarkExtensionUnaligned compares aligned vs unaligned coordinated
// checkpoints under skew (the paper's discussion of backpressure and
// straggler stalls; Flink's unaligned checkpoints).
func BenchmarkExtensionUnaligned(b *testing.B) {
	s := benchSuite()
	for i := 0; i < b.N; i++ {
		t, err := s.ExtensionUnalignedTable()
		printTables(b, []*metrics.Table{t}, err)
	}
}

// BenchmarkExtensionCICVariants compares HMNR against BCS, reproducing the
// paper's stated reason for adopting HMNR.
func BenchmarkExtensionCICVariants(b *testing.B) {
	s := benchSuite()
	for i := 0; i < b.N; i++ {
		t, err := s.ExtensionCICVariantsTable()
		printTables(b, []*metrics.Table{t}, err)
	}
}

// BenchmarkExtensionUnalignedCyclic runs the unaligned coordinated protocol
// on the cyclic query, which the aligned variant cannot execute.
func BenchmarkExtensionUnalignedCyclic(b *testing.B) {
	s := benchSuite()
	for i := 0; i < b.N; i++ {
		t, err := s.ExtensionUnalignedCyclicTable()
		printTables(b, []*metrics.Table{t}, err)
	}
}

// BenchmarkExtensionOutput contrasts exactly-once processing with
// exactly-once output (the paper's §II-A distinction): immediate sinks show
// the external consumer duplicated results after a failure; transactional
// (epoch-committed) sinks never do, trading output-visibility latency.
func BenchmarkExtensionOutput(b *testing.B) {
	s := benchSuite()
	for i := 0; i < b.N; i++ {
		t, err := s.ExtensionOutputTable()
		printTables(b, []*metrics.Table{t}, err)
	}
}

// BenchmarkExtensionEventTime verifies the paper's §VI claim that the type
// of time window (processing vs event time) does not affect checkpointing
// performance, by running Q12 against its event-time twin q12et.
func BenchmarkExtensionEventTime(b *testing.B) {
	s := benchSuite()
	for i := 0; i < b.N; i++ {
		t, err := s.ExtensionEventTimeTable()
		printTables(b, []*metrics.Table{t}, err)
	}
}

// BenchmarkAblationCompression measures checkpoint compression: store
// bytes saved vs checkpoint-time cost on the stateful join query.
func BenchmarkAblationCompression(b *testing.B) {
	s := benchSuite()
	for i := 0; i < b.N; i++ {
		t, err := s.AblationCompressionTable()
		printTables(b, []*metrics.Table{t}, err)
	}
}

// BenchmarkExtensionRollbackScope quantifies the partial-recovery
// potential of the uncoordinated protocol: the rollback-dependency-graph
// scope of every possible single-instance failure, per query topology.
func BenchmarkExtensionRollbackScope(b *testing.B) {
	s := benchSuite()
	for i := 0; i < b.N; i++ {
		t, err := s.ExtensionRollbackScopeTable()
		printTables(b, []*metrics.Table{t}, err)
	}
}

// BenchmarkAblationCheckpointInterval sweeps the checkpoint interval for
// UNC on Q3, isolating the trade-off DESIGN.md calls out: shorter intervals
// shrink replay/rollback on failure but cost throughput.
func BenchmarkAblationCheckpointInterval(b *testing.B) {
	s := benchSuite()
	for i := 0; i < b.N; i++ {
		t := metrics.NewTable("Ablation: UNC checkpoint interval on q3 (8 workers)",
			"Interval(paper-s)", "p50(ms)", "avgCT(ms)", "ckpts", "replayed", "restart(ms)")
		for _, paperSec := range []float64{2, 6, 15} {
			res, err := checkmate.Run(checkmate.RunConfig{
				Config: checkmate.EngineConfig{
					Protocol: checkmate.UNC(), Workers: 8,
					CheckpointInterval: scaled(s, paperSec), Seed: 1,
				},
				Query: "q3", Rate: 20000, Duration: scaled(s, 60),
				FailureAt: scaled(s, 18),
			})
			if err != nil {
				b.Fatal(err)
			}
			t.AddRow(paperSec,
				float64(res.Summary.Timeline.P50.Milliseconds()),
				float64(res.Summary.AvgCheckpointTime.Microseconds())/1000,
				res.Summary.TotalCheckpoints,
				res.Summary.ReplayMessages,
				float64(res.Summary.RestartTime.Milliseconds()))
		}
		fmt.Println(t.String())
	}
}

// BenchmarkAblationChannelCap sweeps the channel capacity (backpressure
// depth) for COOR on Q8: deeper channels delay marker alignment.
func BenchmarkAblationChannelCap(b *testing.B) {
	s := benchSuite()
	for i := 0; i < b.N; i++ {
		t := metrics.NewTable("Ablation: COOR channel capacity on q8 (8 workers)",
			"Cap", "p50(ms)", "p99(ms)", "roundCT(ms)")
		for _, cap := range []int{16, 128, 1024} {
			res, err := checkmate.Run(checkmate.RunConfig{
				Config: checkmate.EngineConfig{
					Protocol: checkmate.COOR(), Workers: 8,
					CheckpointInterval: scaled(s, 6), ChannelCap: cap, Seed: 1,
				},
				Query: "q8", Rate: 20000, Duration: scaled(s, 60),
			})
			if err != nil {
				b.Fatal(err)
			}
			t.AddRow(cap,
				float64(res.Summary.Timeline.P50.Milliseconds()),
				float64(res.Summary.Timeline.P99.Milliseconds()),
				float64(res.Summary.AvgCheckpointTime.Microseconds())/1000)
		}
		fmt.Println(t.String())
	}
}

// BenchmarkAblationNetCost sweeps the synthetic per-byte network cost to
// show how CIC's piggyback overhead converts into throughput loss.
func BenchmarkAblationNetCost(b *testing.B) {
	s := benchSuite()
	for i := 0; i < b.N; i++ {
		t := metrics.NewTable("Ablation: per-byte network cost vs CIC overhead on q1 (8 workers)",
			"NetFactor", "CIC p50(ms)", "CIC overhead", "lag(ms)")
		for _, nf := range []int{1, 4, 16} {
			res, err := checkmate.Run(checkmate.RunConfig{
				Config: checkmate.EngineConfig{
					Protocol: checkmate.CIC(), Workers: 8,
					CheckpointInterval: scaled(s, 6), NetWorkFactor: nf, Seed: 1,
				},
				Query: "q1", Rate: 30000, Duration: scaled(s, 30),
			})
			if err != nil {
				b.Fatal(err)
			}
			t.AddRow(nf,
				float64(res.Summary.Timeline.P50.Milliseconds()),
				fmt.Sprintf("%.2fx", res.Summary.OverheadRatio),
				float64(res.MaxLag.Milliseconds()))
		}
		fmt.Println(t.String())
	}
}

// BenchmarkExtensionQ2Q5 exercises the workload-library extension queries:
// Q2 (stateless selection) and Q5 (sliding-window hot items) under every
// protocol family.
func BenchmarkExtensionQ2Q5(b *testing.B) {
	s := benchSuite()
	for i := 0; i < b.N; i++ {
		t := metrics.NewTable("Extension: Q2 and Q5 under all protocols (4 workers)",
			"Query", "Protocol", "sink", "p50(ms)", "avgCT(ms)", "ckpts")
		for _, q := range []string{"q2", "q5"} {
			for _, p := range checkmate.AllProtocols() {
				res, err := checkmate.Run(checkmate.RunConfig{
					Config: checkmate.EngineConfig{
						Protocol: p, Workers: 4, CheckpointInterval: scaled(s, 6), Seed: 1,
					},
					Query: q, Rate: 15000, Duration: scaled(s, 30), Window: scaled(s, 10),
					Slide: scaled(s, 5),
				})
				if err != nil {
					b.Fatal(err)
				}
				t.AddRow(q, p.Name(), res.Summary.SinkCount,
					float64(res.Summary.Timeline.P50.Milliseconds()),
					float64(res.Summary.AvgCheckpointTime.Microseconds())/1000,
					res.Summary.TotalCheckpoints)
			}
		}
		fmt.Println(t.String())
	}
}

// BenchmarkExtensionSemantics compares the three processing guarantees
// (paper §II-A Definitions 1-3) under UNC with a mid-run failure: the
// exactly-once run is exact; at-least-once may overshoot (duplicates);
// at-most-once undershoots (gap recovery losses).
func BenchmarkExtensionSemantics(b *testing.B) {
	s := benchSuite()
	for i := 0; i < b.N; i++ {
		t := metrics.NewTable("Extension: processing guarantees under failure, UNC on q1 (4 workers)",
			"Semantics", "sink", "replayed", "dup-dropped", "restart(ms)")
		for _, sem := range []checkmate.Semantics{
			checkmate.ExactlyOnce, checkmate.AtLeastOnce, checkmate.AtMostOnce,
		} {
			res, err := checkmate.Run(checkmate.RunConfig{
				Config: checkmate.EngineConfig{
					Protocol: checkmate.UNC(), Workers: 4,
					CheckpointInterval: scaled(s, 6), Semantics: sem, Seed: 1,
				},
				Query: "q1", Rate: 15000, Duration: scaled(s, 30),
				FailureAt: scaled(s, 12),
			})
			if err != nil {
				b.Fatal(err)
			}
			t.AddRow(sem.String(), res.Summary.SinkCount, res.Summary.ReplayMessages,
				res.Summary.DupDropped,
				float64(res.Summary.RestartTime.Milliseconds()))
		}
		fmt.Println(t.String())
	}
}

// BenchmarkAblationTriggerPolicy sweeps the uncoordinated checkpoint
// trigger policies (§III-B's configurability): tighter triggers take more
// checkpoints but bound the replay volume on recovery.
func BenchmarkAblationTriggerPolicy(b *testing.B) {
	s := benchSuite()
	policies := []checkmate.Protocol{
		checkmate.UNC(),
		checkmate.UNCWithPolicy(checkmate.IntervalPolicy{}),
		checkmate.UNCWithPolicy(checkmate.EventCountPolicy{Events: 500}),
		checkmate.UNCWithPolicy(checkmate.IdlePolicy{IdleFor: scaled(s, 0.5)}),
	}
	for i := 0; i < b.N; i++ {
		t := metrics.NewTable("Ablation: UNC trigger policies on q12 (4 workers, failure mid-run)",
			"Policy", "ckpts", "invalid", "replayed", "restart(ms)")
		for _, p := range policies {
			res, err := checkmate.Run(checkmate.RunConfig{
				Config: checkmate.EngineConfig{
					Protocol: p, Workers: 4, CheckpointInterval: scaled(s, 6), Seed: 1,
				},
				Query: "q12", Rate: 15000, Duration: scaled(s, 30),
				FailureAt: scaled(s, 12), Window: scaled(s, 10),
			})
			if err != nil {
				b.Fatal(err)
			}
			t.AddRow(p.Name(), res.Summary.TotalCheckpoints,
				res.Summary.InvalidCheckpoints, res.Summary.ReplayedOnRecovery,
				float64(res.Summary.RestartTime.Milliseconds()))
		}
		fmt.Println(t.String())
	}
}

// BenchmarkExtensionStraggler isolates the paper's skew mechanism: a
// synthetic per-event delay on one worker (no data skew at all) inflates
// COOR's round time by orders of magnitude while UNC keeps checkpointing
// locally — the cause behind Figure 12 reduced to its essence.
func BenchmarkExtensionStraggler(b *testing.B) {
	s := benchSuite()
	for i := 0; i < b.N; i++ {
		t := metrics.NewTable("Extension: synthetic straggler (4 workers, q12)",
			"Protocol", "Delay/event", "p50(ms)", "avgCT(ms)")
		for _, p := range []checkmate.Protocol{checkmate.COOR(), checkmate.UNC()} {
			for _, delay := range []time.Duration{0, 200 * time.Microsecond} {
				res, err := checkmate.Run(checkmate.RunConfig{
					Config: checkmate.EngineConfig{
						Protocol: p, Workers: 4, CheckpointInterval: scaled(s, 6),
						StragglerDelay: delay, Seed: 1,
					},
					Query: "q12", Rate: 8000, Duration: scaled(s, 30),
					Window: scaled(s, 10),
				})
				if err != nil {
					b.Fatal(err)
				}
				t.AddRow(p.Name(), delay.String(),
					float64(res.Summary.Timeline.P50.Milliseconds()),
					float64(res.Summary.AvgCheckpointTime.Microseconds())/1000)
			}
		}
		fmt.Println(t.String())
	}
}

// BenchmarkAblationCheckpointGC measures what checkpoint garbage collection
// reclaims: the paper motivates GC by the storage that invalid and
// superseded checkpoints waste.
func BenchmarkAblationCheckpointGC(b *testing.B) {
	s := benchSuite()
	for i := 0; i < b.N; i++ {
		t := metrics.NewTable("Ablation: checkpoint GC on q3 (4 workers, UNC)",
			"GC", "ckpts", "reclaimed", "reclaimedKB")
		for _, gc := range []bool{false, true} {
			res, err := checkmate.Run(checkmate.RunConfig{
				Config: checkmate.EngineConfig{
					Protocol: checkmate.UNC(), Workers: 4,
					CheckpointInterval: scaled(s, 4), CheckpointGC: gc, Seed: 1,
				},
				Query: "q3", Rate: 15000, Duration: scaled(s, 30),
			})
			if err != nil {
				b.Fatal(err)
			}
			t.AddRow(gc, res.Summary.TotalCheckpoints, res.Summary.GCCheckpoints,
				res.Summary.GCBytes/1024)
		}
		fmt.Println(t.String())
	}
}

// scaled converts paper-time seconds into the suite's compressed wall time.
func scaled(s *checkmate.Suite, paperSeconds float64) time.Duration {
	return time.Duration(paperSeconds * s.Scale * float64(time.Second))
}
