package harness

import (
	"fmt"
	"time"

	"checkmate/internal/core"
	"checkmate/internal/metrics"
	"checkmate/internal/protocol"
)

// ExtensionUnalignedTable compares aligned vs unaligned coordinated
// checkpoints under skew — the fix the paper's discussion of straggler
// stalls and backpressure points at (Flink's unaligned checkpoints).
// Unaligned markers overtake queued data, so the checkpointing time should
// stay flat as the hot-item ratio grows, while the aligned round time blows
// up with the straggler.
func (s *Suite) ExtensionUnalignedTable() (*metrics.Table, error) {
	t := metrics.NewTable(
		fmt.Sprintf("Extension: aligned vs unaligned coordinated under skew (%d workers, q12, 50%% MST)", s.SkewWorkers),
		"HotRatio", "COOR p50(ms)", "UCOOR p50(ms)", "COOR CT(ms)", "UCOOR CT(ms)")
	for _, hot := range s.SkewRatios {
		row := []any{fmt.Sprintf("%.0f%%", hot*100)}
		var cts []string
		for _, p := range []core.Protocol{protocol.Coordinated{}, protocol.UnalignedCoordinated{}} {
			res, err := s.cell("q12", p, s.SkewWorkers, 0.5, hot, false)
			if err != nil {
				return nil, err
			}
			row = append(row, fmt.Sprintf("%.1f", ms(res.Summary.Timeline.P50)))
			cts = append(cts, fmt.Sprintf("%.2f", ms(res.Summary.AvgCheckpointTime)))
		}
		for _, ct := range cts {
			row = append(row, ct)
		}
		t.AddRow(row...)
	}
	return t, nil
}

// ExtensionCICVariantsTable compares the two communication-induced
// protocols the paper considered: HMNR (adopted) and BCS (rejected after
// "initial tests"). BCS piggybacks a single index (tiny messages) but
// forces a checkpoint whenever the sender is ahead, producing far more
// checkpoints; HMNR piggybacks large vectors but forces rarely.
func (s *Suite) ExtensionCICVariantsTable() (*metrics.Table, error) {
	t := metrics.NewTable(
		"Extension: CIC variants — HMNR (paper's choice) vs BCS (q3, 80% of HMNR MST)",
		"Workers", "Protocol", "Overhead", "Ckpts", "Forced", "p50(ms)")
	for _, w := range s.TableWorkers {
		// Both run at the same absolute rate (HMNR's 80% MST) so the
		// forced-checkpoint behaviour is compared under identical load.
		m, err := s.mst("q3", protocol.CIC{}, w)
		if err != nil {
			return nil, err
		}
		for _, p := range []core.Protocol{protocol.CIC{}, protocol.BCS{}} {
			cfg := s.base("q3", p, w)
			cfg.Rate = m * 0.8
			s.logf("run q3 %-5s %2dw rate=%.0f (CIC variants)", p.Name(), w, cfg.Rate)
			res, err := Run(cfg)
			if err != nil {
				return nil, err
			}
			t.AddRow(w, p.Name(),
				fmt.Sprintf("%.2fx", res.Summary.OverheadRatio),
				res.Summary.TotalCheckpoints,
				res.Summary.ForcedCkpts,
				fmt.Sprintf("%.1f", ms(res.Summary.Timeline.P50)))
		}
	}
	return t, nil
}

// ExtensionUnalignedCyclicTable runs the unaligned coordinated protocol on
// the cyclic reachability query — impossible for the aligned variant —
// extending Table IV with a third protocol.
func (s *Suite) ExtensionUnalignedCyclicTable() (*metrics.Table, error) {
	t := metrics.NewTable("Extension: unaligned coordinated on the cyclic query",
		"Workers", "Protocol", "CT(ms)", "RT(ms)", "Sink records")
	for _, w := range s.CyclicWorkers {
		p := protocol.UnalignedCoordinated{}
		m, err := s.cyclicMST(p, w)
		if err != nil {
			return nil, err
		}
		cfg := s.base(QueryCyclic, p, w)
		cfg.Rate = m * 0.775
		cfg.FailureAt = s.dur(48)
		cfg.Nodes = 1_000_000
		s.logf("run cyclic UCOOR %2dw rate=%.0f", w, cfg.Rate)
		res, err := Run(cfg)
		if err != nil {
			return nil, err
		}
		t.AddRow(w, p.Name(),
			fmt.Sprintf("%.2f", ms(res.Summary.AvgCheckpointTime)),
			fmt.Sprintf("%.1f", ms(res.Summary.RestartTime)),
			res.Summary.SinkCount)
	}
	return t, nil
}

// ExtensionSemanticsTable compares the three processing guarantees of the
// paper's §II-A (Definitions 1-3) under the uncoordinated protocol with a
// mid-run failure.
func (s *Suite) ExtensionSemanticsTable() (*metrics.Table, error) {
	t := metrics.NewTable(
		fmt.Sprintf("Extension: processing guarantees under failure (UNC, q1, %d workers)", s.SkewWorkers),
		"Semantics", "sink", "replayed", "dup-dropped", "restart(ms)")
	for _, sem := range []core.Semantics{core.ExactlyOnce, core.AtLeastOnce, core.AtMostOnce} {
		cfg := s.base("q1", protocol.Uncoordinated{}, s.SkewWorkers)
		cfg.Rate = 15000
		cfg.Duration = s.dur(30)
		cfg.FailureAt = s.dur(12)
		cfg.Semantics = sem
		res, err := Run(cfg)
		if err != nil {
			return nil, err
		}
		t.AddRow(sem.String(), res.Summary.SinkCount, res.Summary.ReplayMessages,
			res.Summary.DupDropped, fmt.Sprintf("%.1f", ms(res.Summary.RestartTime)))
	}
	return t, nil
}

// AblationTriggerPolicyTable sweeps the uncoordinated checkpoint trigger
// policies: tighter triggers take more checkpoints but bound the replay
// volume on recovery (§III-B's configurability).
func (s *Suite) AblationTriggerPolicyTable() (*metrics.Table, error) {
	t := metrics.NewTable(
		fmt.Sprintf("Ablation: UNC trigger policies (q12, %d workers, failure mid-run)", s.SkewWorkers),
		"Policy", "ckpts", "invalid", "replayed", "restart(ms)")
	policies := []core.Protocol{
		protocol.Uncoordinated{},
		protocol.UncoordinatedWithPolicy{Policy: protocol.Interval{}},
		protocol.UncoordinatedWithPolicy{Policy: protocol.EventCount{Events: 500}},
		protocol.UncoordinatedWithPolicy{Policy: protocol.Idle{IdleFor: s.dur(0.5)}},
	}
	for _, p := range policies {
		cfg := s.base("q12", p, s.SkewWorkers)
		cfg.Rate = 15000
		cfg.Duration = s.dur(30)
		cfg.FailureAt = s.dur(12)
		res, err := Run(cfg)
		if err != nil {
			return nil, err
		}
		t.AddRow(p.Name(), res.Summary.TotalCheckpoints, res.Summary.InvalidCheckpoints,
			res.Summary.ReplayedOnRecovery, fmt.Sprintf("%.1f", ms(res.Summary.RestartTime)))
	}
	return t, nil
}

// ExtensionStragglerTable reduces the paper's skew finding (Fig. 12) to its
// mechanism: a synthetic per-event delay on one worker — no data skew —
// inflates the coordinated round time while UNC keeps checkpointing locally.
func (s *Suite) ExtensionStragglerTable() (*metrics.Table, error) {
	t := metrics.NewTable(
		fmt.Sprintf("Extension: synthetic straggler (q12, %d workers)", s.SkewWorkers),
		"Protocol", "Delay/event", "p50(ms)", "CT(ms)")
	for _, p := range []core.Protocol{protocol.Coordinated{}, protocol.Uncoordinated{}} {
		for _, delay := range []time.Duration{0, 200 * time.Microsecond} {
			cfg := s.base("q12", p, s.SkewWorkers)
			cfg.Rate = 8000
			cfg.Duration = s.dur(30)
			cfg.StragglerDelay = delay
			res, err := Run(cfg)
			if err != nil {
				return nil, err
			}
			t.AddRow(p.Name(), delay.String(),
				fmt.Sprintf("%.1f", ms(res.Summary.Timeline.P50)),
				fmt.Sprintf("%.2f", ms(res.Summary.AvgCheckpointTime)))
		}
	}
	return t, nil
}

// AblationGCTable measures what checkpoint garbage collection reclaims —
// the storage waste of superseded checkpoints the paper's invalid-checkpoint
// discussion motivates.
func (s *Suite) AblationGCTable() (*metrics.Table, error) {
	t := metrics.NewTable(
		fmt.Sprintf("Ablation: checkpoint GC (q3, %d workers, UNC)", s.SkewWorkers),
		"GC", "ckpts", "reclaimed", "reclaimedKB")
	for _, gc := range []bool{false, true} {
		cfg := s.base("q3", protocol.Uncoordinated{}, s.SkewWorkers)
		cfg.Rate = 15000
		cfg.Duration = s.dur(30)
		cfg.CheckpointInterval = s.dur(4)
		cfg.CheckpointGC = gc
		res, err := Run(cfg)
		if err != nil {
			return nil, err
		}
		t.AddRow(gc, res.Summary.TotalCheckpoints, res.Summary.GCCheckpoints,
			res.Summary.GCBytes/1024)
	}
	return t, nil
}

// ExtensionNewQueriesTable exercises the workload-library extension queries
// (Q2 selection, Q4 category averages, Q5 sliding-window hot items, Q7
// global window maximum, Q11 session windows) under every protocol family.
func (s *Suite) ExtensionNewQueriesTable() (*metrics.Table, error) {
	t := metrics.NewTable(
		fmt.Sprintf("Extension: Q2/Q4/Q5/Q7/Q11 under all protocols (%d workers)", s.SkewWorkers),
		"Query", "Protocol", "sink", "p50(ms)", "CT(ms)", "ckpts")
	for _, q := range []string{"q2", "q4", "q5", "q7", "q11"} {
		for _, p := range protocol.All() {
			cfg := s.base(q, p, s.SkewWorkers)
			cfg.Rate = 15000
			cfg.Duration = s.dur(30)
			cfg.Slide = s.dur(5)
			cfg.SessionGap = s.dur(2)
			res, err := Run(cfg)
			if err != nil {
				return nil, err
			}
			t.AddRow(q, p.Name(), res.Summary.SinkCount,
				fmt.Sprintf("%.1f", ms(res.Summary.Timeline.P50)),
				fmt.Sprintf("%.2f", ms(res.Summary.AvgCheckpointTime)),
				res.Summary.TotalCheckpoints)
		}
	}
	return t, nil
}

// ExtensionOutputTable contrasts exactly-once processing with exactly-once
// output (the paper's §II-A distinction): under immediate output an
// external consumer observes duplicated results after a failure; under
// transactional (epoch-committed) output it never does, at the price of
// higher output-visibility latency — a full checkpoint round for COOR, a
// stable recovery line for the logging protocols.
func (s *Suite) ExtensionOutputTable() (*metrics.Table, error) {
	t := metrics.NewTable(
		fmt.Sprintf("Extension: exactly-once output via transactional sinks (q1, %d workers, failure mid-run)", s.SkewWorkers),
		"Protocol", "Mode", "visible", "dup UIDs", "discarded", "vis p50(ms)", "vis p99(ms)")
	for _, p := range s.checkpointed() {
		for _, mode := range []core.OutputMode{core.OutputImmediate, core.OutputTransactional} {
			cfg := s.base("q1", p, s.SkewWorkers)
			cfg.Rate = 15000
			cfg.Duration = s.dur(30)
			cfg.FailureAt = s.dur(12)
			cfg.Output = mode
			s.logf("run q1 %-5s %-13s (output visibility)", p.Name(), mode)
			res, err := Run(cfg)
			if err != nil {
				return nil, err
			}
			t.AddRow(p.Name(), mode.String(), res.Output.Visible, res.DuplicateUIDs,
				res.Output.Discarded,
				fmt.Sprintf("%.1f", ms(res.VisibilityP50)),
				fmt.Sprintf("%.1f", ms(res.VisibilityP99)))
		}
	}
	return t, nil
}

// ExtensionEventTimeTable verifies the paper's §VI claim that "the type of
// the time window does not affect the checkpointing protocol's
// performance": Q12 with processing-time windows and its event-time twin
// q12et (watermark-fired tumbling windows over Bid.DateTime) should show
// comparable checkpointing time and checkpoint counts under every
// protocol; the only expected difference is the watermark control traffic.
func (s *Suite) ExtensionEventTimeTable() (*metrics.Table, error) {
	t := metrics.NewTable(
		fmt.Sprintf("Extension: processing-time vs event-time windows (%d workers)", s.SkewWorkers),
		"Query", "Protocol", "sink", "CT(ms)", "ckpts", "p50(ms)", "watermarks")
	for _, q := range []string{"q12", "q12et"} {
		for _, p := range s.checkpointed() {
			cfg := s.base(q, p, s.SkewWorkers)
			cfg.Rate = 15000
			cfg.Duration = s.dur(30)
			s.logf("run %-6s %-5s (event-time windows)", q, p.Name())
			res, err := Run(cfg)
			if err != nil {
				return nil, err
			}
			t.AddRow(q, p.Name(), res.Summary.SinkCount,
				fmt.Sprintf("%.2f", ms(res.Summary.AvgCheckpointTime)),
				res.Summary.TotalCheckpoints,
				fmt.Sprintf("%.1f", ms(res.Summary.Timeline.P50)),
				res.Summary.WatermarkMessages)
		}
	}
	return t, nil
}

// AblationCompressionTable measures checkpoint compression on the stateful
// join query. The contrast between protocols is the finding: COOR blobs
// (pure operator state) deflate well, while UNC blobs also carry the
// exactly-once dedup ring — effectively random 64-bit UIDs — which is
// incompressible and caps the achievable ratio. Compression is a
// state-backend knob, not a protocol knob.
func (s *Suite) AblationCompressionTable() (*metrics.Table, error) {
	t := metrics.NewTable(
		fmt.Sprintf("Ablation: checkpoint compression (q3, %d workers)", s.SkewWorkers),
		"Protocol", "Compress", "bytes/ckpt", "CT(ms)", "p50(ms)")
	for _, p := range []core.Protocol{protocol.Coordinated{}, protocol.Uncoordinated{}} {
		for _, compress := range []bool{false, true} {
			cfg := s.base("q3", p, s.SkewWorkers)
			cfg.Rate = 8000
			cfg.Duration = s.dur(30)
			cfg.CompressCheckpoints = compress
			s.logf("run q3 %-5s compress=%v", p.Name(), compress)
			res, err := Run(cfg)
			if err != nil {
				return nil, err
			}
			perCkpt := float64(0)
			if res.Store.Puts > 0 {
				perCkpt = float64(res.Store.PutBytes) / float64(res.Store.Puts)
			}
			t.AddRow(p.Name(), fmt.Sprintf("%v", compress),
				fmt.Sprintf("%.0f", perCkpt),
				fmt.Sprintf("%.2f", ms(res.Summary.AvgCheckpointTime)),
				fmt.Sprintf("%.1f", ms(res.Summary.Timeline.P50)))
		}
	}
	return t, nil
}

// ExtensionRollbackScopeTable quantifies the partial-recovery potential of
// the uncoordinated protocol that the paper's conclusions point to: for
// every possible single-instance failure, the rollback-dependency graph
// tells how many instances would actually need to restore state. Queries
// without shuffling (q1) keep the scope near one chain; shuffled queries
// couple everything and the scope approaches a global rollback — exactly
// the topology sensitivity that makes partial recovery a research target.
func (s *Suite) ExtensionRollbackScopeTable() (*metrics.Table, error) {
	t := metrics.NewTable(
		fmt.Sprintf("Extension: single-failure rollback scope under UNC (%d workers)", s.SkewWorkers),
		"Query", "instances", "avg scope", "max scope", "avg depth")
	for _, q := range []string{"q1", "q12", "q3"} {
		cfg := s.base(q, protocol.Uncoordinated{}, s.SkewWorkers)
		cfg.Rate = 8000
		cfg.Duration = s.dur(30)
		cfg.AnalyzeRollbackScope = true
		s.logf("run %-4s UNC (rollback scope)", q)
		res, err := Run(cfg)
		if err != nil {
			return nil, err
		}
		t.AddRow(q, res.Scope.Instances,
			fmt.Sprintf("%.1f", res.Scope.AvgScope),
			res.Scope.MaxScope,
			fmt.Sprintf("%.2f", res.Scope.AvgDepth))
	}
	return t, nil
}
