package harness

import (
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"checkmate/internal/core"
	"checkmate/internal/metrics"
	"checkmate/internal/protocol"
)

// Suite reproduces the paper's evaluation section. Every experiment method
// corresponds to one table or figure and returns the formatted table(s);
// results are cached so experiments sharing runs (e.g. Table II and Fig. 8)
// do not repeat work.
//
// Scale compresses time: 1.0 reproduces the paper's 60-second runs with a
// failure at 18 s; the default 0.1 runs the same schedule 10× faster, which
// preserves the protocols' relative behaviour while keeping the full suite
// runnable in minutes.
type Suite struct {
	// Scale is the time-compression factor (1.0 = paper scale).
	Scale float64
	// Workers lists the parallelism levels (paper: 5,10,30,50,70,100).
	Workers []int
	// TableWorkers lists the parallelism levels of Tables II/III (paper:
	// 10 and 50).
	TableWorkers []int
	// TimelineWorkers lists parallelism levels for Figures 9/10 (paper
	// discusses 10, 30, 50).
	TimelineWorkers []int
	// CyclicWorkers lists parallelism for Table IV (paper: 5 and 10).
	CyclicWorkers []int
	// Queries lists the NexMark queries.
	Queries []string
	// SkewRatios lists hot-item ratios of Figures 12/13.
	SkewRatios []float64
	// SkewWorkers is the parallelism of the skew experiments (paper: 10).
	SkewWorkers int
	// MaxRate caps MST searches.
	MaxRate float64
	// Seed drives workload generation.
	Seed int64
	// Out receives progress logging (default: os.Stderr; set to
	// io.Discard to silence).
	Out io.Writer

	cache    *MSTCache
	runMu    sync.Mutex
	runCache map[string]RunResult
}

// NewSuite returns a suite with bench-friendly defaults (20× compressed
// schedule, reduced parallelism list).
func NewSuite() *Suite {
	return &Suite{
		Scale:           0.05,
		Workers:         []int{4, 8},
		TableWorkers:    []int{4, 8},
		TimelineWorkers: []int{8},
		CyclicWorkers:   []int{4, 8},
		Queries:         []string{"q1", "q3", "q8", "q12"},
		SkewRatios:      []float64{0.1, 0.2, 0.3},
		SkewWorkers:     10,
		MaxRate:         400_000,
		Seed:            1,
		Out:             os.Stderr,
		cache:           NewMSTCache(),
		runCache:        make(map[string]RunResult),
	}
}

// FullPaperSuite returns the uncompressed paper-scale configuration
// (60-second runs, parallelism up to 100). Expect hours of runtime.
func FullPaperSuite() *Suite {
	s := NewSuite()
	s.Scale = 1.0
	s.Workers = []int{5, 10, 30, 50, 70, 100}
	s.TableWorkers = []int{10, 50}
	s.TimelineWorkers = []int{10, 30, 50}
	return s
}

func (s *Suite) logf(format string, args ...any) {
	if s.Out != nil {
		fmt.Fprintf(s.Out, "[checkmate] "+format+"\n", args...)
	}
}

// dur scales a paper-time duration.
func (s *Suite) dur(paperSeconds float64) time.Duration {
	return time.Duration(paperSeconds * s.Scale * float64(time.Second))
}

// base builds the run configuration of one cell.
func (s *Suite) base(query string, p core.Protocol, workers int) RunConfig {
	return RunConfig{
		Config: core.Config{
			Protocol:           p,
			Workers:            workers,
			CheckpointInterval: s.dur(6),
			Seed:               s.Seed,
		},
		Query:      query,
		Duration:   s.dur(60),
		Window:     s.dur(10),
		FailWorker: workers - 1,
	}
}

// mst returns the (cached) maximum sustainable throughput of a cell.
func (s *Suite) mst(query string, p core.Protocol, workers int) (float64, error) {
	cfg := MSTConfig{
		Base:          s.base(query, p, workers),
		ProbeDuration: s.dur(15),
		StartRate:     4000,
		MaxRate:       s.MaxRate,
	}
	v, err := s.cache.Get(cfg)
	if err == nil {
		s.logf("MST %-6s %-4s %3d workers: %.0f ev/s", query, p.Name(), workers, v)
	}
	return v, err
}

// cell runs one measured cell (cached): query under protocol at loadFrac of
// its own MST, optionally skewed and/or with a failure.
func (s *Suite) cell(query string, p core.Protocol, workers int, loadFrac, hotRatio float64, fail bool) (RunResult, error) {
	key := fmt.Sprintf("%s/%s/%d/%.2f/%.2f/%v", query, p.Name(), workers, loadFrac, hotRatio, fail)
	s.runMu.Lock()
	if r, ok := s.runCache[key]; ok {
		s.runMu.Unlock()
		return r, nil
	}
	s.runMu.Unlock()

	m, err := s.mst(query, p, workers)
	if err != nil {
		return RunResult{}, err
	}
	cfg := s.base(query, p, workers)
	cfg.Rate = m * loadFrac
	cfg.HotRatio = hotRatio
	if fail {
		cfg.FailureAt = s.dur(18)
	}
	s.logf("run %-6s %-4s %3dw load=%.0f%% hot=%.0f%% fail=%v rate=%.0f",
		query, p.Name(), workers, loadFrac*100, hotRatio*100, fail, cfg.Rate)
	res, err := Run(cfg)
	if err != nil {
		return RunResult{}, err
	}
	s.runMu.Lock()
	s.runCache[key] = res
	s.runMu.Unlock()
	return res, nil
}

// protocols returns NONE, COOR, UNC, CIC.
func (s *Suite) protocols() []core.Protocol { return protocol.All() }

// checkpointed returns COOR, UNC, CIC.
func (s *Suite) checkpointed() []core.Protocol { return protocol.All()[1:] }

// ---- Table I ----

// TableIFeatures renders the qualitative feature matrix.
func (s *Suite) TableIFeatures() *metrics.Table {
	t := metrics.NewTable("Table I: protocol feature summary",
		"Feature", "COOR", "UNC", "CIC")
	rows := []struct {
		name string
		get  func(core.Features) bool
	}{
		{"Blocking (markers)", func(f core.Features) bool { return f.BlockingMarkers }},
		{"In-flight logging", func(f core.Features) bool { return f.InFlightLogging }},
		{"Deduplication required", func(f core.Features) bool { return f.DedupRequired }},
		{"Message overhead", func(f core.Features) bool { return f.MessageOverhead }},
		{"Independent checkpoints", func(f core.Features) bool { return f.IndependentCkpts }},
		{"Straggler stalls", func(f core.Features) bool { return f.StragglerStalls }},
		{"Unused checkpoints", func(f core.Features) bool { return f.UnusedCheckpoints }},
		{"Forced checkpoints", func(f core.Features) bool { return f.ForcedCheckpoints }},
	}
	mark := func(b bool) string {
		if b {
			return "yes"
		}
		return "–"
	}
	ps := s.checkpointed()
	for _, r := range rows {
		t.AddRow(r.name, mark(r.get(ps[0].Features())), mark(r.get(ps[1].Features())), mark(r.get(ps[2].Features())))
	}
	return t
}

// ---- Figure 7 ----

// Fig7MST measures normalized maximum sustainable throughput per query,
// protocol and parallelism.
func (s *Suite) Fig7MST() (*metrics.Table, error) {
	t := metrics.NewTable("Figure 7: normalized maximum sustainable throughput",
		"Workers", "Query", "NoCkpt(ev/s)", "COOR", "UNC", "CIC")
	for _, w := range s.Workers {
		for _, q := range s.Queries {
			baseMST, err := s.mst(q, protocol.None{}, w)
			if err != nil {
				return nil, err
			}
			row := []any{w, q, fmt.Sprintf("%.0f", baseMST)}
			for _, p := range s.checkpointed() {
				m, err := s.mst(q, p, w)
				if err != nil {
					return nil, err
				}
				row = append(row, m/baseMST)
			}
			t.AddRow(row...)
		}
	}
	return t, nil
}

// ---- Table II ----

// TableIIOverhead measures the message-overhead ratio vs a checkpoint-free
// execution at 80% MST.
func (s *Suite) TableIIOverhead() (*metrics.Table, error) {
	t := metrics.NewTable("Table II: message overhead ratio vs checkpoint-free",
		"Workers", "Query", "COOR", "UNC", "CIC")
	for _, w := range s.TableWorkers {
		for _, q := range s.Queries {
			row := []any{w, q}
			for _, p := range s.checkpointed() {
				res, err := s.cell(q, p, w, 0.8, 0, false)
				if err != nil {
					return nil, err
				}
				row = append(row, fmt.Sprintf("%.2fx", res.Summary.OverheadRatio))
			}
			t.AddRow(row...)
		}
	}
	return t, nil
}

// ---- Figure 8 ----

// Fig8CheckpointTime measures the average checkpointing time at 80% MST.
func (s *Suite) Fig8CheckpointTime() (*metrics.Table, error) {
	t := metrics.NewTable("Figure 8: average checkpointing time (ms)",
		"Workers", "Query", "COOR", "UNC", "CIC")
	for _, w := range s.Workers {
		for _, q := range s.Queries {
			row := []any{w, q}
			for _, p := range s.checkpointed() {
				res, err := s.cell(q, p, w, 0.8, 0, false)
				if err != nil {
					return nil, err
				}
				row = append(row, fmt.Sprintf("%.2f", ms(res.Summary.AvgCheckpointTime)))
			}
			t.AddRow(row...)
		}
	}
	return t, nil
}

// ---- Figures 9 & 10 ----

// FigLatencyTimeline renders the per-second latency percentile series with
// a failure at the paper's 18-second mark. pct is 50 or 99.
func (s *Suite) FigLatencyTimeline(pct int) ([]*metrics.Table, error) {
	var tables []*metrics.Table
	fig := 9
	if pct == 99 {
		fig = 10
	}
	for _, w := range s.TimelineWorkers {
		for _, q := range s.Queries {
			t := metrics.NewTable(
				fmt.Sprintf("Figure %d: p%d latency per second, %s, %d workers (failure at 18s)", fig, pct, q, w),
				"Second", "NoCkpt(ms)", "COOR(ms)", "UNC(ms)", "CIC(ms)")
			series := make([]map[int]time.Duration, 0, 4)
			maxSec := 0
			for _, p := range s.protocols() {
				res, err := s.cell(q, p, w, 0.8, 0, true)
				if err != nil {
					return nil, err
				}
				m := make(map[int]time.Duration)
				for _, pt := range res.Summary.Timeline.Points {
					sec := int(float64(pt.Start)/float64(s.dur(1))) + 1
					v := pt.P50
					if pct == 99 {
						v = pt.P99
					}
					m[sec] = v
					if sec > maxSec {
						maxSec = sec
					}
				}
				series = append(series, m)
			}
			for sec := 1; sec <= maxSec; sec++ {
				row := []any{sec}
				for _, m := range series {
					if v, ok := m[sec]; ok {
						row = append(row, fmt.Sprintf("%.1f", ms(v)))
					} else {
						row = append(row, "-")
					}
				}
				t.AddRow(row...)
			}
			tables = append(tables, t)
		}
	}
	return tables, nil
}

// ---- Figure 11 ----

// Fig11RestartTime measures restart time after the injected failure.
func (s *Suite) Fig11RestartTime() (*metrics.Table, error) {
	t := metrics.NewTable("Figure 11: restart time after failure (ms)",
		"Workers", "Query", "COOR", "UNC", "CIC")
	for _, w := range s.Workers {
		for _, q := range s.Queries {
			row := []any{w, q}
			for _, p := range s.checkpointed() {
				res, err := s.cell(q, p, w, 0.8, 0, true)
				if err != nil {
					return nil, err
				}
				row = append(row, fmt.Sprintf("%.1f", ms(res.Summary.RestartTime)))
			}
			t.AddRow(row...)
		}
	}
	return t, nil
}

// RecoveryTimeTable reports the full recovery (catch-up) time of the same
// failure runs, complementing Figure 11 with the §VII "Recovery & Restart
// Time" discussion.
func (s *Suite) RecoveryTimeTable() (*metrics.Table, error) {
	t := metrics.NewTable("Recovery (catch-up) time after failure (paper-seconds)",
		"Workers", "Query", "COOR", "UNC", "CIC")
	for _, w := range s.Workers {
		for _, q := range s.Queries {
			row := []any{w, q}
			for _, p := range s.checkpointed() {
				res, err := s.cell(q, p, w, 0.8, 0, true)
				if err != nil {
					return nil, err
				}
				if res.Summary.Recovered {
					row = append(row, fmt.Sprintf("%.1f", res.Summary.RecoveryTime.Seconds()/s.Scale))
				} else {
					row = append(row, "DNR") // did not recover in window
				}
			}
			t.AddRow(row...)
		}
	}
	return t, nil
}

// RTOBreakdownTable reports the recovery-time-objective (RTO) phase
// breakdown per protocol, with the worker-local state cache cold versus
// warm — the cluster-aware complement of RecoveryTimeTable: one failure,
// split into detection, rollback computation, state fetch, replay and
// catch-up, plus where the restored bytes came from.
func (s *Suite) RTOBreakdownTable() (*metrics.Table, error) {
	t := metrics.NewTable("Recovery time objective per protocol (q3, 4 workers, spread placement, single-worker failure)",
		"Protocol", "Cache", "Detect", "Rollback", "Fetch", "Replay", "CatchUp", "RTO(ms)", "RemoteKB", "LocalKB")
	for _, p := range s.checkpointed() {
		for _, warm := range []bool{false, true} {
			label := "cold"
			if warm {
				label = "warm"
			}
			cfg := s.base("q3", p, 4)
			cfg.Rate = 20000
			cfg.FailureAt = s.dur(18)
			cfg.Cluster.LocalCache = warm
			res, err := Run(cfg)
			if err != nil {
				return nil, err
			}
			rtos := res.Summary.RTOs
			if len(rtos) == 0 {
				return nil, fmt.Errorf("harness: RTO %s/%s cache recorded no recovery", p.Name(), label)
			}
			rto := rtos[len(rtos)-1]
			total := "DNR" // did not catch up within the run
			if rto.Total > 0 {
				total = fmt.Sprintf("%.1f", ms(rto.Total))
			}
			s.logf("RTO %-4s %s cache: %s ms (fetch %.1f ms, %d B remote)", p.Name(), label, total, ms(rto.Fetch), rto.RemoteBytes)
			t.AddRow(p.Name(), label,
				fmt.Sprintf("%.1f", ms(rto.Detect)),
				fmt.Sprintf("%.1f", ms(rto.Rollback)),
				fmt.Sprintf("%.1f", ms(rto.Fetch)),
				fmt.Sprintf("%.1f", ms(rto.Replay)),
				fmt.Sprintf("%.1f", ms(rto.CatchUp)),
				total,
				fmt.Sprintf("%.1f", float64(rto.RemoteBytes)/1024),
				fmt.Sprintf("%.1f", float64(rto.LocalBytes)/1024))
		}
	}
	return t, nil
}

// ---- Table III ----

// TableIIIInvalid reports total checkpoints and invalid percentages from
// the failure runs.
func (s *Suite) TableIIIInvalid() (*metrics.Table, error) {
	t := metrics.NewTable("Table III: total checkpoints (invalid %)",
		"Workers", "Query", "UNC", "CIC", "COOR")
	order := []core.Protocol{protocol.Uncoordinated{}, protocol.CIC{}, protocol.Coordinated{}}
	for _, w := range s.TableWorkers {
		for _, q := range s.Queries {
			row := []any{w, q}
			for _, p := range order {
				res, err := s.cell(q, p, w, 0.8, 0, true)
				if err != nil {
					return nil, err
				}
				total := res.Summary.TotalCheckpoints
				pctInv := 0.0
				if total > 0 {
					pctInv = 100 * float64(res.Summary.InvalidCheckpoints) / float64(total)
				}
				row = append(row, fmt.Sprintf("%d(%.0f%%)", total, pctInv))
			}
			t.AddRow(row...)
		}
	}
	return t, nil
}

// ---- Figures 12 & 13 ----

// skewQueries are the keyed queries evaluated under skew (Q1 is unaffected
// by skew: non-keyed operations only).
func (s *Suite) skewQueries() []string {
	var qs []string
	for _, q := range s.Queries {
		if q != "q1" {
			qs = append(qs, q)
		}
	}
	return qs
}

// Fig12Skew measures p50 latency and average checkpointing time under hot
// items at loadFrac (0.5, 0.8) of the *non-skewed* MST.
func (s *Suite) Fig12Skew(loadFrac float64) (*metrics.Table, error) {
	t := metrics.NewTable(
		fmt.Sprintf("Figure 12: skew at %.0f%% of non-skewed MST, %d workers — p50 latency / avg checkpoint time (ms)", loadFrac*100, s.SkewWorkers),
		"Query", "HotRatio", "NoCkpt p50", "COOR p50", "UNC p50", "CIC p50", "COOR CT", "UNC CT", "CIC CT")
	for _, q := range s.skewQueries() {
		for _, hot := range s.SkewRatios {
			row := []any{q, fmt.Sprintf("%.0f%%", hot*100)}
			var cts []string
			for _, p := range s.protocols() {
				res, err := s.cell(q, p, s.SkewWorkers, loadFrac, hot, false)
				if err != nil {
					return nil, err
				}
				row = append(row, fmt.Sprintf("%.1f", ms(res.Summary.Timeline.P50)))
				if p.Kind() != core.KindNone {
					cts = append(cts, fmt.Sprintf("%.2f", ms(res.Summary.AvgCheckpointTime)))
				}
			}
			for _, ct := range cts {
				row = append(row, ct)
			}
			t.AddRow(row...)
		}
	}
	return t, nil
}

// Fig13SkewRestart measures restart time under skew at 50% MST with a
// failure.
func (s *Suite) Fig13SkewRestart() (*metrics.Table, error) {
	t := metrics.NewTable(
		fmt.Sprintf("Figure 13: restart time under skew (ms), %d workers, 50%% MST", s.SkewWorkers),
		"Query", "HotRatio", "COOR", "UNC", "CIC")
	for _, q := range s.skewQueries() {
		for _, hot := range s.SkewRatios {
			row := []any{q, fmt.Sprintf("%.0f%%", hot*100)}
			for _, p := range s.checkpointed() {
				res, err := s.cell(q, p, s.SkewWorkers, 0.5, hot, true)
				if err != nil {
					return nil, err
				}
				row = append(row, fmt.Sprintf("%.1f", ms(res.Summary.RestartTime)))
			}
			t.AddRow(row...)
		}
	}
	return t, nil
}

// ---- Table IV ----

// TableIVCyclic evaluates UNC and CIC on the cyclic reachability query
// (COOR deadlocks on cycles and is excluded, as in the paper). Reports
// average checkpointing time, restart time and invalid checkpoint
// percentage with a failure at the paper's 48-second mark.
func (s *Suite) TableIVCyclic() (*metrics.Table, error) {
	t := metrics.NewTable("Table IV: cyclic query — CT (ms) / RT (ms) / invalid (%)",
		"Workers", "Protocol", "CT(ms)", "RT(ms)", "Invalid")
	for _, w := range s.CyclicWorkers {
		for _, p := range []core.Protocol{protocol.Uncoordinated{}, protocol.CIC{}} {
			m, err := s.cyclicMST(p, w)
			if err != nil {
				return nil, err
			}
			cfg := s.base(QueryCyclic, p, w)
			cfg.Rate = m * 0.775 // the paper's 75-80% band
			cfg.FailureAt = s.dur(48)
			cfg.Nodes = 1_000_000
			s.logf("run cyclic %-4s %2dw rate=%.0f", p.Name(), w, cfg.Rate)
			res, err := Run(cfg)
			if err != nil {
				return nil, err
			}
			total := res.Summary.TotalCheckpoints
			pctInv := 0.0
			if total > 0 {
				pctInv = 100 * float64(res.Summary.InvalidCheckpoints) / float64(total)
			}
			t.AddRow(w, p.Name(),
				fmt.Sprintf("%.2f", ms(res.Summary.AvgCheckpointTime)),
				fmt.Sprintf("%.1f", ms(res.Summary.RestartTime)),
				fmt.Sprintf("%.1f%%", pctInv))
		}
	}
	return t, nil
}

func (s *Suite) cyclicMST(p core.Protocol, workers int) (float64, error) {
	cfg := MSTConfig{
		Base:          s.base(QueryCyclic, p, workers),
		ProbeDuration: s.dur(15),
		StartRate:     4000,
		MaxRate:       s.MaxRate,
	}
	cfg.Base.Nodes = 1_000_000
	return s.cache.Get(cfg)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
