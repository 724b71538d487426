package harness

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"checkmate/internal/chaos"
	"checkmate/internal/core"
	"checkmate/internal/metrics"
	"checkmate/internal/protocol"
)

// The named hostile scenarios: each is a deterministic composition of the
// chaos plane (internal/chaos fault windows), the cluster failure domains
// and the workload knobs, expressed relative to the run duration D so the
// same scenario scales from a CI smoke to a full benchmark cell. Every
// scenario runs with transactional output so its point carries the
// exactly-once verdict (duplicate_uids == 0) alongside throughput, rounds
// completed/abandoned, degraded time and RTO.

// scenarioSpec is one registered hostile scenario.
type scenarioSpec struct {
	name string
	doc  string
	// apply mutates the base run configuration; d is the run duration and
	// ci the checkpoint interval, both already defaulted.
	apply func(cfg *RunConfig, d, ci time.Duration)
}

// scenarioRegistry returns the registered scenarios, sorted by name.
func scenarioRegistry() []scenarioSpec {
	specs := []scenarioSpec{
		{
			name: "store-brownout",
			doc:  "object store browns out for the middle half of the run (60% error rate + latency spikes); retries absorb it",
			apply: func(cfg *RunConfig, d, ci time.Duration) {
				cfg.ChaosPlan.Brownout = []chaos.Window{{At: d / 4, For: d / 2}}
				cfg.ChaosPlan.BrownoutRate = 0.6
				cfg.ChaosPlan.LatencySpike = []chaos.Window{{At: d / 4, For: d / 2}}
			},
		},
		{
			name: "store-outage",
			doc:  "object store is fully out for 20% of the run; the engine degrades (drains without checkpointing) and resumes",
			apply: func(cfg *RunConfig, d, ci time.Duration) {
				cfg.ChaosPlan.Outage = []chaos.Window{{At: 2 * d / 5, For: d / 5}}
			},
		},
		{
			name: "flapping-worker",
			doc:  "one worker crashes and recovers three times in quick succession",
			apply: func(cfg *RunConfig, d, ci time.Duration) {
				cfg.FailDomain = "flapping"
				cfg.FailWorker = 1
				cfg.FailCount = 3
				cfg.FailureAt = 3 * d / 10
				cfg.FailInterval = d / 8
			},
		},
		{
			name: "rack-loss-during-round",
			doc:  "two co-racked workers die mid-checkpoint-round, while a round is collecting reports",
			apply: func(cfg *RunConfig, d, ci time.Duration) {
				cfg.FailDomain = "rack"
				cfg.FailWorker = 1
				cfg.FailRackSize = 2
				// Land the failure mid-round: past the round boundary at
				// 5x the interval, before the one at 6x.
				cfg.FailureAt = 5*ci + ci/2
			},
		},
		{
			name: "straggler-skew",
			doc:  "hot-key skew (80% hot) plus a straggling worker and exchange jitter",
			apply: func(cfg *RunConfig, d, ci time.Duration) {
				cfg.HotRatio = 0.8
				cfg.StragglerDelay = 200 * time.Microsecond
				cfg.StragglerWorker = 0
				cfg.ChaosPlan.ExchangeJitter = 100 * time.Microsecond
			},
		},
	}
	sort.Slice(specs, func(a, b int) bool { return specs[a].name < specs[b].name })
	return specs
}

// Scenarios lists the registered hostile-scenario names, sorted.
func Scenarios() []string {
	specs := scenarioRegistry()
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.name
	}
	return names
}

// ScenarioDoc returns the one-line description of a named scenario ("" if
// unknown).
func ScenarioDoc(name string) string {
	for _, s := range scenarioRegistry() {
		if s.name == name {
			return s.doc
		}
	}
	return ""
}

// ScenarioPoint is one measured scenario cell, shaped for
// BENCH_scenarios.json.
type ScenarioPoint struct {
	Scenario string `json:"scenario"`
	Protocol string `json:"protocol"`
	Query    string `json:"query"`
	Workers  int    `json:"workers"`
	// Records is the sink output count; Seconds the measured wall time.
	Records       uint64  `json:"records"`
	Seconds       float64 `json:"seconds"`
	RecordsPerSec float64 `json:"records_per_sec"`
	P50Millis     float64 `json:"p50_ms"`
	P99Millis     float64 `json:"p99_ms"`
	// Round/checkpoint progress under fire.
	RoundsCompleted    uint64 `json:"rounds_completed,omitempty"`
	RoundsAbandoned    uint64 `json:"rounds_abandoned,omitempty"`
	Checkpoints        int    `json:"checkpoints"`
	InvalidCheckpoints int    `json:"invalid_checkpoints,omitempty"`
	// Failure/recovery accounting (worker-failure scenarios).
	Failures  int     `json:"failures,omitempty"`
	Recovered bool    `json:"recovered,omitempty"`
	RTOMillis float64 `json:"rto_ms,omitempty"`
	// Degraded-mode ledger (sustained-outage scenarios).
	DegradedEntries uint64  `json:"degraded_entries,omitempty"`
	DegradedMillis  float64 `json:"degraded_ms,omitempty"`
	UploadsShed     uint64  `json:"uploads_shed,omitempty"`
	// Shared retry-policy counters.
	RetryAttempts      uint64  `json:"retry_attempts,omitempty"`
	Retries            uint64  `json:"retries,omitempty"`
	RetryExhausted     uint64  `json:"retry_exhausted,omitempty"`
	RetryBackoffMillis float64 `json:"retry_backoff_ms,omitempty"`
	// Injected-fault counters from the chaos plan.
	InjectedStoreErrors uint64 `json:"injected_store_errors,omitempty"`
	InjectedStoreSpikes uint64 `json:"injected_store_spikes,omitempty"`
	InjectedFsyncStalls uint64 `json:"injected_fsync_stalls,omitempty"`
	// Exactly-once verdict: results the external transactional consumer
	// saw, duplicates among them (must be 0), and replay-side dedup drops.
	OutputVisible uint64 `json:"output_visible"`
	DuplicateUIDs int    `json:"duplicate_uids"`
	DupDropped    uint64 `json:"dup_dropped,omitempty"`
	ExactlyOnce   bool   `json:"exactly_once"`
}

// scenarioRunConfig builds the RunConfig of one scenario cell from cfg:
// zero fields take the scenario defaults (q3, 4 workers, 8000 ev/s, 3 s,
// a Duration/12 checkpoint interval), output is always transactional (any
// other preset mode is refused), then the scenario's own mutation
// overrides the fields it sets.
func scenarioRunConfig(name string, cfg RunConfig) (RunConfig, error) {
	var spec *scenarioSpec
	for _, s := range scenarioRegistry() {
		if s.name == name {
			spec = &s
			break
		}
	}
	if spec == nil {
		return RunConfig{}, fmt.Errorf("harness: unknown scenario %q (want one of %s)",
			name, strings.Join(Scenarios(), ", "))
	}
	if cfg.Protocol == nil {
		return RunConfig{}, fmt.Errorf("harness: scenario %q needs a checkpointing protocol", name)
	}
	if cfg.Protocol.Kind() == core.KindNone {
		return RunConfig{}, fmt.Errorf("harness: scenario %q asserts exactly-once output; protocol %s does not checkpoint",
			name, cfg.Protocol.Name())
	}
	if cfg.Output != core.OutputNone && cfg.Output != core.OutputTransactional {
		return RunConfig{}, fmt.Errorf("harness: scenario %q asserts exactly-once output; it needs transactional output, not %s",
			name, cfg.Output)
	}
	if cfg.Query == "" {
		cfg.Query = "q3"
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	if cfg.Rate <= 0 {
		cfg.Rate = 8000
	}
	if cfg.Duration <= 0 {
		cfg.Duration = 3 * time.Second
	}
	if cfg.CheckpointInterval <= 0 {
		cfg.CheckpointInterval = cfg.Duration / 12
	}
	cfg.Output = core.OutputTransactional
	spec.apply(&cfg, cfg.Duration, cfg.CheckpointInterval)
	return cfg, nil
}

// RunScenario runs one hostile scenario cell over cfg (see
// scenarioRunConfig for the defaults) and reduces it to a point. Every
// point carries the exactly-once verdict: the run collects output
// transactionally and counts result UIDs the external consumer observed
// twice — zero under a correct protocol, failures and faults included.
func RunScenario(name string, cfg RunConfig) (ScenarioPoint, error) {
	cfg, err := scenarioRunConfig(name, cfg)
	if err != nil {
		return ScenarioPoint{}, err
	}
	res, err := Run(cfg)
	if err != nil {
		return ScenarioPoint{}, fmt.Errorf("harness: scenario %s/%s: %w", name, cfg.Protocol.Name(), err)
	}
	sum := res.Summary
	secs := cfg.Duration.Seconds()
	pt := ScenarioPoint{
		Scenario:            name,
		Protocol:            cfg.Protocol.Name(),
		Query:               cfg.Query,
		Workers:             cfg.Workers,
		Records:             sum.SinkCount,
		Seconds:             secs,
		P50Millis:           ms(sum.Timeline.P50),
		P99Millis:           ms(sum.Timeline.P99),
		RoundsCompleted:     res.Chaos.RoundsCompleted,
		RoundsAbandoned:     res.Chaos.RoundsAbandoned,
		Checkpoints:         sum.TotalCheckpoints,
		InvalidCheckpoints:  sum.InvalidCheckpoints,
		Failures:            sum.Failures,
		Recovered:           sum.Recovered,
		RTOMillis:           ms(sum.RecoveryTime),
		DegradedEntries:     res.Chaos.DegradedEntries,
		DegradedMillis:      ms(res.Chaos.DegradedTime),
		UploadsShed:         res.Chaos.UploadsShed,
		RetryAttempts:       res.Chaos.Retry.Attempts,
		Retries:             res.Chaos.Retry.Retries,
		RetryExhausted:      res.Chaos.Retry.Exhausted,
		RetryBackoffMillis:  ms(res.Chaos.Retry.Backoff),
		InjectedStoreErrors: res.Chaos.Injected.StoreErrors,
		InjectedStoreSpikes: res.Chaos.Injected.StoreSpikes,
		InjectedFsyncStalls: res.Chaos.Injected.FsyncStalls,
		OutputVisible:       res.Output.Visible,
		DuplicateUIDs:       res.DuplicateUIDs,
		DupDropped:          sum.DupDropped,
		ExactlyOnce:         res.DuplicateUIDs == 0,
	}
	if secs > 0 {
		pt.RecordsPerSec = float64(sum.SinkCount) / secs
	}
	return pt, nil
}

// scenarioProtocols is the protocol axis of the scenario matrix: one
// protocol per checkpointing family (coordinated, uncoordinated,
// communication-induced).
func scenarioProtocols() []core.Protocol {
	return []core.Protocol{protocol.Coordinated{}, protocol.Uncoordinated{}, protocol.CIC{}}
}

// ScenarioTable runs the full hostile-scenario matrix (every registered
// scenario x COOR/UNC/CIC) and tabulates it — the benchall "scenarios"
// experiment.
func (s *Suite) ScenarioTable() (*metrics.Table, error) {
	t := metrics.NewTable(
		"Robustness: hostile scenarios x protocols (q3, transactional output)",
		"Scenario", "Protocol", "Records/s", "p99(ms)", "Rounds", "Abandoned",
		"Degraded(ms)", "Retries", "RTO(ms)", "ExactlyOnce")
	for _, name := range Scenarios() {
		for _, p := range scenarioProtocols() {
			s.logf("scenario %-22s %-4s", name, p.Name())
			pt, err := RunScenario(name, RunConfig{
				Config:   core.Config{Protocol: p, Seed: s.Seed},
				Duration: s.dur(36),
			})
			if err != nil {
				return nil, err
			}
			t.AddRow(pt.Scenario, pt.Protocol,
				fmt.Sprintf("%.0f", pt.RecordsPerSec),
				fmt.Sprintf("%.1f", pt.P99Millis),
				pt.RoundsCompleted, pt.RoundsAbandoned,
				fmt.Sprintf("%.0f", pt.DegradedMillis),
				pt.Retries,
				fmt.Sprintf("%.1f", pt.RTOMillis),
				pt.ExactlyOnce)
		}
	}
	return t, nil
}
