package harness

import (
	"strings"
	"testing"
	"time"

	"checkmate/internal/chaos"
	"checkmate/internal/core"
	"checkmate/internal/protocol"
)

// The hostile-scenario tests. Unlike the rest of the heavy harness suite
// these deliberately run in -short mode too: they are the robustness
// regression gate (CI runs two of them under -race), and each is a single
// short drain.

// TestChaosOutageExactlyOnce drives every checkpointing protocol through a
// total object-store outage window with transactional output: uploads
// exhaust their retries, the engine degrades and resumes, and the external
// consumer must still never see a result twice.
func TestChaosOutageExactlyOnce(t *testing.T) {
	for _, p := range []core.Protocol{
		protocol.Coordinated{}, protocol.UnalignedCoordinated{},
		protocol.Uncoordinated{}, protocol.CIC{},
	} {
		p := p
		t.Run(p.Name(), func(t *testing.T) {
			t.Parallel()
			res, err := Run(RunConfig{
				Config: core.Config{
					Protocol: p, Workers: 2, CheckpointInterval: 200 * time.Millisecond,
					Output: core.OutputTransactional, Seed: 7,
				},
				Query: "q1", Rate: 8000, Duration: 1500 * time.Millisecond,
				ChaosPlan: chaos.Plan{
					Outage: []chaos.Window{{At: 500 * time.Millisecond, For: 300 * time.Millisecond}},
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.DuplicateUIDs != 0 {
				t.Fatalf("outage run published %d duplicate results", res.DuplicateUIDs)
			}
			if res.Output.Visible == 0 {
				t.Fatal("no output became visible")
			}
			if res.Chaos.Injected.StoreErrors == 0 {
				t.Fatal("outage window injected no store errors")
			}
			if res.Chaos.Retry.Retries == 0 {
				t.Fatal("retry policy never retried through the outage")
			}
			t.Logf("%s: visible=%d retries=%d exhausted=%d degraded=%d(%v)",
				p.Name(), res.Output.Visible, res.Chaos.Retry.Retries,
				res.Chaos.Retry.Exhausted, res.Chaos.DegradedEntries, res.Chaos.DegradedTime)
		})
	}
}

// TestChaosDegradedSuspendResume is the degraded-mode contract end to end:
// a sustained outage flips the engine into degraded mode, records keep
// draining while checkpointing is suspended, the prober exits degraded mode
// once the store answers, and a worker failure AFTER the episode recovers
// from a durable line written post-resume — with exactly-once output
// throughout.
func TestChaosDegradedSuspendResume(t *testing.T) {
	res, err := Run(RunConfig{
		Config: core.Config{
			Protocol: protocol.Coordinated{}, Workers: 2,
			CheckpointInterval: 200 * time.Millisecond, Output: core.OutputTransactional,
			Seed: 7,
		},
		Query: "q1", Rate: 8000, Duration: 2200 * time.Millisecond,
		FailureAt: 1800 * time.Millisecond,
		ChaosPlan: chaos.Plan{
			Outage: []chaos.Window{{At: 600 * time.Millisecond, For: 500 * time.Millisecond}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Chaos.DegradedEntries == 0 {
		t.Fatal("sustained outage never entered degraded mode")
	}
	if res.Chaos.Degraded {
		t.Fatal("engine still degraded after the store came back")
	}
	if res.Chaos.Retry.Exhausted == 0 {
		t.Fatal("degraded mode without retry exhaustion")
	}
	if res.Summary.SinkCount == 0 {
		t.Fatal("engine stopped draining during the outage")
	}
	if !res.Summary.Recovered {
		t.Fatal("post-outage failure did not recover from a durable line")
	}
	if res.DuplicateUIDs != 0 {
		t.Fatalf("degraded episode leaked %d duplicate results", res.DuplicateUIDs)
	}
	t.Logf("degraded %v over %d episode(s), shed=%d, sink=%d, recovered=%v",
		res.Chaos.DegradedTime, res.Chaos.DegradedEntries,
		res.Chaos.UploadsShed, res.Summary.SinkCount, res.Summary.Recovered)
}

// TestChaosRoundWatchdog starves a coordinated round of its reports (every
// upload dies in an outage stretching to the end of the run) and checks the
// watchdog abandons the stalled round instead of wedging round initiation
// forever.
func TestChaosRoundWatchdog(t *testing.T) {
	res, err := Run(RunConfig{
		Config: core.Config{
			Protocol: protocol.Coordinated{}, Workers: 2,
			CheckpointInterval: 150 * time.Millisecond, Seed: 7,
		},
		Query: "q1", Rate: 8000, Duration: 1500 * time.Millisecond,
		ChaosPlan: chaos.Plan{
			Outage: []chaos.Window{{At: 100 * time.Millisecond, For: 2 * time.Second}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Chaos.RoundsAbandoned == 0 {
		t.Fatal("watchdog abandoned no round despite an unresolvable outage")
	}
	if res.Chaos.DegradedEntries == 0 {
		t.Fatal("outage to end of run never entered degraded mode")
	}
	if res.Summary.SinkCount == 0 {
		t.Fatal("engine stopped draining under the outage")
	}
}

// TestChaosFlappingWorkerExactlyOnce crashes the same worker three times in
// quick succession and checks every recovery is clean: all three failures
// recovered, no duplicate output.
func TestChaosFlappingWorkerExactlyOnce(t *testing.T) {
	for _, p := range []core.Protocol{protocol.Coordinated{}, protocol.Uncoordinated{}} {
		p := p
		t.Run(p.Name(), func(t *testing.T) {
			t.Parallel()
			res, err := Run(RunConfig{
				Config: core.Config{
					Protocol: p, Workers: 2, CheckpointInterval: 200 * time.Millisecond,
					Output: core.OutputTransactional, Seed: 7,
				},
				Query: "q1", Rate: 8000, Duration: 1800 * time.Millisecond,
				FailDomain: "flapping", FailWorker: 1, FailCount: 3,
				FailureAt: 400 * time.Millisecond, FailInterval: 250 * time.Millisecond,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Summary.Failures != 3 {
				t.Fatalf("failures = %d, want 3", res.Summary.Failures)
			}
			if !res.Summary.Recovered {
				t.Fatal("flapping worker never recovered")
			}
			if res.DuplicateUIDs != 0 {
				t.Fatalf("flapping published %d duplicate results", res.DuplicateUIDs)
			}
			if res.Output.Visible == 0 {
				t.Fatal("no output became visible")
			}
		})
	}
}

// TestChaosScenarioRegistry pins the registered scenario names and the
// config validation of the scenario runner.
func TestChaosScenarioRegistry(t *testing.T) {
	names := Scenarios()
	want := []string{
		"flapping-worker", "rack-loss-during-round",
		"store-brownout", "store-outage", "straggler-skew",
	}
	if len(names) != len(want) {
		t.Fatalf("scenarios = %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("scenarios = %v, want %v", names, want)
		}
		if ScenarioDoc(want[i]) == "" {
			t.Fatalf("scenario %s has no doc", want[i])
		}
	}
	if _, err := RunScenario("nope", RunConfig{Config: core.Config{Protocol: protocol.Coordinated{}}}); err == nil ||
		!strings.Contains(err.Error(), "unknown scenario") {
		t.Fatalf("unknown scenario error = %v", err)
	}
	if _, err := RunScenario("store-outage", RunConfig{Config: core.Config{Protocol: protocol.None{}}}); err == nil {
		t.Fatal("NONE protocol must be rejected: scenarios assert exactly-once")
	}
	if _, err := RunScenario("store-outage", RunConfig{}); err == nil {
		t.Fatal("missing protocol must be rejected")
	}
	if _, err := RunScenario("store-outage", RunConfig{
		Config: core.Config{Protocol: protocol.Coordinated{}, Output: core.OutputImmediate},
	}); err == nil || !strings.Contains(err.Error(), "transactional") {
		t.Fatalf("immediate output must be rejected: scenarios assert exactly-once; err = %v", err)
	}
}

// TestChaosScenarioBrownoutSmoke is the CI -race smoke: one short
// store-brownout cell must complete exactly-once with faults actually
// injected.
func TestChaosScenarioBrownoutSmoke(t *testing.T) {
	pt, err := RunScenario("store-brownout", RunConfig{
		Config: core.Config{Protocol: protocol.Coordinated{}, Workers: 2, Seed: 7},
		Query:  "q1", Rate: 6000, Duration: 1200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !pt.ExactlyOnce || pt.DuplicateUIDs != 0 {
		t.Fatalf("brownout cell not exactly-once: %+v", pt)
	}
	if pt.Records == 0 || pt.OutputVisible == 0 {
		t.Fatalf("brownout cell produced no output: %+v", pt)
	}
	if pt.InjectedStoreErrors+pt.InjectedStoreSpikes == 0 {
		t.Fatal("brownout window injected nothing")
	}
}

// TestChaosScenarioFlappingSmoke is the second CI -race smoke: one short
// flapping-worker cell, all flaps recovered, exactly-once.
func TestChaosScenarioFlappingSmoke(t *testing.T) {
	pt, err := RunScenario("flapping-worker", RunConfig{
		Config: core.Config{Protocol: protocol.Uncoordinated{}, Workers: 2, Seed: 7},
		Query:  "q1", Rate: 6000, Duration: 1600 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !pt.ExactlyOnce {
		t.Fatalf("flapping cell not exactly-once: %+v", pt)
	}
	if pt.Failures != 3 || !pt.Recovered {
		t.Fatalf("flapping cell failures=%d recovered=%v, want 3/true", pt.Failures, pt.Recovered)
	}
}

// TestChaosScenarioOutageDegrades checks the store-outage scenario actually
// exercises the degraded path at its default shape.
func TestChaosScenarioOutageDegrades(t *testing.T) {
	pt, err := RunScenario("store-outage", RunConfig{
		Config: core.Config{Protocol: protocol.Coordinated{}, Workers: 2, Seed: 7},
		Query:  "q1", Rate: 6000, Duration: 1500 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if pt.DegradedEntries == 0 {
		t.Fatalf("store-outage never degraded: %+v", pt)
	}
	if !pt.ExactlyOnce {
		t.Fatalf("store-outage not exactly-once: %+v", pt)
	}
	if pt.Records == 0 {
		t.Fatal("store-outage produced no output")
	}
}

// TestScenarioKeepsRunConfig checks a scenario cell runs the caller's
// configuration: scenario defaults fill only zero fields, the scenario's
// own mutation wins on the fields it sets, and every other setting — here
// the exchange batch size — reaches the run.
func TestScenarioKeepsRunConfig(t *testing.T) {
	cfg, err := scenarioRunConfig("straggler-skew", RunConfig{
		Config: core.Config{
			Protocol: protocol.Coordinated{}, Workers: 2, Seed: 7,
			Batching: core.BatchingConfig{MaxRecords: 16},
		},
		Query: "q1", Rate: 6000, Duration: time.Second, HotRatio: 0.1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Query != "q1" || cfg.Workers != 2 || cfg.Output != core.OutputTransactional {
		t.Fatalf("defaults overrode set fields or missed zero ones: query=%s workers=%d output=%v",
			cfg.Query, cfg.Workers, cfg.Output)
	}
	if cfg.HotRatio != 0.8 {
		t.Fatalf("hot ratio = %v, want the scenario's 0.8", cfg.HotRatio)
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Summary.AvgBatchRecords; got <= 1 {
		t.Fatalf("batch size 16 did not reach the scenario run: %.2f rec/batch", got)
	}
	if res.DuplicateUIDs != 0 {
		t.Fatalf("scenario cell published %d duplicate results", res.DuplicateUIDs)
	}
}
