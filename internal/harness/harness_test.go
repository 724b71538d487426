package harness

import (
	"io"
	"strings"
	"testing"
	"time"

	"checkmate/internal/chaos"
	"checkmate/internal/core"
	"checkmate/internal/metrics"
	"checkmate/internal/mq"
	"checkmate/internal/objstore"
	"checkmate/internal/protocol"
)

func quickRun(t *testing.T, cfg RunConfig) RunResult {
	t.Helper()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(RunConfig{Config: core.Config{Protocol: protocol.None{}}, Query: "q1"}); err == nil {
		t.Fatal("zero rate should fail")
	}
	if _, err := Run(RunConfig{Config: core.Config{Protocol: protocol.None{}, Workers: 2}, Query: "bogus", Rate: 100}); err == nil {
		t.Fatal("unknown query should fail")
	}
}

// TestRunRejectsPresetWiring checks Run refuses a config whose engine
// wiring or Duration-derived timings — which Run sets itself — were
// already set by the caller.
func TestRunRejectsPresetWiring(t *testing.T) {
	for name, set := range map[string]func(*core.Config){
		"Broker":         func(c *core.Config) { c.Broker = mq.NewBroker() },
		"Store":          func(c *core.Config) { c.Store = objstore.New(objstore.Config{}) },
		"Recorder":       func(c *core.Config) { c.Recorder = metrics.NewRecorder(time.Now(), time.Second, time.Second) },
		"Chaos":          func(c *core.Config) { c.Chaos = chaos.NewInjector(chaos.Plan{}) },
		"DetectionDelay": func(c *core.Config) { c.DetectionDelay = time.Millisecond },
		"CatchUpLag":     func(c *core.Config) { c.CatchUpLag = time.Millisecond },
		"WALDir":         func(c *core.Config) { c.Durability.WALDir = "wal" },
	} {
		cfg := RunConfig{Config: core.Config{Protocol: protocol.None{}, Workers: 2}, Query: "q1", Rate: 100}
		set(&cfg.Config)
		if _, err := Run(cfg); err == nil || !strings.Contains(err.Error(), "leave them zero") {
			t.Errorf("preset %s: err = %v, want a wiring error", name, err)
		}
	}
}

func TestRunQ1AllProtocols(t *testing.T) {
	if testing.Short() {
		t.Skip("full protocol sweep is slow")
	}
	for _, p := range protocol.All() {
		p := p
		t.Run(p.Name(), func(t *testing.T) {
			res := quickRun(t, RunConfig{
				Config: core.Config{Protocol: p, Workers: 2, Seed: 2},
				Query:  "q1", Rate: 3000, Duration: 800 * time.Millisecond,
			})
			if res.Summary.SinkCount == 0 {
				t.Fatal("no records reached the sink")
			}
			if !res.Sustainable {
				t.Fatalf("3k ev/s on q1 should be sustainable (lag %v)", res.MaxLag)
			}
		})
	}
}

func TestRunQ3WithFailure(t *testing.T) {
	res := quickRun(t, RunConfig{
		Config: core.Config{
			Protocol: protocol.Uncoordinated{}, Workers: 2,
			CheckpointInterval: 100 * time.Millisecond, Seed: 3,
		},
		Query: "q3", Rate: 4000, Duration: 1200 * time.Millisecond,
		FailureAt: 400 * time.Millisecond,
	})
	if res.Summary.Failures != 1 {
		t.Fatalf("failures = %d", res.Summary.Failures)
	}
	if res.Summary.RestartTime <= 0 {
		t.Fatal("no restart time recorded")
	}
	if res.Summary.TotalCheckpoints == 0 {
		t.Fatal("no checkpoints accounted")
	}
}

func TestRunQ8AndQ12(t *testing.T) {
	if testing.Short() {
		t.Skip("windowed query runs are slow")
	}
	for _, q := range []string{"q8", "q12"} {
		res := quickRun(t, RunConfig{
			Config: core.Config{
				Protocol: protocol.Coordinated{}, Workers: 2,
				CheckpointInterval: 150 * time.Millisecond, Seed: 4,
			},
			Query: q, Rate: 3000, Duration: 800 * time.Millisecond,
			Window: 200 * time.Millisecond,
		})
		if res.Summary.SinkCount == 0 {
			t.Fatalf("%s: no sink records", q)
		}
	}
}

func TestRunCyclic(t *testing.T) {
	res := quickRun(t, RunConfig{
		Config: core.Config{
			Protocol: protocol.Uncoordinated{}, Workers: 2,
			CheckpointInterval: 150 * time.Millisecond, Seed: 5,
		},
		Query: QueryCyclic, Rate: 3000, Duration: 800 * time.Millisecond, Nodes: 500,
	})
	if res.Summary.SinkCount == 0 {
		t.Fatal("cyclic query produced no reachability records")
	}
}

func TestRunCyclicRejectsCOOR(t *testing.T) {
	if _, err := Run(RunConfig{
		Config: core.Config{Protocol: protocol.Coordinated{}, Workers: 2},
		Query:  QueryCyclic, Rate: 1000, Duration: 500 * time.Millisecond,
	}); err == nil {
		t.Fatal("COOR on cyclic query must fail")
	}
}

func TestRunUnsustainableRateDetected(t *testing.T) {
	if testing.Short() {
		t.Skip("overload run is slow")
	}
	// Far beyond what 2 workers can do with heavy synthetic per-byte work
	// (q1 consumes the bid stream: 92% of the generated mix).
	res := quickRun(t, RunConfig{
		Config: core.Config{
			Protocol: protocol.CIC{}, Workers: 2, Seed: 6, NetWorkFactor: 256,
		},
		Query: "q1", Rate: 2_000_000, Duration: 600 * time.Millisecond,
	})
	if res.Sustainable {
		t.Fatalf("2M ev/s on 2 workers reported sustainable (lag %v)", res.MaxLag)
	}
}

func TestFindMST(t *testing.T) {
	if testing.Short() {
		t.Skip("MST search is slow")
	}
	mst, err := FindMST(MSTConfig{
		Base:          RunConfig{Config: core.Config{Protocol: protocol.None{}, Workers: 2, Seed: 7}, Query: "q1"},
		ProbeDuration: 500 * time.Millisecond,
		StartRate:     2000,
		MaxRate:       64_000,
		Bisections:    2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if mst < 2000 {
		t.Fatalf("MST = %.0f, expected at least the start rate", mst)
	}
}

func TestMSTCache(t *testing.T) {
	if testing.Short() {
		t.Skip("MST search is slow")
	}
	c := NewMSTCache()
	cfg := MSTConfig{
		Base:          RunConfig{Config: core.Config{Protocol: protocol.None{}, Workers: 2, Seed: 8}, Query: "q1"},
		ProbeDuration: 400 * time.Millisecond,
		StartRate:     2000,
		MaxRate:       16_000,
		Bisections:    1,
	}
	v1, err := c.Get(cfg)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	v2, err := c.Get(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if v1 != v2 {
		t.Fatalf("cache returned different value: %v vs %v", v1, v2)
	}
	if time.Since(start) > 50*time.Millisecond {
		t.Fatal("second Get did not hit the cache")
	}
}

func TestTableIFeaturesStatic(t *testing.T) {
	s := NewSuite()
	s.Out = io.Discard
	out := s.TableIFeatures().String()
	for _, want := range []string{"Blocking (markers)", "Forced checkpoints", "COOR", "CIC"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Table I missing %q:\n%s", want, out)
		}
	}
}

func TestRunUnalignedCoordinated(t *testing.T) {
	res := quickRun(t, RunConfig{
		Config: core.Config{
			Protocol: protocol.UnalignedCoordinated{}, Workers: 2,
			CheckpointInterval: 120 * time.Millisecond, Seed: 12,
		},
		Query: "q12", Rate: 5000, Duration: 1 * time.Second,
		FailureAt: 350 * time.Millisecond,
	})
	if res.Summary.SinkCount == 0 {
		t.Fatal("no output")
	}
	if res.Summary.Failures != 1 || res.Summary.RestartTime <= 0 {
		t.Fatalf("failure handling: %+v", res.Summary)
	}
	if res.Summary.TotalCheckpoints == 0 {
		t.Fatal("no completed unaligned rounds")
	}
}

func TestRunUnalignedOnCyclicQuery(t *testing.T) {
	res := quickRun(t, RunConfig{
		Config: core.Config{
			Protocol: protocol.UnalignedCoordinated{}, Workers: 2,
			CheckpointInterval: 150 * time.Millisecond, Seed: 13,
		},
		Query: QueryCyclic, Rate: 3000, Duration: 800 * time.Millisecond, Nodes: 500,
	})
	if res.Summary.SinkCount == 0 {
		t.Fatal("unaligned coordinated produced no output on the cyclic query")
	}
	if res.Summary.MarkerMessages == 0 {
		t.Fatal("no markers circulated through the feedback loop")
	}
}

func TestRunBCSForcesMoreCheckpointsThanHMNR(t *testing.T) {
	if testing.Short() {
		t.Skip("policy comparison runs are slow")
	}
	run := func(p interface {
		Name() string
	}) RunResult {
		proto, err := protocol.ByName(p.Name())
		if err != nil {
			t.Fatal(err)
		}
		return quickRun(t, RunConfig{
			Config: core.Config{
				Protocol: proto, Workers: 2, CheckpointInterval: 200 * time.Millisecond,
				Seed: 14,
			},
			Query: "q3", Rate: 8000, Duration: 900 * time.Millisecond,
		})
	}
	bcs := run(protocol.BCS{})
	hmnr := run(protocol.CIC{})
	if bcs.Summary.ForcedCkpts == 0 {
		t.Fatal("BCS took no forced checkpoints in a multi-stage pipeline")
	}
	if bcs.Summary.ForcedCkpts <= hmnr.Summary.ForcedCkpts {
		t.Fatalf("BCS forced %d <= HMNR forced %d; expected far more",
			bcs.Summary.ForcedCkpts, hmnr.Summary.ForcedCkpts)
	}
	// And BCS's piggyback is much smaller.
	if bcs.Summary.OverheadRatio >= hmnr.Summary.OverheadRatio {
		t.Fatalf("BCS overhead %.2f >= HMNR overhead %.2f",
			bcs.Summary.OverheadRatio, hmnr.Summary.OverheadRatio)
	}
}

// TestSuiteSmoke exercises one tiny suite cell end to end (heavily reduced
// so it stays fast).
func TestSuiteSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("suite smoke test is slow")
	}
	s := NewSuite()
	s.Out = io.Discard
	s.Scale = 0.02 // 1.2 s runs
	s.Workers = []int{2}
	s.TableWorkers = []int{2}
	s.TimelineWorkers = []int{2}
	s.CyclicWorkers = []int{2}
	s.Queries = []string{"q1"}
	s.SkewRatios = []float64{0.2}
	s.SkewWorkers = 2
	s.MaxRate = 32_000

	tab, err := s.Fig7MST()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 1 {
		t.Fatalf("Fig7 rows = %d", len(tab.Rows))
	}
	ov, err := s.TableIIOverhead()
	if err != nil {
		t.Fatal(err)
	}
	if len(ov.Rows) != 1 {
		t.Fatalf("TableII rows = %d", len(ov.Rows))
	}
	rt, err := s.Fig11RestartTime()
	if err != nil {
		t.Fatal(err)
	}
	if len(rt.Rows) != 1 {
		t.Fatalf("Fig11 rows = %d", len(rt.Rows))
	}
}
