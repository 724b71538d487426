package harness

import (
	"testing"
	"time"

	"checkmate/internal/core"
	"checkmate/internal/protocol"
)

// TestRunQ2EndToEnd runs the Q2 selection query under every protocol family
// at a modest rate and checks that output reaches the sink.
func TestRunQ2EndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, p := range protocol.All() {
		p := p
		t.Run(p.Name(), func(t *testing.T) {
			t.Parallel()
			res, err := Run(RunConfig{
				Config: core.Config{Protocol: p, Workers: 2, Seed: 11},
				Query:  "q2", Rate: 5000, Duration: 1200 * time.Millisecond,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Summary.SinkCount == 0 {
				t.Fatal("q2 produced no output")
			}
			// Q2 selects roughly 1/123 of the bids; sanity-check selectivity.
			bids := res.Produced["bids"]
			if res.Summary.SinkCount > bids/20 {
				t.Fatalf("q2 sink count %d out of %d bids: filter not selective", res.Summary.SinkCount, bids)
			}
		})
	}
}

// TestRunQ5EndToEnd runs the sliding-window hot-items query with a failure
// under the uncoordinated protocol: the pipeline must recover and produce
// hot-item updates.
func TestRunQ5EndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	res, err := Run(RunConfig{
		Config: core.Config{Protocol: protocol.Uncoordinated{}, Workers: 2, Seed: 5},
		Query:  "q5", Rate: 5000, Duration: 1500 * time.Millisecond,
		FailureAt: 500 * time.Millisecond, Window: 200 * time.Millisecond,
		Slide: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.SinkCount == 0 {
		t.Fatal("q5 produced no output")
	}
	if res.Summary.Failures == 0 || res.Summary.RestartTime == 0 {
		t.Fatal("failure was not detected and restarted")
	}
}

// TestRunQ11EndToEnd runs the session-window query with a failure under
// UNC: sessions must survive the rollback and results must flow.
func TestRunQ11EndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	res, err := Run(RunConfig{
		Config: core.Config{Protocol: protocol.Uncoordinated{}, Workers: 2, Seed: 13},
		Query:  "q11", Rate: 5000, Duration: 1500 * time.Millisecond,
		FailureAt: 600 * time.Millisecond, SessionGap: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.SinkCount == 0 {
		t.Fatal("q11 produced no session results")
	}
	if res.Summary.Failures != 1 {
		t.Fatal("failure not injected")
	}
}

// TestRunQ5Coordinated checks the aligned protocol completes rounds on the
// five-operator Q5 topology (two shuffles).
func TestRunQ5Coordinated(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	res, err := Run(RunConfig{
		Config: core.Config{Protocol: protocol.Coordinated{}, Workers: 2, Seed: 3},
		Query:  "q5", Rate: 4000, Duration: 1200 * time.Millisecond,
		Window: 200 * time.Millisecond, Slide: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.TotalCheckpoints == 0 {
		t.Fatal("no coordinated rounds completed on q5")
	}
}

// TestRunQ4EndToEnd runs the category-average query (two-source join plus
// a second keyed stage) under every protocol family with a mid-run
// failure; the pipeline must recover and keep producing averages.
func TestRunQ4EndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, p := range protocol.All() {
		p := p
		t.Run(p.Name(), func(t *testing.T) {
			t.Parallel()
			cfg := RunConfig{
				Config: core.Config{Protocol: p, Workers: 2, Seed: 11},
				Query:  "q4", Rate: 5000, Duration: 1500 * time.Millisecond,
			}
			if p.Kind() != core.KindNone {
				cfg.FailureAt = 600 * time.Millisecond
			}
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.Summary.SinkCount == 0 {
				t.Fatal("q4 produced no output")
			}
			if cfg.FailureAt > 0 && res.Summary.Failures != 1 {
				t.Fatalf("failures = %d", res.Summary.Failures)
			}
		})
	}
}

// TestRunQ7EndToEnd runs the global-maximum query (parallelism-1 combiner
// stage) under every protocol family.
func TestRunQ7EndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, p := range protocol.All() {
		p := p
		t.Run(p.Name(), func(t *testing.T) {
			t.Parallel()
			res, err := Run(RunConfig{
				Config: core.Config{Protocol: p, Workers: 2, Seed: 11},
				Query:  "q7", Rate: 5000, Duration: 1200 * time.Millisecond,
				Window: 150 * time.Millisecond,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Summary.SinkCount == 0 {
				t.Fatal("q7 produced no output")
			}
			// The global stage compresses partial maxima: far fewer results
			// than bids.
			if res.Summary.SinkCount >= res.Produced["bids"] {
				t.Fatalf("q7 sink count %d >= bids %d: no aggregation happened",
					res.Summary.SinkCount, res.Produced["bids"])
			}
		})
	}
}

// TestRunQ12ETEndToEnd runs the event-time window query, with a failure
// under the logging protocols, checking watermark traffic flows and output
// is produced.
func TestRunQ12ETEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, p := range protocol.All() {
		p := p
		t.Run(p.Name(), func(t *testing.T) {
			t.Parallel()
			cfg := RunConfig{
				Config: core.Config{Protocol: p, Workers: 2, Seed: 11},
				Query:  "q12et", Rate: 5000, Duration: 1500 * time.Millisecond,
				Window: 150 * time.Millisecond,
			}
			if p.Kind() == core.KindUncoordinated {
				cfg.FailureAt = 600 * time.Millisecond
			}
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.Summary.SinkCount == 0 {
				t.Fatal("q12et produced no output")
			}
			if res.Summary.WatermarkMessages == 0 {
				t.Fatal("q12et ran without watermarks")
			}
		})
	}
}
