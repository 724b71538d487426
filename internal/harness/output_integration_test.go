package harness

import (
	"testing"
	"time"

	"checkmate/internal/core"
	"checkmate/internal/protocol"
)

// TestTransactionalOutputEndToEnd runs every checkpointing protocol through
// a NexMark query with a mid-run failure and checks the exactly-once-output
// contract of transactional sinks: no result is ever visible twice, and the
// stats balance.
func TestTransactionalOutputEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, p := range []core.Protocol{protocol.Coordinated{}, protocol.Uncoordinated{}, protocol.CIC{}} {
		p := p
		t.Run(p.Name(), func(t *testing.T) {
			t.Parallel()
			res, err := Run(RunConfig{
				Config: core.Config{
					Protocol: p, Workers: 2, Output: core.OutputTransactional, Seed: 7,
				},
				Query: "q1", Rate: 8000, Duration: 1500 * time.Millisecond,
				FailureAt: 600 * time.Millisecond,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.DuplicateUIDs != 0 {
				t.Fatalf("transactional output published %d duplicate results", res.DuplicateUIDs)
			}
			if res.Output.Visible == 0 {
				t.Fatal("no output became visible")
			}
			if res.Output.Emitted != res.Output.Visible+res.Output.Discarded+res.Output.Pending {
				t.Fatalf("output stats do not balance: %+v", res.Output)
			}
			if res.VisibilityP50 <= 0 {
				t.Fatal("visibility latency not computed")
			}
			t.Logf("%s: visible=%d discarded=%d pending=%d visP50=%v",
				p.Name(), res.Output.Visible, res.Output.Discarded, res.Output.Pending, res.VisibilityP50)
		})
	}
}

// TestImmediateOutputEndToEnd checks that the immediate mode records the
// baseline behaviour: output is collected, visibility equals emission, and
// failure-free runs publish each result once.
func TestImmediateOutputEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	res, err := Run(RunConfig{
		Config: core.Config{
			Protocol: protocol.Coordinated{}, Workers: 2, Output: core.OutputImmediate,
			Seed: 7,
		},
		Query: "q1", Rate: 8000, Duration: 1200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.DuplicateUIDs != 0 {
		t.Fatalf("failure-free immediate run duplicated %d results", res.DuplicateUIDs)
	}
	if res.Output.Visible == 0 || res.Output.Visible != res.Output.Emitted {
		t.Fatalf("immediate mode should publish everything: %+v", res.Output)
	}
	if res.Output.Pending != 0 || res.Output.Discarded != 0 {
		t.Fatalf("immediate mode buffered or discarded output: %+v", res.Output)
	}
}

// TestRollbackScopeAnalysis checks the single-failure scope analysis: q1
// (no shuffling) must keep the average scope well below a global rollback,
// while the totals stay within bounds.
func TestRollbackScopeAnalysis(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	res, err := Run(RunConfig{
		Config: core.Config{Protocol: protocol.Uncoordinated{}, Workers: 4, Seed: 5},
		Query:  "q1", Rate: 8000, Duration: 1200 * time.Millisecond,
		AnalyzeRollbackScope: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	sc := res.Scope
	if sc.Instances != 3*4 {
		t.Fatalf("instances = %d, want 12", sc.Instances)
	}
	if sc.AvgScope < 1 || sc.MaxScope > sc.Instances {
		t.Fatalf("scope stats out of bounds: %+v", sc)
	}
	// q1 has no shuffling: a single failure must never drag in the whole
	// pipeline.
	if sc.AvgScope >= float64(sc.Instances) {
		t.Fatalf("q1 average scope %.1f equals a global rollback", sc.AvgScope)
	}
}

// TestCompressionEndToEnd verifies the harness knob reduces checkpoint
// store traffic on a stateful query. COOR is the protocol to measure:
// its blobs are pure operator state, while UNC blobs also carry the
// incompressible dedup-UID ring.
func TestCompressionEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	run := func(compress bool) float64 {
		res, err := Run(RunConfig{
			Config: core.Config{
				Protocol: protocol.Coordinated{}, Workers: 2,
				CompressCheckpoints: compress, Seed: 5,
			},
			Query: "q12", Rate: 6000, Duration: 1200 * time.Millisecond,
			Window: 200 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Summary.SinkCount == 0 {
			t.Fatal("no output")
		}
		if res.Store.Puts == 0 {
			t.Fatal("no checkpoints stored")
		}
		// Bytes per PUT: robust against run-to-run checkpoint-count jitter.
		return float64(res.Store.PutBytes) / float64(res.Store.Puts)
	}
	plain := run(false)
	compressed := run(true)
	if compressed >= plain {
		t.Fatalf("compressed bytes/checkpoint %.0f >= plain %.0f", compressed, plain)
	}
}
