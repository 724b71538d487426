package harness

import (
	"testing"
	"time"

	"checkmate/internal/core"
	"checkmate/internal/protocol"
)

// TestDeltaCheckpointingReducesCheckpointBytes runs the large-keyed-state
// queries under the uncoordinated protocol with incremental checkpointing
// enabled and verifies the headline property: the steady-state keyed bytes
// written per checkpoint (delta segments) are measurably smaller than the
// full base snapshots the same run takes at compaction points — i.e.
// frequent checkpoints pay for churn, not total state size.
func TestDeltaCheckpointingReducesCheckpointBytes(t *testing.T) {
	if testing.Short() {
		t.Skip("integration run is slow")
	}
	for _, q := range []string{"q3", "q8"} {
		q := q
		t.Run(q, func(t *testing.T) {
			res := quickRun(t, RunConfig{
				Config: core.Config{
					Protocol: protocol.Uncoordinated{}, Workers: 2,
					CheckpointInterval: 80 * time.Millisecond, DeltaCheckpoints: true,
					Seed: 11,
				},
				Query: q, Rate: 6000, Duration: 2 * time.Second, Window: time.Second,
			})
			sum := res.Summary
			if sum.SinkCount == 0 {
				t.Fatal("no records reached the sink")
			}
			if sum.FullKeyedCkpts == 0 || sum.DeltaKeyedCkpts == 0 {
				t.Fatalf("expected full and delta keyed snapshots, got %d/%d",
					sum.FullKeyedCkpts, sum.DeltaKeyedCkpts)
			}
			if sum.MaxChainLen < 2 {
				t.Fatalf("max chain length = %d, want >= 2", sum.MaxChainLen)
			}
			avgFull := sum.FullKeyedBytes / sum.FullKeyedCkpts
			avgDelta := sum.DeltaKeyedBytes / sum.DeltaKeyedCkpts
			if avgDelta >= avgFull {
				t.Fatalf("%s: avg delta segment %d B >= avg full segment %d B", q, avgDelta, avgFull)
			}
			t.Logf("%s: avg full %d B, avg delta %d B (%.0f%% saving), max chain %d",
				q, avgFull, avgDelta, 100*(1-float64(avgDelta)/float64(avgFull)), sum.MaxChainLen)
		})
	}
}

// TestDeltaCheckpointingSurvivesFailure exercises the chain-composing
// restore path end to end on a real query: a worker dies mid-run with
// incremental checkpointing on, and the pipeline must recover and finish.
func TestDeltaCheckpointingSurvivesFailure(t *testing.T) {
	if testing.Short() {
		t.Skip("integration run is slow")
	}
	res := quickRun(t, RunConfig{
		Config: core.Config{
			Protocol: protocol.Uncoordinated{}, Workers: 2,
			CheckpointInterval: 100 * time.Millisecond, DeltaCheckpoints: true, Seed: 7,
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
	if res.Summary.DeltaKeyedCkpts == 0 {
		t.Fatal("no delta segments written")
	}
}

// TestQ3SkewExactlyOnce runs q3's skew regime — 10 % hot auctions, delta
// checkpoints, one worker failure — under COOR and UNC with transactional
// output, and requires the output and the final keyed state to match a
// checkpoint-free run on the same input exactly. The input stays under
// 8,012 events, so the hot seller (person 2003, one person per four
// events) never arrives and its pending-auction list only grows: the list
// is appended to across a base+delta chain and rebuilt from it by the
// restore, and only the state comparison sees it.
func TestQ3SkewExactlyOnce(t *testing.T) {
	input := RunConfig{
		Config:   core.Config{Workers: 2, Seed: 5},
		Query:    "q3",
		Rate:     5000,
		Duration: 1500 * time.Millisecond, // 7,500 events
		HotRatio: 0.1,
	}
	oracle := input
	oracle.Protocol = protocol.None{}
	ref := quickRun(t, oracle)
	want := ref.Summary.SinkCount
	if want == 0 {
		t.Fatal("checkpoint-free run produced no output")
	}
	for _, p := range []core.Protocol{protocol.Coordinated{}, protocol.Uncoordinated{}} {
		t.Run(p.Name(), func(t *testing.T) {
			cfg := input
			cfg.Protocol = p
			cfg.DeltaCheckpoints = true
			cfg.CheckpointInterval = 100 * time.Millisecond
			cfg.Output = core.OutputTransactional
			cfg.FailureAt = 600 * time.Millisecond
			res := quickRun(t, cfg)
			if res.Summary.Failures != 1 {
				t.Fatalf("failures = %d, want 1", res.Summary.Failures)
			}
			if res.Summary.DeltaKeyedCkpts == 0 {
				t.Fatal("no delta keyed checkpoints taken")
			}
			if res.DuplicateUIDs != 0 {
				t.Fatalf("%d results published twice", res.DuplicateUIDs)
			}
			if got := res.Output.Visible + res.Output.Pending; got != want {
				t.Fatalf("output holds %d results (%d visible, %d pending), checkpoint-free run %d",
					got, res.Output.Visible, res.Output.Pending, want)
			}
			if res.StateKeys != ref.StateKeys || res.StateBytes != ref.StateBytes {
				t.Fatalf("final keyed state %d keys / %d B, checkpoint-free run %d keys / %d B",
					res.StateKeys, res.StateBytes, ref.StateKeys, ref.StateBytes)
			}
		})
	}
}
