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
