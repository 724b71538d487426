package harness

import (
	"testing"
	"time"

	"checkmate/internal/core"
	"checkmate/internal/protocol"
)

// TestTriggerPoliciesEndToEnd runs the uncoordinated protocol with each
// trigger policy through a failure and checks that recovery completes under
// every policy.
func TestTriggerPoliciesEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	policies := []protocol.TriggerPolicy{
		nil, // default jittered interval
		protocol.Interval{},
		protocol.EventCount{Events: 400},
		protocol.Idle{IdleFor: 20 * time.Millisecond},
	}
	for _, pol := range policies {
		p := protocol.UncoordinatedWithPolicy{Policy: pol}
		t.Run(p.Name(), func(t *testing.T) {
			t.Parallel()
			res, err := Run(RunConfig{
				Config: core.Config{Protocol: p, Workers: 2, Seed: 21},
				Query:  "q12", Rate: 4000, Duration: 1500 * time.Millisecond,
				FailureAt: 600 * time.Millisecond, Window: 200 * time.Millisecond,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Summary.SinkCount == 0 {
				t.Fatal("no output")
			}
			if res.Summary.Failures != 1 || res.Summary.RestartTime == 0 {
				t.Fatalf("failure not recovered: %+v", res.Summary.Failures)
			}
			if res.Summary.TotalCheckpoints == 0 {
				t.Fatal("no checkpoints under policy")
			}
			t.Logf("%s: checkpoints=%d invalid=%d replayed=%d",
				p.Name(), res.Summary.TotalCheckpoints,
				res.Summary.InvalidCheckpoints, res.Summary.ReplayedOnRecovery)
		})
	}
}

// TestEventCountPolicyBoundsReplay checks the ablation claim: a small
// event-count budget takes more checkpoints but replays fewer messages on
// recovery than a long fixed interval.
func TestEventCountPolicyBoundsReplay(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	run := func(p protocol.UncoordinatedWithPolicy, interval time.Duration) (ckpts int, replayed uint64) {
		res, err := Run(RunConfig{
			Config: core.Config{
				Protocol: p, Workers: 2, CheckpointInterval: interval, Seed: 9,
			},
			Query: "q1", Rate: 8000, Duration: 1500 * time.Millisecond,
			FailureAt: 700 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Summary.TotalCheckpoints, res.Summary.ReplayedOnRecovery
	}
	// Long interval: few checkpoints, long replay.
	coarseCkpts, coarseReplay := run(protocol.UncoordinatedWithPolicy{Policy: protocol.Interval{}}, 600*time.Millisecond)
	// Tight event budget: many checkpoints, short replay.
	fineCkpts, fineReplay := run(protocol.UncoordinatedWithPolicy{Policy: protocol.EventCount{Events: 250}}, 600*time.Millisecond)
	t.Logf("coarse: ckpts=%d replay=%d; fine: ckpts=%d replay=%d",
		coarseCkpts, coarseReplay, fineCkpts, fineReplay)
	if fineCkpts <= coarseCkpts {
		t.Fatalf("event-count policy did not take more checkpoints (%d vs %d)", fineCkpts, coarseCkpts)
	}
	if fineReplay >= coarseReplay && coarseReplay > 0 {
		t.Fatalf("event-count policy did not bound replay (%d vs %d)", fineReplay, coarseReplay)
	}
}
