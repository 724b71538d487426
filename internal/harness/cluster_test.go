package harness

import (
	"testing"
	"time"

	"checkmate/internal/protocol"
)

// TestPlacementEquivalenceQ1 runs the real NexMark q1 workload under each
// placement policy on a 3-worker cluster and requires identical sink
// output volume per protocol family — placement moves instances between
// workers, it must never change what the job computes. Mirrors the
// batched-vs-unbatched equivalence suite and runs in -short mode as part
// of tier-1.
func TestPlacementEquivalenceQ1(t *testing.T) {
	for _, name := range []string{"COOR", "UNC", "CIC"} {
		t.Run(name, func(t *testing.T) {
			var counts []uint64
			for _, placement := range []string{"spread", "round-robin", "colocate"} {
				proto, err := protocol.ByName(name)
				if err != nil {
					t.Fatal(err)
				}
				res, runErr := Run(RunConfig{
					Query:          "q1",
					Protocol:       proto,
					Workers:        2,
					Rate:           15000,
					Duration:       1200 * time.Millisecond,
					Seed:           7,
					ClusterWorkers: 3,
					Placement:      placement,
				})
				if runErr != nil {
					t.Fatal(runErr)
				}
				if res.Summary.SinkCount == 0 {
					t.Fatalf("%s produced no sink output", placement)
				}
				if res.Summary.TotalCheckpoints == 0 {
					t.Fatalf("%s completed no checkpoints", placement)
				}
				counts = append(counts, res.Summary.SinkCount)
			}
			if counts[0] != counts[1] || counts[0] != counts[2] {
				t.Fatalf("sink counts differ across placements: %v", counts)
			}
		})
	}
}

// TestRTOWarmCache checks the recovery-time breakdown of one warm-cache
// failure: the RTO phases must be internally consistent, and the run must
// fetch strictly fewer remote bytes than it restored, with the remainder
// served locally.
func TestRTOWarmCache(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	proto, err := protocol.ByName("COOR")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(RunConfig{
		Query:              "q3",
		Protocol:           proto,
		Workers:            4,
		Rate:               20000,
		Duration:           3 * time.Second,
		FailureAt:          1200 * time.Millisecond,
		CheckpointInterval: 300 * time.Millisecond,
		LocalCache:         true,
	})
	if err != nil {
		t.Fatal(err)
	}
	rtos := res.Summary.RTOs
	if len(rtos) == 0 {
		t.Fatal("no recovery recorded")
	}
	rto := rtos[len(rtos)-1]
	if rto.Total <= 0 {
		t.Fatalf("recovery did not complete: %+v", rto)
	}
	if rto.RestoredBytes == 0 || rto.LocalBytes+rto.RemoteBytes != rto.RestoredBytes {
		t.Fatalf("byte accounting broken: %+v", rto)
	}
	if rto.RemoteBytes >= rto.RestoredBytes {
		t.Fatalf("warm cache served nothing: remote %d of %d restored", rto.RemoteBytes, rto.RestoredBytes)
	}
	if rto.Detect <= 0 {
		t.Fatalf("empty RTO breakdown: %+v", rto)
	}
	if rto.ScopeInstances == 0 || rto.ScopeWorkers == 0 {
		t.Fatalf("no rollback scope reported: %+v", rto)
	}
}

// TestRollingFailureDomain drives a rolling restart through the harness
// failure schedule: two successive single-worker failures, each fully
// recovered.
func TestRollingFailureDomain(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	proto, err := protocol.ByName("UNC")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(RunConfig{
		Query:        "q1",
		Protocol:     proto,
		Workers:      4,
		Rate:         15000,
		Duration:     4 * time.Second,
		FailureAt:    time.Second,
		FailDomain:   "rolling",
		FailRackSize: 2,
		FailInterval: 1200 * time.Millisecond,
		LocalCache:   true,
		Seed:         7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.Failures != 2 {
		t.Fatalf("failures = %d, want 2 (rolling restart of 2 workers)", res.Summary.Failures)
	}
	if len(res.Summary.RTOs) != 2 {
		t.Fatalf("RTOs = %d, want 2", len(res.Summary.RTOs))
	}
	for i, rto := range res.Summary.RTOs {
		if len(rto.FailedWorkers) != 1 {
			t.Fatalf("rolling event %d hit workers %v, want one", i, rto.FailedWorkers)
		}
	}
	if res.Summary.RTOs[0].FailedWorkers[0] == res.Summary.RTOs[1].FailedWorkers[0] {
		t.Fatal("rolling restart hit the same worker twice")
	}
}
