package harness

import (
	"testing"
	"time"

	"checkmate/internal/core"
	"checkmate/internal/protocol"
)

// TestBatchedUnbatchedEquivalenceQ1 runs the real NexMark q1 workload at
// batch sizes 1 and 64 under each protocol family and requires identical
// sink output volume — failure-free exactly-once processing makes the sink
// count a deterministic function of the input, so any batching bug that
// loses, duplicates or reorders records across a marker shows up here.
// Deliberately cheap: it runs in -short mode as part of tier-1.
func TestBatchedUnbatchedEquivalenceQ1(t *testing.T) {
	for _, name := range []string{"COOR", "UNC", "CIC"} {
		t.Run(name, func(t *testing.T) {
			var counts [2]uint64
			for i, batch := range []int{1, 64} {
				proto, err := protocol.ByName(name)
				if err != nil {
					t.Fatal(err)
				}
				res, runErr := Run(RunConfig{
					Config: core.Config{
						Protocol: proto,
						Workers:  2,
						Seed:     7,
						Batching: core.BatchingConfig{MaxRecords: batch},
					},
					Query:    "q1",
					Rate:     15000,
					Duration: 1200 * time.Millisecond,
				})
				if runErr != nil {
					t.Fatal(runErr)
				}
				if res.Summary.SinkCount == 0 {
					t.Fatalf("batch=%d produced no sink output", batch)
				}
				if res.Summary.TotalCheckpoints == 0 {
					t.Fatalf("batch=%d completed no checkpoints", batch)
				}
				counts[i] = res.Summary.SinkCount
				if batch > 1 && res.Summary.AvgBatchRecords <= 1 {
					t.Fatalf("batch=%d not engaged: %.2f rec/batch", batch, res.Summary.AvgBatchRecords)
				}
			}
			if counts[0] != counts[1] {
				t.Fatalf("sink counts differ: batch1=%d batch64=%d", counts[0], counts[1])
			}
		})
	}
}
