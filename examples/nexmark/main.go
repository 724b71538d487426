// Command nexmark runs NexMark Q3 (the incremental person/auction join)
// under each checkpointing protocol at a fixed rate, with a failure
// two-fifths into the run, and prints a comparison of the metrics the paper
// uses: p50/p99 latency, average checkpointing time, restart time, message
// overhead and invalid checkpoints.
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"checkmate"
)

func main() {
	var (
		workers  = flag.Int("workers", 4, "parallelism (one worker per operator instance)")
		rate     = flag.Float64("rate", 30000, "input rate (events/second, full NexMark mix)")
		duration = flag.Duration("duration", 4*time.Second, "run duration")
		query    = flag.String("query", "q3", "NexMark query: q1, q3, q8, q12")
	)
	flag.Parse()

	fmt.Printf("NexMark %s | %d workers | %.0f ev/s | failure at %v\n\n",
		*query, *workers, *rate, *duration*2/5)

	header := fmt.Sprintf("%-5s %10s %10s %10s %10s %10s %12s",
		"proto", "p50", "p99", "avg CT", "restart", "overhead", "ckpts(inv)")
	fmt.Println(header)
	for _, proto := range checkmate.AllProtocols() {
		res, err := checkmate.Run(checkmate.RunConfig{
			Config: checkmate.EngineConfig{
				Protocol:           proto,
				Workers:            *workers,
				CheckpointInterval: *duration / 10,
				Seed:               42,
			},
			Query:     *query,
			Rate:      *rate,
			Duration:  *duration,
			FailureAt: *duration * 2 / 5,
		})
		if err != nil {
			log.Fatalf("%s: %v", proto.Name(), err)
		}
		s := res.Summary
		fmt.Printf("%-5s %10v %10v %10v %10v %9.2fx %7d(%d)\n",
			proto.Name(),
			s.Timeline.P50.Round(time.Millisecond),
			s.Timeline.P99.Round(time.Millisecond),
			s.AvgCheckpointTime.Round(100*time.Microsecond),
			s.RestartTime.Round(time.Millisecond),
			s.OverheadRatio,
			s.TotalCheckpoints, s.InvalidCheckpoints)
	}
	fmt.Println("\nCT = checkpointing time (COOR: full round; UNC/CIC: local snapshot).")
	fmt.Println("NONE loses in-flight records on failure (gap recovery).")
}
