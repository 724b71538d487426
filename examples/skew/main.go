// Command skew reproduces the headline surprise of the paper (Fig. 12):
// under a skewed (hot-items) workload the coordinated protocol's latency
// and checkpointing time blow up — the straggling worker delays markers and
// downstream alignment blocks healthy channels — while the uncoordinated
// and communication-induced protocols stay flat.
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
		workers  = flag.Int("workers", 4, "parallelism")
		rate     = flag.Float64("rate", 30000, "input rate (events/second)")
		duration = flag.Duration("duration", 4*time.Second, "run duration")
		query    = flag.String("query", "q12", "keyed NexMark query: q3, q8 or q12")
	)
	flag.Parse()

	fmt.Printf("NexMark %s | %d workers | %.0f ev/s | no failure\n\n", *query, *workers, *rate)
	fmt.Printf("%-9s %-5s %12s %12s\n", "hot items", "proto", "p50 latency", "avg CT")
	for _, hot := range []float64{0, 0.1, 0.2, 0.3} {
		for _, proto := range []checkmate.Protocol{checkmate.COOR(), checkmate.UNC(), checkmate.CIC()} {
			res, err := checkmate.Run(checkmate.RunConfig{
				Config: checkmate.EngineConfig{
					Protocol:           proto,
					Workers:            *workers,
					CheckpointInterval: *duration / 10,
					Seed:               11,
				},
				Query:    *query,
				Rate:     *rate,
				Duration: *duration,
				HotRatio: hot,
			})
			if err != nil {
				log.Fatalf("%s: %v", proto.Name(), err)
			}
			s := res.Summary
			fmt.Printf("%8.0f%% %-5s %12v %12v\n",
				hot*100, proto.Name(),
				s.Timeline.P50.Round(time.Millisecond),
				s.AvgCheckpointTime.Round(100*time.Microsecond))
		}
		fmt.Println()
	}
	fmt.Println("Expected shape: COOR degrades sharply with the hot-item ratio;")
	fmt.Println("UNC/CIC checkpoint independently and stay low (paper Fig. 12).")
}
