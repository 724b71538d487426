// Command adaptive demonstrates the checkpoint trigger policies of the
// uncoordinated protocol — the configurability the paper (§III-B) names as
// an unexplored strength of the uncoordinated family. It runs the NexMark
// Q12 windowed count under four policies with the same mid-run failure and
// compares checkpoints taken vs. messages replayed on recovery: tighter
// triggers take more checkpoints but bound the replay work.
package main

import (
	"fmt"
	"log"
	"time"

	"checkmate"
)

func main() {
	policies := []struct {
		name string
		p    checkmate.Protocol
	}{
		{"interval (paper default)", checkmate.UNC()},
		{"fixed interval", checkmate.UNCWithPolicy(checkmate.IntervalPolicy{})},
		{"event budget 500", checkmate.UNCWithPolicy(checkmate.EventCountPolicy{Events: 500})},
		{"idle 25ms", checkmate.UNCWithPolicy(checkmate.IdlePolicy{IdleFor: 25 * time.Millisecond})},
	}

	fmt.Println("NexMark Q12, 2 workers, failure mid-run, checkpoint interval 500ms")
	fmt.Printf("%-28s %12s %10s %12s %10s\n", "policy", "checkpoints", "invalid", "replayed", "restart")
	for _, pc := range policies {
		res, err := checkmate.Run(checkmate.RunConfig{
			Config: checkmate.EngineConfig{
				Protocol:           pc.p,
				Workers:            2,
				CheckpointInterval: 500 * time.Millisecond,
				Seed:               7,
			},
			Query:     "q12",
			Rate:      6000,
			Duration:  2 * time.Second,
			FailureAt: 900 * time.Millisecond,
			Window:    250 * time.Millisecond,
		})
		if err != nil {
			log.Fatal(err)
		}
		s := res.Summary
		fmt.Printf("%-28s %12d %10d %12d %10v\n",
			pc.name, s.TotalCheckpoints, s.InvalidCheckpoints,
			s.ReplayedOnRecovery, s.RestartTime.Round(time.Millisecond))
	}
	fmt.Println("\ntighter triggers -> more checkpoints, less replay on recovery")
}
