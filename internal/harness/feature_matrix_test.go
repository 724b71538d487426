package harness

import (
	"fmt"
	"testing"
	"time"

	"checkmate/internal/core"
	"checkmate/internal/protocol"
)

// TestCrossFeatureMatrix smoke-tests the cross product of protocol family,
// processing guarantee and checkpoint GC on a failure run: every
// combination must complete, recover, and respect its guarantee's
// direction (no replay under at-most-once, no dedup under at-least-once).
func TestCrossFeatureMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	protos := []core.Protocol{
		protocol.Coordinated{}, protocol.Uncoordinated{}, protocol.CIC{},
	}
	for _, p := range protos {
		for _, sem := range []core.Semantics{core.ExactlyOnce, core.AtLeastOnce, core.AtMostOnce} {
			for _, gc := range []bool{false, true} {
				p, sem, gc := p, sem, gc
				name := fmt.Sprintf("%s/%s/gc=%v", p.Name(), sem, gc)
				t.Run(name, func(t *testing.T) {
					t.Parallel()
					res, err := Run(RunConfig{
						Config: core.Config{
							Protocol: p, Workers: 2, Semantics: sem, CheckpointGC: gc,
							Seed: 17,
						},
						Query: "q12", Rate: 3000, Duration: 1200 * time.Millisecond,
						FailureAt: 500 * time.Millisecond, Window: 200 * time.Millisecond,
					})
					if err != nil {
						t.Fatal(err)
					}
					s := res.Summary
					if s.SinkCount == 0 {
						t.Fatal("no output")
					}
					if s.Failures != 1 {
						t.Fatalf("failures = %d", s.Failures)
					}
					if sem == core.AtMostOnce && s.ReplayMessages != 0 {
						t.Fatalf("at-most-once replayed %d messages", s.ReplayMessages)
					}
					if sem == core.AtLeastOnce && s.DupDropped != 0 && p.Kind().NeedsLogging() {
						t.Fatalf("at-least-once deduplicated %d messages", s.DupDropped)
					}
					if gc && p.Kind() != core.KindNone && s.TotalCheckpoints > 0 && s.GCCheckpoints == 0 {
						// GC may legitimately reclaim nothing on very short
						// runs; only flag it when plenty of checkpoints
						// accumulated.
						if s.TotalCheckpoints > 40 {
							t.Fatalf("GC reclaimed nothing out of %d checkpoints", s.TotalCheckpoints)
						}
					}
				})
			}
		}
	}
}

// TestExtensionSuiteTables exercises the extension/ablation table drivers
// end to end at a small scale, checking each renders a non-empty table.
func TestExtensionSuiteTables(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	s := NewSuite()
	s.Scale = 0.04
	s.SkewWorkers = 2
	s.Out = nil
	tables := []struct {
		name string
		f    func() (tbl interface{ String() string }, err error)
	}{
		{"semantics", func() (interface{ String() string }, error) { return s.ExtensionSemanticsTable() }},
		{"policy", func() (interface{ String() string }, error) { return s.AblationTriggerPolicyTable() }},
		{"gc", func() (interface{ String() string }, error) { return s.AblationGCTable() }},
	}
	for _, tc := range tables {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			tbl, err := tc.f()
			if err != nil {
				t.Fatal(err)
			}
			out := tbl.String()
			if len(out) < 40 {
				t.Fatalf("table suspiciously short:\n%s", out)
			}
		})
	}
}
