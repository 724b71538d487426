package harness

import (
	"path/filepath"
	"strings"
	"testing"
	"time"

	"checkmate/internal/core"
	"checkmate/internal/protocol"
	"checkmate/internal/trace"
)

// tracedRun executes a short traced q1 drain and returns the result.
func tracedRun(t *testing.T, p core.Protocol, cfg RunConfig) RunResult {
	t.Helper()
	cfg.Protocol = p
	cfg.Trace = trace.New(0)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Config.Trace.EventCount() == 0 {
		t.Fatal("traced run produced no spans")
	}
	return res
}

// spanRounds collects the set of non-zero round IDs carried by spans with
// the given name prefix across every track.
func spanRounds(snaps []trace.TrackSnapshot, prefix string) map[uint64]bool {
	rounds := make(map[uint64]bool)
	for _, ts := range snaps {
		for _, e := range ts.Events {
			if e.Round > 0 && strings.HasPrefix(e.Name, prefix) {
				rounds[e.Round] = true
			}
		}
	}
	return rounds
}

func TestTraceLifecycleSpans(t *testing.T) {
	for _, p := range []core.Protocol{
		protocol.Coordinated{}, protocol.Uncoordinated{}, protocol.CIC{},
	} {
		p := p
		t.Run(p.Name(), func(t *testing.T) {
			res := tracedRun(t, p, RunConfig{
				Config: core.Config{
					Workers: 2, CheckpointInterval: 100 * time.Millisecond, Seed: 11,
				},
				Query: "q1", Rate: 3000, Duration: time.Second,
			})
			snaps := res.Config.Trace.Snapshot()

			// Every track must be a proper span tree: children nest inside
			// parents, siblings never overlap.
			for _, ts := range snaps {
				if err := trace.CheckNesting(ts.Events); err != nil {
					t.Errorf("track %q: %v", ts.Name, err)
				}
			}

			// The full checkpoint lifecycle must be present.
			want := []string{"ckpt.capture", "ckpt.materialize", "ckpt.upload", "ckpt.report"}
			if _, coor := p.(protocol.Coordinated); coor {
				want = append(want, "ckpt.marker", "ckpt.round")
			}
			have := make(map[string]bool)
			for _, ts := range snaps {
				for _, e := range ts.Events {
					have[e.Name] = true
				}
			}
			for _, name := range want {
				if !have[name] {
					t.Errorf("no %q span recorded (have %v)", name, have)
				}
			}

			// Round-ID consistency. Meta.Round is the coordinated round and
			// 0 for the self-paced protocols (recovery.Meta), so under COOR
			// every span round must tie back to a coordinator-resolved
			// round, while UNC/CIC spans must all carry round 0.
			captured := spanRounds(snaps, "ckpt.capture")
			reported := spanRounds(snaps, "ckpt.report")
			if _, coor := p.(protocol.Coordinated); coor {
				if len(captured) == 0 || len(reported) == 0 {
					t.Fatalf("captured %d / reported %d rounds", len(captured), len(reported))
				}
				for r := range reported {
					if !captured[r] {
						t.Errorf("round %d reported but never captured", r)
					}
				}
				resolved := spanRounds(snaps, "ckpt.round")
				if len(resolved) == 0 {
					t.Fatal("COOR run resolved no rounds")
				}
				for r := range resolved {
					if !captured[r] || !reported[r] {
						t.Errorf("resolved round %d missing capture/report spans", r)
					}
				}
			} else {
				if len(captured) != 0 || len(reported) != 0 {
					t.Errorf("self-paced run carries coordinated round IDs: captured %v reported %v", captured, reported)
				}
			}
		})
	}
}

func TestTraceDisabledRunIsSilent(t *testing.T) {
	res := quickRun(t, RunConfig{
		Config: core.Config{
			Protocol: protocol.Coordinated{}, Workers: 2,
			CheckpointInterval: 100 * time.Millisecond, Seed: 12,
		},
		Query: "q1", Rate: 3000, Duration: 500 * time.Millisecond,
	})
	if len(res.Summary.RoundPhases) != 0 {
		t.Fatalf("untraced run has phase stats: %v", res.Summary.RoundPhases)
	}
	// The per-op zero-alloc guarantee of the disabled path is pinned by
	// TestDisabledIsFreeAndSilent in internal/trace (testing.AllocsPerRun).
}

func TestTraceRecoveryPhases(t *testing.T) {
	res := tracedRun(t, protocol.Coordinated{}, RunConfig{
		Config: core.Config{
			Workers: 2, CheckpointInterval: 100 * time.Millisecond, Seed: 13,
		},
		Query: "q3", Rate: 4000, Duration: 1500 * time.Millisecond,
		FailureAt: 500 * time.Millisecond,
	})
	if res.Summary.Failures != 1 {
		t.Fatalf("failures = %d", res.Summary.Failures)
	}
	var rec *trace.TrackSnapshot
	for i, ts := range res.Config.Trace.Snapshot() {
		if ts.Name == "recovery" {
			rec = &res.Config.Trace.Snapshot()[i]
			break
		}
	}
	if rec == nil {
		t.Fatal("no recovery track")
	}
	// The five RTO phases, back to back, in order.
	want := []string{"rto.detect", "rto.rollback", "rto.fetch", "rto.replay", "rto.catchup"}
	var got []string
	for _, e := range rec.Events {
		got = append(got, e.Name)
	}
	for i, name := range want {
		if i >= len(got) || got[i] != name {
			t.Fatalf("recovery phases = %v, want prefix %v", got, want)
		}
	}
	if err := trace.CheckNesting(rec.Events); err != nil {
		t.Fatalf("recovery track: %v", err)
	}
}

func TestTraceChromeExportFromRun(t *testing.T) {
	res := tracedRun(t, protocol.Uncoordinated{}, RunConfig{
		Config: core.Config{
			Workers: 2, CheckpointInterval: 100 * time.Millisecond, Seed: 14,
		},
		Query: "q1", Rate: 3000, Duration: 800 * time.Millisecond,
	})
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := res.Config.Trace.WriteChromeFile(path); err != nil {
		t.Fatal(err)
	}
	spans, err := trace.ValidateChromeFile(path)
	if err != nil {
		t.Fatalf("exported trace invalid: %v", err)
	}
	if spans == 0 {
		t.Fatal("exported trace holds no spans")
	}
	// Phase stats feed the run summary.
	if len(res.Summary.RoundPhases) == 0 {
		t.Fatal("traced run yielded no phase breakdown")
	}
	for _, ph := range res.Summary.RoundPhases {
		if ph.Count <= 0 || ph.Total < 0 || ph.Mean() > ph.Max {
			t.Fatalf("implausible phase stat %+v", ph)
		}
	}
}

func TestTraceHTTPEndpoint(t *testing.T) {
	res := tracedRun(t, protocol.Coordinated{}, RunConfig{
		Config: core.Config{
			Workers: 2, CheckpointInterval: 100 * time.Millisecond, Seed: 15,
		},
		Query: "q1", Rate: 3000, Duration: 500 * time.Millisecond, HTTPAddr: "127.0.0.1:0",
	})
	// The server is closed when Run returns; the bound address proves the
	// listener came up (":0" resolved to a real port).
	if res.HTTPAddr == "" || !strings.Contains(res.HTTPAddr, ":") {
		t.Fatalf("HTTPAddr = %q", res.HTTPAddr)
	}
}
