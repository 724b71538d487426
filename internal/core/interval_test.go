package core

import (
	"testing"
	"time"
)

// Per-operator checkpoint intervals (§III-B): an operator with a much
// shorter interval checkpoints proportionally more often, independently of
// the rest of the pipeline, and exactly-once still holds through a failure.
func TestPerOperatorCheckpointInterval(t *testing.T) {
	env, _ := buildEnv(t, 2, 3000, 12000)
	job := &JobSpec{
		Name: "heterogeneous",
		Ops: []OpSpec{
			{Name: "src", Source: &SourceSpec{Topic: "nums"}},
			// The map checkpoints 8x more often than the engine interval.
			{Name: "map", CheckpointInterval: 60 * time.Millisecond / 8,
				New: func(int) Operator { return doubler{} }},
			{Name: "sink", Sink: true, New: func(idx int) Operator {
				s := newKeyedSum()
				env.sinks[idx] = s
				return s
			}},
		},
		Edges: []EdgeSpec{
			{From: 0, To: 1, Part: Forward},
			{From: 1, To: 2, Part: Hash},
		},
	}
	eng, err := NewEngine(env.config(nullProto{KindUncoordinated, "UNC"}), job)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(120 * time.Millisecond)
	// The map's faster interval leaves checkpoints orphaned by the sink's,
	// so the FindLine oracle check compares a line with invalid entries.
	if res := checkFindLineOracle(t, eng); res.Invalid == 0 {
		t.Fatalf("no invalid checkpoint among %d before the failure", res.Total)
	}
	eng.InjectFailure(1)
	waitDrained(t, eng, env, 15*time.Second)
	eng.Stop()
	if _, total := collectSums(eng, env.workers); total != 3000*2 {
		t.Fatalf("total = %d, want %d", total, 3000*2)
	}
	// Count per-operator checkpoints via their store keys: the 8x-faster
	// map operator must have taken several times more checkpoints than the
	// sink, which runs on the engine-wide interval.
	mapCkpts := len(env.store.List("ckpt/heterogeneous/map/"))
	sinkCkpts := len(env.store.List("ckpt/heterogeneous/sink/"))
	if sinkCkpts == 0 {
		t.Fatal("sink took no checkpoints")
	}
	if mapCkpts < 3*sinkCkpts {
		t.Fatalf("per-operator interval ignored: map %d vs sink %d checkpoints", mapCkpts, sinkCkpts)
	}
}

// The coordinated protocol ignores per-operator intervals: rounds are
// global, driven by the coordinator.
func TestPerOperatorIntervalIgnoredByCoordinated(t *testing.T) {
	env, _ := buildEnv(t, 2, 2000, 12000)
	job := &JobSpec{
		Name: "heterogeneous-coor",
		Ops: []OpSpec{
			{Name: "src", Source: &SourceSpec{Topic: "nums"}},
			{Name: "map", CheckpointInterval: time.Millisecond,
				New: func(int) Operator { return doubler{} }},
			{Name: "sink", Sink: true, New: func(idx int) Operator {
				s := newKeyedSum()
				env.sinks[idx] = s
				return s
			}},
		},
		Edges: []EdgeSpec{
			{From: 0, To: 1, Part: Forward},
			{From: 1, To: 2, Part: Hash},
		},
	}
	eng, err := NewEngine(env.config(nullProto{KindCoordinated, "COOR"}), job)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	waitDrained(t, eng, env, 15*time.Second)
	eng.Stop()
	sum := env.recorder.Summarize(true)
	// All checkpoints come in complete rounds of 6 instances.
	if sum.TotalCheckpoints%6 != 0 {
		t.Fatalf("coordinated rounds fragmented: %d checkpoints", sum.TotalCheckpoints)
	}
}
