package core

import (
	"math/rand"
	"testing"
	"time"

	"checkmate/internal/objstore"
	"checkmate/internal/recovery"
	"checkmate/internal/statestore"
	"checkmate/internal/wire"
)

// keyedTally doubles values like the doubler but keeps a per-key running
// tally in the engine-owned keyed state backend, making it the minimal
// KeyedStateUser operator: its state churns on every event and is
// persisted exclusively through the base-plus-delta chain.
type keyedTally struct {
	scratch *wire.Encoder
}

func newKeyedTally() *keyedTally { return &keyedTally{scratch: wire.NewEncoder(nil)} }

func (*keyedTally) UsesKeyedState() {}

func (k *keyedTally) OnEvent(ctx Context, ev Event) {
	v := ev.Value.(*intVal)
	kv := ctx.KeyedState()
	var count uint64
	if b, ok := kv.Get(ev.Key); ok {
		count = wire.NewDecoder(b).Uvarint()
	}
	count += v.N
	k.scratch.Reset()
	k.scratch.Uvarint(count)
	kv.Put(ev.Key, k.scratch.Bytes())
	ctx.Emit(ev.Key, &intVal{N: v.N * 2})
}

func (k *keyedTally) Snapshot(enc *wire.Encoder)      {}
func (k *keyedTally) Restore(dec *wire.Decoder) error { return nil }

// useKeyedTally swaps the map stage of the standard test job for the
// backend-using tally operator.
func useKeyedTally(job *JobSpec) {
	job.Ops[1] = OpSpec{Name: "tally", New: func(int) Operator { return newKeyedTally() }}
}

// TestDeltaChainRestoreUnderChaos kills workers repeatedly while delta
// checkpointing is enabled and verifies that recovery — which must fetch
// and compose base-plus-delta blob chains from the object store — still
// yields exactly-once results, for every protocol family.
func TestDeltaChainRestoreUnderChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos test is slow")
	}
	kinds := []Protocol{
		nullProto{KindCoordinated, "COOR"},
		nullProto{KindUncoordinated, "UNC"},
		nullProto{KindCIC, "CIC"},
		newUAProto(),
	}
	for _, p := range kinds {
		p := p
		t.Run(p.Name(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(99))
			env, job := buildEnv(t, 3, 6000, 10000)
			useKeyedTally(job)
			cfg := env.config(p)
			cfg.DeltaCheckpoints = true
			cfg.ChainPolicy = statestore.ChainPolicy{MaxDeltas: 6, MaxDeltaFraction: 0.8}
			eng, err := NewEngine(cfg, job)
			if err != nil {
				t.Fatal(err)
			}
			if err := eng.Start(); err != nil {
				t.Fatal(err)
			}
			for f := 0; f < 3; f++ {
				time.Sleep(time.Duration(100+rng.Intn(120)) * time.Millisecond)
				eng.InjectFailure(rng.Intn(3))
			}
			waitDrained(t, eng, env, 30*time.Second)
			eng.Stop()
			sums, total := collectSums(eng, 3)
			sum := env.recorder.Summarize(p.Kind() == KindCoordinated)
			if want := uint64(6000 * 2); total != want {
				t.Fatalf("exactly-once violated: total = %d, want %d (failures=%d)", total, want, sum.Failures)
			}
			for k, v := range sums {
				if v != 2 {
					t.Fatalf("key %d sum = %d", k, v)
				}
			}
			if sum.DeltaKeyedCkpts == 0 {
				t.Fatal("delta checkpointing enabled but no delta segments were written")
			}
			if sum.MaxChainLen < 2 {
				t.Fatalf("max chain length = %d, want >= 2", sum.MaxChainLen)
			}
		})
	}
}

// TestDeltaCheckpointAccounting verifies the failure-free delta path: the
// run uploads both full bases and deltas, and the steady-state delta blob
// is smaller on average than the full base blob (churn vs total state).
func TestDeltaCheckpointAccounting(t *testing.T) {
	env, job := buildEnv(t, 2, 4000, 12000)
	useKeyedTally(job)
	cfg := env.config(nullProto{KindUncoordinated, "UNC"})
	cfg.DeltaCheckpoints = true
	eng, err := NewEngine(cfg, job)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	waitDrained(t, eng, env, 15*time.Second)
	eng.Stop()
	_, total := collectSums(eng, 2)
	if want := uint64(4000 * 2); total != want {
		t.Fatalf("total = %d, want %d", total, want)
	}
	sum := env.recorder.Summarize(false)
	if sum.FullKeyedCkpts == 0 || sum.DeltaKeyedCkpts == 0 {
		t.Fatalf("expected both full and delta segments, got %d/%d", sum.FullKeyedCkpts, sum.DeltaKeyedCkpts)
	}
	avgFull := sum.FullKeyedBytes / sum.FullKeyedCkpts
	avgDelta := sum.DeltaKeyedBytes / sum.DeltaKeyedCkpts
	if avgDelta >= avgFull {
		t.Fatalf("avg delta segment %d B >= avg full segment %d B: incremental checkpoints are not smaller", avgDelta, avgFull)
	}
}

// TestChainRestoreRejectsBadComposition verifies the seq validation the
// restore path relies on: a missing, reordered, or base-less delta chain
// must fail to compose instead of silently corrupting state.
func TestChainRestoreRejectsBadComposition(t *testing.T) {
	st := statestore.New()
	chain := statestore.NewChain(statestore.ChainPolicy{MaxDeltas: 16})
	put := func(k uint64, v string) { st.Put(k, []byte(v)) }
	cp := func() []byte {
		b, _ := chain.Checkpoint(st)
		return append([]byte(nil), b...)
	}
	put(1, "a")
	base := cp() // full, seq 1
	put(2, "b")
	d1 := cp() // delta, seq 2
	put(3, "c")
	d2 := cp() // delta, seq 3

	if err := statestore.RebuildInto(statestore.New(), [][]byte{base, d1, d2}); err != nil {
		t.Fatalf("valid chain rejected: %v", err)
	}
	if err := statestore.RebuildInto(statestore.New(), [][]byte{base, d2}); err == nil {
		t.Fatal("missing delta accepted")
	}
	if err := statestore.RebuildInto(statestore.New(), [][]byte{base, d2, d1}); err == nil {
		t.Fatal("out-of-order deltas accepted")
	}
	if err := statestore.RebuildInto(statestore.New(), [][]byte{d1}); err == nil {
		t.Fatal("delta accepted as chain base")
	}
	if err := statestore.RebuildInto(statestore.New(), nil); err == nil {
		t.Fatal("empty chain accepted")
	}
}

// TestBrokenChainMetasExcludedFromLines verifies that a checkpoint whose
// chain references a blob that never became durable (an abandoned upload)
// cannot anchor a recovery line: the coordinator must fall back to the
// newest checkpoint whose chain is fully durable.
func TestBrokenChainMetasExcludedFromLines(t *testing.T) {
	env, job := buildEnv(t, 2, 100, 10000)
	eng, err := NewEngine(env.config(nullProto{KindUncoordinated, "UNC"}), job)
	if err != nil {
		t.Fatal(err)
	}
	c := eng.coord
	// Instance 0: a durable full checkpoint at seq 1, then a delta at seq 2
	// whose chain references "dead" — a segment whose upload was abandoned
	// and therefore never reported.
	c.report(recovery.Meta{Ref: recovery.CkptRef{Instance: 0, Seq: 1}, StoreKeys: []string{"k1"}}, 0)
	c.report(recovery.Meta{Ref: recovery.CkptRef{Instance: 0, Seq: 2}, StoreKeys: []string{"k1", "dead", "k2"}}, 0)
	line, _, metas := c.lineForRecovery()
	if got := line[0].Seq; got != 1 {
		t.Fatalf("line picked seq %d for instance 0, want 1 (seq 2 chain references an undurable blob)", got)
	}
	for _, m := range metas {
		if m.Ref.Seq == 2 {
			t.Fatal("broken-chain meta survived the durability filter")
		}
	}
}

// TestDeltaCheckpointsWithFlakyStore combines incremental checkpointing
// with transient object-store failures and a worker crash: abandoned chain
// segments must force fresh full bases (not poison later deltas), and
// recovery must stay exactly-once.
func TestDeltaCheckpointsWithFlakyStore(t *testing.T) {
	env, job := buildEnv(t, 2, 3000, 12000)
	useKeyedTally(job)
	env.store = objstore.New(objstore.Config{
		PutLatency:  200 * time.Microsecond,
		FailureRate: 0.15,
		Seed:        11,
	})
	cfg := env.config(nullProto{KindUncoordinated, "UNC"})
	cfg.Store = env.store
	cfg.DeltaCheckpoints = true
	eng, err := NewEngine(cfg, job)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(120 * time.Millisecond)
	eng.InjectFailure(1)
	waitDrained(t, eng, env, 15*time.Second)
	eng.Stop()
	if _, total := collectSums(eng, env.workers); total != 3000*2 {
		t.Fatalf("exactly-once violated: total = %d, want %d", total, 3000*2)
	}
	if env.store.Stats().Failures == 0 {
		t.Fatal("failure injection never fired; test is vacuous")
	}
}

// TestDeltaCheckpointGCKeepsLiveChainSegments runs with GC enabled and
// verifies that after the run every checkpoint on the final recovery line
// can still be fully composed from the store — GC must never delete a base
// or intermediate delta that a retained checkpoint's chain references.
func TestDeltaCheckpointGCKeepsLiveChainSegments(t *testing.T) {
	env, job := buildEnv(t, 2, 4000, 12000)
	useKeyedTally(job)
	cfg := env.config(nullProto{KindUncoordinated, "UNC"})
	cfg.DeltaCheckpoints = true
	cfg.ChainPolicy = statestore.ChainPolicy{MaxDeltas: 4, MaxDeltaFraction: 0.9}
	cfg.CheckpointGC = true
	eng, err := NewEngine(cfg, job)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	waitDrained(t, eng, env, 15*time.Second)
	eng.Stop()

	line, _, lineMetas := eng.coord.lineForRecovery()
	for gid, ref := range line {
		if ref.Seq == 0 {
			continue
		}
		for i := range lineMetas {
			if lineMetas[i].Ref != ref {
				continue
			}
			for _, key := range lineMetas[i].StoreKeys {
				if _, err := env.store.Get(key); err != nil {
					t.Fatalf("GC deleted live chain segment %s of instance %d: %v", key, gid, err)
				}
			}
		}
	}
	if env.recorder.Summarize(false).GCCheckpoints == 0 {
		t.Fatal("GC reclaimed nothing")
	}
}
