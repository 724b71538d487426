package core

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"checkmate/internal/objstore"
	"checkmate/internal/statestore"
	"checkmate/internal/wire"
)

// kvDump renders a keyed store as a deterministic sorted key/value dump
// (no snapshot sequence number, which depends on checkpoint timing), so
// restored state can be compared byte-for-byte across runs and modes.
func kvDump(s *statestore.Store) []byte {
	enc := wire.NewEncoder(nil)
	s.Range(func(k uint64, v []byte) bool {
		enc.Uvarint(k)
		enc.Bytes2(v)
		return true
	})
	return enc.Bytes()
}

// asyncEquivalenceRun drives the keyed-tally workload with a mid-run
// worker failure under one protocol, returning the final keyed backend
// dump of every tally instance plus the run totals.
func asyncEquivalenceRun(t *testing.T, p Protocol) (dumps [][]byte, total uint64) {
	t.Helper()
	const workers, records = 2, 3000
	env, job := buildEnv(t, workers, records, 12000)
	useKeyedTally(job)
	cfg := env.config(p)
	cfg.DeltaCheckpoints = true
	cfg.ChainPolicy = statestore.ChainPolicy{MaxDeltas: 4, MaxDeltaFraction: 0.8}
	eng, err := NewEngine(cfg, job)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(120 * time.Millisecond)
	eng.InjectFailure(1)
	waitDrained(t, eng, env, 20*time.Second)
	eng.Stop()
	_, total = collectSums(eng, workers)

	// Per-instance checkpoint metadata must arrive in sequence order: the
	// per-worker FIFO uploader materializes and reports one instance's
	// blobs strictly in chain order.
	lastSeq := make(map[int]uint64)
	for _, m := range eng.CheckpointMetas() {
		if prev, ok := lastSeq[m.Ref.Instance]; ok && m.Ref.Seq <= prev {
			t.Fatalf("instance %d reported checkpoint seq %d after seq %d", m.Ref.Instance, m.Ref.Seq, prev)
		}
		lastSeq[m.Ref.Instance] = m.Ref.Seq
	}

	eng.mu.Lock()
	w := eng.world
	eng.mu.Unlock()
	for idx := 0; idx < workers; idx++ {
		it := w.instances[eng.gidOf(1, idx)]
		dumps = append(dumps, kvDump(it.kv))
	}
	return dumps, total
}

// TestAsyncSnapshotEquivalence verifies the acceptance criterion of the
// asynchronous-snapshot pipeline: across the coordinated (aligned and
// unaligned) and logging (UNC, CIC) protocol families, a run that fails
// mid-way and recovers from captured-and-materialized chain blobs ends
// with keyed state byte-identical to the input-derived expectation (every
// key tallied exactly once).
func TestAsyncSnapshotEquivalence(t *testing.T) {
	const workers, records = 2, 3000
	protocols := []Protocol{
		nullProto{KindCoordinated, "COOR"},
		newUAProto(),
		nullProto{KindUncoordinated, "UNC"},
		nullProto{KindCIC, "CIC"},
	}
	// The input-derived expectation: every key 0..records-1 tallied once,
	// partitioned by the Forward edge (instance idx == source partition).
	expect := make([][]byte, workers)
	perPart := records / workers
	for idx := 0; idx < workers; idx++ {
		ref := statestore.New()
		one := wire.NewEncoder(nil)
		one.Uvarint(1)
		for i := 0; i < perPart; i++ {
			ref.Put(uint64(idx*perPart+i), one.Bytes())
		}
		expect[idx] = kvDump(ref)
	}
	for _, p := range protocols {
		p := p
		t.Run(p.Name(), func(t *testing.T) {
			dumps, total := asyncEquivalenceRun(t, p)
			if want := uint64(records * 2); total != want {
				t.Fatalf("run total = %d, want %d", total, want)
			}
			for idx := 0; idx < workers; idx++ {
				if !bytes.Equal(dumps[idx], expect[idx]) {
					t.Fatalf("keyed state of instance %d diverged from the input-derived expectation", idx)
				}
			}
		})
	}
}

// TestAbandonedMaterializeNeverAnchorsRecovery drives the
// crash-during-materialize abandonment path: with an object store that
// rejects every Put, all captured checkpoints are abandoned by the
// uploader — none may report to the coordinator, so the recovery line
// anchors on nothing (full source rewind) and processing stays
// exactly-once. The chainBroken flag must also force the keyed chain to
// restart from a fresh full base instead of stacking deltas on segments
// that never became durable.
func TestAbandonedMaterializeNeverAnchorsRecovery(t *testing.T) {
	env, job := buildEnv(t, 2, 2000, 12000)
	useKeyedTally(job)
	env.store = objstore.New(objstore.Config{
		PutLatency:  100 * time.Microsecond,
		FailureRate: 1.0, // every upload attempt fails; retries exhaust
		Seed:        5,
	})
	cfg := env.config(nullProto{KindUncoordinated, "UNC"})
	cfg.Store = env.store
	cfg.DeltaCheckpoints = true
	cfg.ChainPolicy = statestore.ChainPolicy{MaxDeltas: 4, MaxDeltaFraction: 0.9}
	eng, err := NewEngine(cfg, job)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(150 * time.Millisecond)
	eng.InjectFailure(0)
	waitDrained(t, eng, env, 20*time.Second)
	eng.Stop()

	if metas := eng.CheckpointMetas(); len(metas) != 0 {
		t.Fatalf("%d abandoned (never durable) checkpoints reported to the coordinator; the first is %+v", len(metas), metas[0])
	}
	line, _, _ := eng.coord.lineForRecovery()
	for gid, ref := range line {
		if ref.Seq != 0 {
			t.Fatalf("recovery line anchors instance %d on unmaterialized checkpoint seq %d", gid, ref.Seq)
		}
	}
	sum := env.recorder.Summarize(false)
	if sum.LocalCkpts == 0 {
		t.Fatal("no checkpoints were even captured; the abandonment path is vacuous")
	}
	if _, total := collectSums(eng, env.workers); total != 2000*2 {
		t.Fatalf("exactly-once violated under total upload abandonment: total = %d, want %d", total, 2000*2)
	}
}

// TestStoreKeyAllocs pins the allocation profile of the checkpoint
// store-key builder on the synchronous snapshot path: exactly one
// allocation (the key string itself), replacing the old fmt.Sprintf.
func TestStoreKeyAllocs(t *testing.T) {
	it := &instance{ckptSeq: 41}
	it.keyBuf = append(make([]byte, 0, 64), "ckpt/test/map/1/"...)
	if got, want := it.storeKey(), fmt.Sprintf("ckpt/%s/%s/%d/%d", "test", "map", 1, 41); got != want {
		t.Fatalf("storeKey = %q, want %q", got, want)
	}
	allocs := testing.AllocsPerRun(200, func() {
		_ = it.storeKey()
	})
	if allocs > 1 {
		t.Fatalf("storeKey allocates %.1f times per call, want <= 1", allocs)
	}
	// A long sequence number must not corrupt the prefix for later calls.
	it.ckptSeq = 18446744073709551615
	long := it.storeKey()
	it.ckptSeq = 7
	if got := it.storeKey(); got != "ckpt/test/map/1/7" {
		t.Fatalf("storeKey after growth = %q (previous long key %q)", got, long)
	}
}
