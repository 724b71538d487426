package core

import (
	"reflect"
	"testing"
	"time"

	"checkmate/internal/cluster"
	"checkmate/internal/metrics"
)

// runPlaced executes the counting pipeline on a 3-worker cluster under the
// given placement policy and returns the final per-key sums, the total and
// the completed checkpoint count.
func runPlaced(t *testing.T, kind Kind, policy cluster.Policy) (map[uint64]uint64, uint64, uint64) {
	t.Helper()
	env, job := buildEnv(t, 2, 3000, 12000)
	cfg := env.config(nullProto{kind, kind.String()})
	cfg.Cluster = cluster.Config{Workers: 3, Policy: policy}
	eng, err := NewEngine(cfg, job)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	waitDrained(t, eng, env, 15*time.Second)
	eng.Stop()
	sums, total := collectSums(eng, env.workers)
	sum := env.recorder.Summarize(kind == KindCoordinated)
	return sums, total, uint64(sum.TotalCheckpoints)
}

// TestPlacementEquivalence proves placement is a deployment concern, not a
// semantic one: the same job produces identical operator outputs under
// round-robin, spread and co-located placements, with checkpoint rounds
// still completing, for each protocol family. Mirrors the batched-vs-
// unbatched equivalence suite.
func TestPlacementEquivalence(t *testing.T) {
	for _, kind := range []Kind{KindCoordinated, KindUncoordinated, KindCIC} {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			base, baseTotal, _ := runPlaced(t, kind, cluster.PolicySpread)
			for _, policy := range []cluster.Policy{cluster.PolicyRoundRobin, cluster.PolicyColocate} {
				sums, total, ckpts := runPlaced(t, kind, policy)
				if total != baseTotal {
					t.Fatalf("%s: total %d, spread total %d", policy, total, baseTotal)
				}
				if !reflect.DeepEqual(base, sums) {
					t.Fatalf("%s: per-key sums differ from spread placement", policy)
				}
				if ckpts == 0 {
					t.Fatalf("%s: no checkpoints completed", policy)
				}
			}
		})
	}
}

// maxCompletedRound counts reports per coordinated round and returns the
// newest round every instance reported durable.
func maxCompletedRound(eng *Engine) uint64 {
	counts := make(map[uint64]int)
	for _, m := range eng.CheckpointMetas() {
		if m.Round > 0 {
			counts[m.Round]++
		}
	}
	var max uint64
	for round, n := range counts {
		if n == eng.TotalInstances() && round > max {
			max = round
		}
	}
	return max
}

// runCacheRecovery drives the deterministic warm-vs-cold scenario: drain a
// fixed volume completely, let two further coordinated rounds complete over
// the quiescent pipeline, then kill worker 1. The recovery line is then a
// round whose snapshots captured the final (all-records-processed) state,
// so the restored byte volume is identical across runs — isolating the
// cache as the only difference between them.
func runCacheRecovery(t *testing.T, warm bool) (metrics.RTO, map[uint64]uint64, uint64, uint64) {
	t.Helper()
	env, job := buildEnv(t, 2, 2000, 1e7)
	cfg := env.config(nullProto{KindCoordinated, "COOR"})
	cfg.Cluster = cluster.Config{LocalCache: warm}
	eng, err := NewEngine(cfg, job)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	// Phase 1: fully drain the input (all records are due immediately).
	waitDrained(t, eng, env, 15*time.Second)
	// Phase 2: wait for two more completed rounds. The first may have been
	// in flight while records still moved; the second necessarily started
	// — and snapshotted every instance — after the pipeline went quiet.
	quiesced := maxCompletedRound(eng)
	deadline := time.Now().Add(10 * time.Second)
	for maxCompletedRound(eng) < quiesced+2 {
		if time.Now().After(deadline) {
			t.Fatalf("no quiescent round completed (at round %d since %d)", maxCompletedRound(eng), quiesced)
		}
		time.Sleep(2 * time.Millisecond)
	}
	// Phase 3: kill worker 1 and let recovery run to caught-up.
	eng.InjectFailure(1)
	deadline = time.Now().Add(15 * time.Second)
	for len(env.recorder.Summarize(true).RTOs) == 0 || env.recorder.Summarize(true).RTOs[0].Total == 0 {
		if time.Now().After(deadline) {
			t.Fatal("recovery did not complete")
		}
		time.Sleep(5 * time.Millisecond)
	}
	eng.Stop()
	sums, total := collectSums(eng, env.workers)
	rtos := env.recorder.Summarize(true).RTOs
	if len(rtos) != 1 {
		t.Fatalf("expected 1 RTO, got %d", len(rtos))
	}
	return rtos[0], sums, total, env.store.Stats().Gets
}

// TestWarmVsColdCacheRecovery verifies the worker-local state cache: the
// same failure restores the same state bytes, but warm recovery serves the
// surviving worker's share from local memory (fewer object-store reads),
// while the failed worker's own blobs always miss — its cache died with
// it.
func TestWarmVsColdCacheRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	coldRTO, coldSums, coldTotal, coldGets := runCacheRecovery(t, false)
	warmRTO, warmSums, warmTotal, warmGets := runCacheRecovery(t, true)

	// Identical restored state: same outputs, same restored blob volume.
	if coldTotal != warmTotal || !reflect.DeepEqual(coldSums, warmSums) {
		t.Fatalf("outputs differ: cold total %d, warm total %d", coldTotal, warmTotal)
	}
	if want := uint64(2000 * 2); coldTotal != want {
		t.Fatalf("exactly-once violated: total %d, want %d", coldTotal, want)
	}
	if coldRTO.RestoredBytes == 0 || coldRTO.RestoredBytes != warmRTO.RestoredBytes {
		t.Fatalf("restored bytes differ: cold %d, warm %d", coldRTO.RestoredBytes, warmRTO.RestoredBytes)
	}

	// Cold recovery fetches everything remotely; warm recovery strictly
	// less, with the difference served from worker-local caches.
	if coldRTO.RemoteBytes != coldRTO.RestoredBytes || coldRTO.LocalBytes != 0 {
		t.Fatalf("cold recovery not fully remote: %+v", coldRTO)
	}
	if warmRTO.RemoteBytes >= coldRTO.RemoteBytes {
		t.Fatalf("warm recovery fetched %d remote bytes, cold fetched %d", warmRTO.RemoteBytes, coldRTO.RemoteBytes)
	}
	if warmRTO.LocalBytes == 0 || warmRTO.LocalBytes+warmRTO.RemoteBytes != warmRTO.RestoredBytes {
		t.Fatalf("warm byte accounting broken: %+v", warmRTO)
	}
	if warmGets >= coldGets {
		t.Fatalf("warm recovery did not reduce object-store reads: %d vs %d", warmGets, coldGets)
	}

	// Cache invalidation: worker 1's own blobs (one per operator under
	// spread placement) must miss — the hosting worker's memory is gone.
	if warmRTO.CacheMisses != 3 || warmRTO.CacheHits != 3 {
		t.Fatalf("cache hits/misses = %d/%d, want 3/3", warmRTO.CacheHits, warmRTO.CacheMisses)
	}
}

// TestStragglerIsWorkerGranular pins the fixed StragglerWorker semantics:
// the knob names a cluster worker, and exactly the non-source instances
// the placement hosts there straggle. Under the old index-modulo rule a
// sink of parallelism 2 would have straggled instance 2 mod 2 = 0 — a
// different instance on a different (healthy) worker.
func TestStragglerIsWorkerGranular(t *testing.T) {
	env, _ := buildEnv(t, 3, 0, 1)
	job := &JobSpec{
		Name: "straggler",
		Ops: []OpSpec{
			{Name: "src", Source: &SourceSpec{Topic: "nums"}},
			{Name: "map", New: func(int) Operator { return doubler{} }},
			{Name: "sink", Sink: true, Parallelism: 2, New: func(int) Operator { return newKeyedSum() }},
		},
		Edges: []EdgeSpec{
			{From: 0, To: 1, Part: Forward},
			{From: 1, To: 2, Part: Hash},
		},
	}
	cfg := env.config(nullProto{KindCoordinated, "COOR"})
	cfg.StragglerDelay = time.Millisecond
	cfg.StragglerWorker = 2
	eng, err := NewEngine(cfg, job)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	defer eng.Stop()
	var straggling []int
	for gid, it := range eng.world.instances {
		if it.stragglerNS > 0 {
			straggling = append(straggling, gid)
		}
		if it.worker != eng.WorkerOf(gid) {
			t.Fatalf("instance %d carries worker %d, topology says %d", gid, it.worker, eng.WorkerOf(gid))
		}
	}
	// Spread placement over 3 workers: worker 2 hosts src[2] (sources
	// never straggle) and map[2]; the sink (parallelism 2) has no
	// instance there.
	if len(straggling) != 1 || straggling[0] != eng.Topology().InstancesOn(2)[1] {
		t.Fatalf("straggling instances = %v, want exactly map[2]", straggling)
	}
}

// TestClusterFailureShapes exercises failure shapes the index-modulo model
// could not express: a worker hosting instances of different indexes
// (round-robin on a cluster smaller than the instance count) and a
// correlated two-worker rack loss. Exactly-once totals must survive both.
func TestClusterFailureShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	cases := []struct {
		name    string
		kind    Kind
		policy  cluster.Policy
		workers []int
	}{
		{"round-robin-mixed-indexes", KindUncoordinated, cluster.PolicyRoundRobin, []int{2}},
		{"rack-loss", KindCoordinated, cluster.PolicySpread, []int{0, 1}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			env, job := buildEnv(t, 2, 3000, 12000)
			cfg := env.config(nullProto{tc.kind, tc.kind.String()})
			cfg.Cluster = cluster.Config{Workers: 3, Policy: tc.policy, LocalCache: true}
			eng, err := NewEngine(cfg, job)
			if err != nil {
				t.Fatal(err)
			}
			if err := eng.Start(); err != nil {
				t.Fatal(err)
			}
			time.Sleep(120 * time.Millisecond)
			eng.InjectWorkerFailure(tc.workers...)
			waitDrained(t, eng, env, 15*time.Second)
			eng.Stop()
			_, total := collectSums(eng, env.workers)
			if want := uint64(3000 * 2); total != want {
				t.Fatalf("exactly-once violated: total = %d, want %d", total, want)
			}
			sum := env.recorder.Summarize(tc.kind == KindCoordinated)
			if len(sum.RTOs) != 1 {
				t.Fatalf("expected 1 RTO, got %d", len(sum.RTOs))
			}
			if got := sum.RTOs[0].FailedWorkers; !reflect.DeepEqual(got, tc.workers) {
				t.Fatalf("failed workers = %v, want %v", got, tc.workers)
			}
		})
	}
}

// TestFailureOfEmptyWorkerIsNoOp: a crash of a worker hosting no instances
// must not roll anything back.
func TestFailureOfEmptyWorkerIsNoOp(t *testing.T) {
	env, job := buildEnv(t, 2, 500, 1e7)
	cfg := env.config(nullProto{KindCoordinated, "COOR"})
	// Spread placement at parallelism 2 over a 3-worker cluster puts
	// instance idx on worker idx, so worker 2 hosts nothing.
	cfg.Cluster = cluster.Config{Workers: 3}
	eng, err := NewEngine(cfg, job)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	eng.InjectFailure(2)
	waitDrained(t, eng, env, 15*time.Second)
	eng.Stop()
	sum := env.recorder.Summarize(true)
	if sum.Failures != 0 || len(sum.RTOs) != 0 {
		t.Fatalf("empty-worker failure triggered recovery: %d failures, %d RTOs", sum.Failures, len(sum.RTOs))
	}
	if _, total := collectSums(eng, env.workers); total != 500*2 {
		t.Fatalf("total = %d", total)
	}
}
