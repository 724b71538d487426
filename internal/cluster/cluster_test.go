package cluster

import (
	"strings"
	"testing"
	"time"
)

var testOps = []OpInfo{
	{Name: "src", Parallelism: 3},
	{Name: "map", Parallelism: 3},
	{Name: "sink", Parallelism: 2},
}

func mustTopo(t *testing.T, cfg Config) *Topology {
	t.Helper()
	topo, err := New(cfg, 3, testOps)
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

func TestSpreadPlacement(t *testing.T) {
	topo := mustTopo(t, Config{})
	if topo.Workers() != 3 || topo.Policy() != PolicySpread {
		t.Fatalf("defaults: %d workers, policy %s", topo.Workers(), topo.Policy())
	}
	// Instance idx of every operator lands on worker idx%3.
	wantHost := []int{0, 1, 2 /* src */, 0, 1, 2 /* map */, 0, 1 /* sink */}
	for gid, want := range wantHost {
		if got := topo.WorkerOf(gid); got != want {
			t.Errorf("WorkerOf(%d) = %d, want %d", gid, got, want)
		}
	}
	// Worker 2 hosts src[2] and map[2] but no sink instance: a sink of
	// parallelism 2 has no index hashing to worker 2 under spread.
	if got := topo.InstancesOn(2); len(got) != 2 {
		t.Fatalf("InstancesOn(2) = %v", got)
	}
}

func TestRoundRobinPlacement(t *testing.T) {
	topo := mustTopo(t, Config{Policy: PolicyRoundRobin})
	for gid := 0; gid < topo.Instances(); gid++ {
		if got := topo.WorkerOf(gid); got != gid%3 {
			t.Errorf("WorkerOf(%d) = %d, want %d", gid, got, gid%3)
		}
	}
}

func TestColocatePlacement(t *testing.T) {
	topo := mustTopo(t, Config{Policy: PolicyColocate})
	// All instances of one operator share a worker.
	gid := 0
	for _, op := range testOps {
		w := topo.WorkerOf(gid)
		for i := 0; i < op.Parallelism; i++ {
			if got := topo.WorkerOf(gid + i); got != w {
				t.Errorf("%s[%d] on worker %d, %s[0] on %d", op.Name, i, got, op.Name, w)
			}
		}
		gid += op.Parallelism
	}
}

func TestParsePolicy(t *testing.T) {
	for _, name := range []string{"ring", "explicit"} {
		if _, err := ParsePolicy(name); err == nil {
			t.Errorf("unknown policy %q accepted", name)
		}
	}
	if p, err := ParsePolicy(""); err != nil || p != PolicySpread {
		t.Errorf("empty policy: %v, %v", p, err)
	}
}

func TestTopologyTable(t *testing.T) {
	table := mustTopo(t, Config{}).Table()
	for _, want := range []string{"worker  0", "src[0]", "sink[1]", "spread"} {
		if !strings.Contains(table, want) {
			t.Errorf("table missing %q:\n%s", want, table)
		}
	}
}

func TestCacheHitMissInvalidate(t *testing.T) {
	c := NewCache(2)
	if _, ok := c.Get(0, "a"); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put(0, "a", []byte("0123456789"))
	c.Put(1, "b", []byte("xy"))
	if blob, ok := c.Get(0, "a"); !ok || len(blob) != 10 {
		t.Fatalf("Get(0,a) = %v, %v", blob, ok)
	}
	// Worker 1 does not see worker 0's blobs: the cache is local memory.
	if _, ok := c.Get(1, "a"); ok {
		t.Fatal("cross-worker hit")
	}
	if n := c.Invalidate(0); n != 1 {
		t.Fatalf("Invalidate dropped %d entries, want 1", n)
	}
	if _, ok := c.Get(0, "a"); ok {
		t.Fatal("hit after worker-loss invalidation")
	}
	if c.EntriesOn(1) != 1 {
		t.Fatal("invalidation leaked into a surviving worker")
	}
	c.Drop("b")
	if c.EntriesOn(1) != 0 {
		t.Fatal("Drop left the GC'd blob cached")
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 3 || st.LocalBytes != 10 || st.Invalidations != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestFailurePlanEvents(t *testing.T) {
	evs, err := FailurePlan{Domain: DomainWorker, Worker: 5}.Events(4)
	if err != nil || len(evs) != 1 || len(evs[0].Workers) != 1 || evs[0].Workers[0] != 1 {
		t.Fatalf("worker plan: %v, %v", evs, err)
	}
	evs, err = FailurePlan{Domain: DomainRack, Worker: 3, Size: 2}.Events(4)
	if err != nil || len(evs) != 1 || len(evs[0].Workers) != 2 {
		t.Fatalf("rack plan: %v, %v", evs, err)
	}
	if evs[0].Workers[0] != 3 || evs[0].Workers[1] != 0 {
		t.Fatalf("rack did not wrap: %v", evs[0].Workers)
	}
	evs, err = FailurePlan{Domain: DomainRolling, Worker: 0, Size: 3, Interval: 50 * time.Millisecond}.Events(4)
	if err != nil || len(evs) != 3 {
		t.Fatalf("rolling plan: %v, %v", evs, err)
	}
	if evs[0].AfterPrev != 0 || evs[1].AfterPrev != 50*time.Millisecond {
		t.Fatalf("rolling intervals: %v", evs)
	}
	// A rack spanning the whole (duplicate-collapsing) ring.
	evs, _ = FailurePlan{Domain: DomainRack, Size: 10}.Events(3)
	if len(evs[0].Workers) != 3 {
		t.Fatalf("oversized rack: %v", evs[0].Workers)
	}
	if _, err := (FailurePlan{Domain: "blast"}).Events(3); err == nil {
		t.Error("unknown domain accepted")
	}
}

func TestFailurePlanFlapping(t *testing.T) {
	evs, err := FailurePlan{Domain: DomainFlapping, Worker: 1, Count: 4, Interval: 20 * time.Millisecond}.Events(4)
	if err != nil || len(evs) != 4 {
		t.Fatalf("flapping plan: %v, %v", evs, err)
	}
	for i, ev := range evs {
		if len(ev.Workers) != 1 || ev.Workers[0] != 1 {
			t.Fatalf("flap %d should hit worker 1 again: %v", i, ev.Workers)
		}
		wantGap := 20 * time.Millisecond
		if i == 0 {
			wantGap = 0
		}
		if ev.AfterPrev != wantGap {
			t.Fatalf("flap %d gap = %v, want %v", i, ev.AfterPrev, wantGap)
		}
	}
	// Defaults: 3 flaps, 500ms apart, worker wrapped into the ring.
	evs, err = FailurePlan{Domain: DomainFlapping, Worker: 5}.Events(4)
	if err != nil || len(evs) != 3 {
		t.Fatalf("default flapping plan: %v, %v", evs, err)
	}
	if evs[0].Workers[0] != 1 || evs[1].AfterPrev != 500*time.Millisecond {
		t.Fatalf("default flapping: %v", evs)
	}
	if _, err := ParseDomain("flapping"); err != nil {
		t.Fatalf("ParseDomain(flapping): %v", err)
	}
}
