// Package cluster models the deployment substrate the paper's testbed runs
// on: a cluster of N workers (machines) hosting the parallel operator
// instances of a job. It provides placement policies mapping every instance
// to a hosting worker, failure domains expressing which workers a fault
// takes down together (single crash, correlated rack loss, rolling
// restarts), and a worker-local state cache that lets instances recovering
// on a surviving worker restore checkpoint state without a round trip to
// the object store.
//
// The engine's failure injection, straggler simulation and recovery
// state-fetch are all expressed against this topology, so the same job can
// be measured under different co-location and blast-radius assumptions — a
// prerequisite for the paper's recovery-time comparisons, where *where*
// state lives relative to *what* failed dominates the restart cost.
package cluster

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strings"
)

// Policy names a placement strategy mapping operator instances to workers.
type Policy string

// Placement policies.
const (
	// PolicySpread places instance idx of every operator on worker
	// idx mod N: each operator's instances are spread across the cluster,
	// and equal instance indexes of different operators are co-located.
	// With N equal to the job parallelism this reproduces the engine's
	// legacy one-worker-per-parallel-instance model, so it is the default.
	PolicySpread Policy = "spread"
	// PolicyRoundRobin deals instances onto workers in global instance
	// order (gid mod N): consecutive instances — including instances of
	// the same operator — land on consecutive workers, so a single worker
	// loss touches a slice of every operator but rarely the same indexes.
	PolicyRoundRobin Policy = "round-robin"
	// PolicyColocate hashes each operator name to one worker that hosts
	// all of its instances: losing that worker wipes the whole operator —
	// the largest per-operator failure domain, and the cheapest network
	// layout for operator-internal exchange.
	PolicyColocate Policy = "colocate"
)

// ParsePolicy resolves a policy by name ("" selects PolicySpread).
func ParsePolicy(name string) (Policy, error) {
	switch Policy(name) {
	case "", PolicySpread:
		return PolicySpread, nil
	case PolicyRoundRobin:
		return PolicyRoundRobin, nil
	case PolicyColocate:
		return PolicyColocate, nil
	default:
		return "", fmt.Errorf("cluster: unknown placement policy %q (want spread, round-robin or colocate)", name)
	}
}

// Config parameterizes the cluster topology of an engine.
type Config struct {
	// Workers is the number of cluster workers instances are placed on.
	// 0 defaults to the engine's default parallelism, preserving the
	// legacy one-worker-per-parallel-instance deployment.
	Workers int
	// Policy selects the placement policy ("" = PolicySpread).
	Policy Policy
	// LocalCache enables the worker-local state cache: checkpoint blobs
	// uploaded (or fetched during a recovery) by an instance stay cached
	// in its hosting worker's memory, so instances recovering on a
	// surviving worker restore locally instead of from the object store.
	// A worker crash invalidates its cache — recovery of the failed
	// worker's own instances always pays the remote fetch.
	LocalCache bool
}

// OpInfo describes one operator to the placement policies.
type OpInfo struct {
	// Name identifies the operator (PolicyColocate hashes it).
	Name string
	// Parallelism is the operator's resolved instance count.
	Parallelism int
}

// Topology is an immutable placement of a job's operator instances onto
// cluster workers.
type Topology struct {
	workers  int
	policy   Policy
	ops      []OpInfo
	base     []int   // base[op] = gid of (op, 0)
	host     []int   // host[gid] = hosting worker
	onWorker [][]int // onWorker[w] = gids hosted on w, ascending
}

// New validates cfg and computes the placement. defaultWorkers is the
// engine's default parallelism, used when cfg.Workers is zero.
func New(cfg Config, defaultWorkers int, ops []OpInfo) (*Topology, error) {
	n := cfg.Workers
	if n <= 0 {
		n = defaultWorkers
	}
	if n <= 0 {
		return nil, fmt.Errorf("cluster: worker count must be positive, got %d", n)
	}
	policy, err := ParsePolicy(string(cfg.Policy))
	if err != nil {
		return nil, err
	}
	t := &Topology{
		workers:  n,
		policy:   policy,
		ops:      append([]OpInfo(nil), ops...),
		base:     make([]int, len(ops)),
		onWorker: make([][]int, n),
	}
	total := 0
	for i, op := range ops {
		if op.Parallelism <= 0 {
			return nil, fmt.Errorf("cluster: operator %q has parallelism %d", op.Name, op.Parallelism)
		}
		t.base[i] = total
		total += op.Parallelism
	}
	t.host = make([]int, total)
	for op, info := range ops {
		for idx := 0; idx < info.Parallelism; idx++ {
			gid := t.base[op] + idx
			var w int
			switch policy {
			case PolicySpread:
				w = idx % n
			case PolicyRoundRobin:
				w = gid % n
			case PolicyColocate:
				w = hashName(info.Name) % n
			}
			t.host[gid] = w
			t.onWorker[w] = append(t.onWorker[w], gid)
		}
	}
	return t, nil
}

// hashName maps an operator name to a stable small integer (FNV-1a).
func hashName(name string) int {
	h := fnv.New32a()
	h.Write([]byte(name))
	return int(h.Sum32() & 0x7fffffff)
}

// Workers reports the cluster size.
func (t *Topology) Workers() int { return t.workers }

// Policy reports the placement policy that produced the topology.
func (t *Topology) Policy() Policy { return t.policy }

// Instances reports the total instance count.
func (t *Topology) Instances() int { return len(t.host) }

// WorkerOf returns the hosting worker of global instance gid.
func (t *Topology) WorkerOf(gid int) int { return t.host[gid] }

// InstancesOn returns the global instance ids hosted on worker w,
// ascending. The returned slice is shared; callers must not modify it.
func (t *Topology) InstancesOn(w int) []int {
	if w < 0 || w >= t.workers {
		return nil
	}
	return t.onWorker[w]
}

// Normalize folds an arbitrary worker id into [0, Workers): callers that
// predate the cluster model address "worker k" with k possibly beyond the
// cluster size (the legacy index-modulo convention), and failure domains
// wrap around the ring of workers.
func (t *Topology) Normalize(w int) int {
	w %= t.workers
	if w < 0 {
		w += t.workers
	}
	return w
}

// locate maps a gid back to (operator, instance index) for display.
func (t *Topology) locate(gid int) (op, idx int) {
	op = sort.Search(len(t.base), func(i int) bool { return t.base[i] > gid }) - 1
	return op, gid - t.base[op]
}

// Table renders the placement as an aligned worker→instances table, one
// row per worker, instances written operator[idx].
func (t *Topology) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "placement %s over %d workers, %d instances\n", t.policy, t.workers, len(t.host))
	for w := 0; w < t.workers; w++ {
		fmt.Fprintf(&b, "  worker %2d:", w)
		if len(t.onWorker[w]) == 0 {
			b.WriteString(" (empty)")
		}
		for _, gid := range t.onWorker[w] {
			op, idx := t.locate(gid)
			fmt.Fprintf(&b, " %s[%d]", t.ops[op].Name, idx)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
