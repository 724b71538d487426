package recovery

// WorkerScope groups a rollback scope by hosting worker: given the cluster
// placement (workerOf maps a global instance id to its worker), it reports
// how many in-scope instances each worker hosts. The map's size is the
// number of workers that must participate in the recovery at all — under
// partial rollback (the uncoordinated family) that is often a strict
// subset of the cluster, which is exactly the locality advantage worker-
// aware placement is supposed to buy.
func WorkerScope(scope []ScopeEntry, workerOf func(instance int) int) map[int]int {
	byWorker := make(map[int]int, len(scope))
	for _, e := range scope {
		byWorker[workerOf(e.Instance)]++
	}
	return byWorker
}
