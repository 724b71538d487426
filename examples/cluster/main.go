// Command cluster demonstrates the cluster topology subsystem: it prints
// the instance→worker placement table of each policy for a NexMark job,
// then injects one failure per failure domain (single worker, correlated
// rack, rolling restart) and reports the recovery-time (RTO) phase
// breakdown of each — including how many restored bytes came from the
// worker-local state cache versus the object store.
//
//	go run ./examples/cluster
//	go run ./examples/cluster -query q3 -workers 6 -protocol UNC
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"checkmate"
)

func main() {
	var (
		query   = flag.String("query", "q3", "workload: q1, q3, q8, q12, ...")
		workers = flag.Int("workers", 4, "parallelism (= cluster size here)")
		proto   = flag.String("protocol", "COOR", "protocol: COOR, UNC or CIC")
	)
	flag.Parse()
	p, err := checkmate.ProtocolByName(*proto)
	if err != nil {
		log.Fatal(err)
	}

	// Part 1: the placement table of every policy, straight from a
	// throwaway engine's topology.
	fmt.Println("== Placement policies ==")
	for _, policy := range []checkmate.PlacementPolicy{
		checkmate.PlacementSpread, checkmate.PlacementRoundRobin, checkmate.PlacementColocate,
	} {
		eng, err := newEngineFor(*query, *workers, p, policy)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(eng.Topology().Table())
	}

	// Part 2: one failure per domain; every recovery of the run reports its
	// RTO phase breakdown.
	fmt.Println("== Failure domains (warm worker-local cache) ==")
	for _, domain := range []checkmate.FailureDomain{
		checkmate.FailWorker, checkmate.FailRack, checkmate.FailRolling,
	} {
		res, err := checkmate.Run(checkmate.RunConfig{
			Config: checkmate.EngineConfig{
				Protocol:           p,
				Workers:            *workers,
				CheckpointInterval: 400 * time.Millisecond,
				Cluster:            checkmate.ClusterConfig{LocalCache: true},
			},
			Query:      *query,
			Rate:       20000,
			Duration:   4 * time.Second,
			FailureAt:  1600 * time.Millisecond,
			FailDomain: string(domain),
		})
		if err != nil {
			log.Fatal(err)
		}
		for _, rto := range res.Summary.RTOs {
			fmt.Printf("%-8s workers %v: detect %.1fms | rollback %.1fms | fetch %.1fms | replay %.1fms | catchup %.1fms | RTO %.1fms\n",
				domain, rto.FailedWorkers, ms(rto.Detect), ms(rto.Rollback), ms(rto.Fetch), ms(rto.Replay), ms(rto.CatchUp), ms(rto.Total))
			fmt.Printf("         restored %.1f KB: %.1f KB from worker-local caches, %.1f KB from the object store (%d cache hits, %d misses)\n",
				float64(rto.RestoredBytes)/1024, float64(rto.LocalBytes)/1024, float64(rto.RemoteBytes)/1024,
				rto.CacheHits, rto.CacheMisses)
		}
	}
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// newEngineFor builds an engine solely to materialize its placement
// topology; it is never started.
func newEngineFor(query string, workers int, p checkmate.Protocol, policy checkmate.PlacementPolicy) (*checkmate.Engine, error) {
	broker := checkmate.NewBroker()
	for _, topic := range checkmate.QueryTopics(query) {
		if _, err := broker.CreateTopic(topic, workers); err != nil {
			return nil, err
		}
	}
	job, err := checkmate.BuildQuery(query, checkmate.QueryConfig{Window: time.Second})
	if err != nil {
		return nil, err
	}
	return checkmate.NewEngine(checkmate.EngineConfig{
		Workers:  workers,
		Protocol: p,
		Broker:   broker,
		Store:    checkmate.NewObjectStore(checkmate.ObjectStoreConfig{}),
		Recorder: checkmate.NewRecorder(time.Now(), time.Minute, time.Second),
		Cluster:  checkmate.ClusterConfig{Policy: policy},
	}, job)
}
