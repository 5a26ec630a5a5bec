// Engine: drive the concurrent routing engine through a live-traffic
// scenario on NSFNET — concurrent routing goroutines keep answering
// against pinned epoch snapshots while circuits come and go, then a link
// fails and the riders are rerouted on the post-failure epoch. Prints
// the cost-row cache and epoch counters at each stage so the
// copy-on-write snapshot model is visible.
//
// Run with:
//
//	go run ./examples/engine
package main

import (
	"fmt"
	"log"
	"math/rand"
	"sync"
	"sync/atomic"

	"lightpath/internal/engine"
	"lightpath/internal/topo"
	"lightpath/internal/workload"
)

func main() {
	rng := rand.New(rand.NewSource(1998))
	nw, err := workload.Build(topo.NSFNET(), workload.Spec{
		K:         8,
		AvailProb: 0.7,
		Conv:      workload.ConvUniform,
		ConvCost:  0.4,
	}, rng)
	if err != nil {
		log.Fatal(err)
	}
	eng, err := engine.New(nw, &engine.Options{CacheSize: nw.NumNodes()})
	if err != nil {
		log.Fatal(err)
	}
	n := nw.NumNodes()
	fmt.Printf("NSFNET: %d nodes, %d links, k=%d, %d channels in service\n\n",
		n, nw.NumLinks(), nw.K(), eng.Snapshot().Network().TotalChannels())

	// Stage 1 — concurrent readers against a mutating network. Four
	// writer goroutines allocate and release circuits (each mutation
	// publishes a new epoch snapshot); eight reader goroutines route
	// continuously, each answer served from whatever epoch it pinned.
	var (
		writerWG, readerWG sync.WaitGroup
		ownerSeq           atomic.Int64
		routed             atomic.Int64
		blocked            atomic.Int64
	)
	for w := 0; w < 4; w++ {
		writerWG.Add(1)
		go func(seed int64) {
			defer writerWG.Done()
			r := rand.New(rand.NewSource(seed))
			var mine []int64
			for i := 0; i < 50; i++ {
				if len(mine) > 0 && r.Intn(3) == 0 {
					owner := mine[len(mine)-1]
					mine = mine[:len(mine)-1]
					if err := eng.Release(owner); err != nil {
						log.Fatal(err)
					}
					continue
				}
				s, t := r.Intn(n), r.Intn(n)
				if s == t {
					continue
				}
				owner := ownerSeq.Add(1)
				if _, err := eng.RouteAndAllocate(owner, s, t); err == nil {
					mine = append(mine, owner)
				}
			}
			for _, owner := range mine {
				if err := eng.Release(owner); err != nil {
					log.Fatal(err)
				}
			}
		}(int64(100 + w))
	}
	for r := 0; r < 8; r++ {
		readerWG.Add(1)
		go func(seed int64) {
			defer readerWG.Done()
			rr := rand.New(rand.NewSource(seed))
			for i := 0; i < 40; i++ {
				snap := eng.Snapshot() // pin one epoch for this query
				s, t := rr.Intn(n), rr.Intn(n)
				if s == t {
					continue
				}
				if seed%2 == 0 {
					// Half the readers are table-builders: single-source
					// cost queries served from the (source, epoch) cost rows.
					if _, err := snap.CostsFrom(s); err != nil {
						log.Fatal(err)
					}
					routed.Add(1)
					continue
				}
				if _, err := snap.Route(s, t); err != nil {
					blocked.Add(1)
				} else {
					routed.Add(1)
				}
			}
		}(int64(200 + r))
	}
	writerWG.Wait()
	readerWG.Wait()

	st := eng.Stats()
	cs := eng.CacheStats()
	fmt.Println("stage 1 — concurrent churn:")
	fmt.Printf("  epochs published %d  allocations %d  releases %d  conflicts %d\n",
		st.Epoch, st.Allocations, st.Releases, st.Conflicts)
	fmt.Printf("  reader answers   %d routed, %d blocked (each against a pinned snapshot)\n",
		routed.Load(), blocked.Load())
	fmt.Printf("  cost rows        %d hits / %d misses (hit rate %.3f), %d evictions\n\n",
		cs.Hits, cs.Misses, cs.HitRate(), cs.Evictions)

	// Stage 2 — batch routing: every ordered pair against ONE pinned
	// snapshot, fanned out over the worker pool. A source's requests are
	// read off its cost row when one is resident at this epoch, else off
	// one tree built for the batch.
	var reqs []engine.Request
	for s := 0; s < n; s++ {
		for t := 0; t < n; t++ {
			if s != t {
				reqs = append(reqs, engine.Request{From: s, To: t})
			}
		}
	}
	snap := eng.Snapshot()
	out := snap.BatchCosts(reqs, 0)
	ok := 0
	for _, r := range out {
		if r.Err == nil {
			ok++
		}
	}
	cs = eng.CacheStats()
	fmt.Printf("stage 2 — batch: %d/%d pairs routed at epoch %d (cost rows now %d hits, rate %.3f)\n\n",
		ok, len(reqs), snap.Epoch(), cs.Hits, cs.HitRate())

	// Stage 3 — failure handling. Pin some circuits, fail a link they
	// ride, reroute the riders on the post-failure snapshot.
	var owners []int64
	for i := 0; i < 6; i++ {
		s, t := rng.Intn(n), rng.Intn(n)
		if s == t {
			continue
		}
		owner := ownerSeq.Add(1)
		if _, err := eng.RouteAndAllocate(owner, s, t); err == nil {
			owners = append(owners, owner)
		}
	}
	link := eng.OwnerChannels(owners[0])[0].Link
	riders, err := eng.FailLink(link)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("stage 3 — failed link %d: %d circuits riding it\n", link, len(riders))
	for _, owner := range riders {
		chans := eng.OwnerChannels(owner)
		s := nw.Link(chans[0].Link).From
		t := nw.Link(chans[len(chans)-1].Link).To
		if err := eng.Release(owner); err != nil {
			log.Fatal(err)
		}
		if _, err := eng.RouteAndAllocate(owner, s, t); err != nil {
			fmt.Printf("  circuit %d (%d->%d): blocked after failure\n", owner, s, t)
			continue
		}
		fmt.Printf("  circuit %d (%d->%d): rerouted around the failure\n", owner, s, t)
	}
	if err := eng.RepairLink(link); err != nil {
		log.Fatal(err)
	}
	st = eng.Stats()
	fmt.Printf("\nfinal: epoch %d, %d active circuits holding %d channels, utilization %.3f\n",
		st.Epoch, st.ActiveOwners, st.HeldChannels, eng.Utilization())
}
