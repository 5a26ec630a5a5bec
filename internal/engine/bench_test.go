package engine

import (
	"errors"
	"math/rand"
	"testing"

	"lightpath/internal/core"
	"lightpath/internal/graph"
	"lightpath/internal/topo"
	"lightpath/internal/wdm"
	"lightpath/internal/workload"
)

func benchNet(b testing.TB) *wdm.Network {
	b.Helper()
	nw, err := workload.Build(topo.NSFNET(), workload.Spec{
		K:         8,
		AvailProb: 0.6,
		Conv:      workload.ConvUniform,
		ConvCost:  0.3,
	}, rand.New(rand.NewSource(1998)))
	if err != nil {
		b.Fatal(err)
	}
	return nw
}

// BenchmarkRouteFromCached measures the engine's hot path: a
// single-source query answered from the (source, epoch) SourceTree
// cache at a stable epoch.
func BenchmarkRouteFromCached(b *testing.B) {
	nw := benchNet(b)
	e, err := New(nw, &Options{CacheSize: nw.NumNodes()})
	if err != nil {
		b.Fatal(err)
	}
	snap := e.Snapshot()
	n := nw.NumNodes()
	for s := 0; s < n; s++ { // warm every source
		if _, err := snap.RouteFrom(s); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := snap.RouteFrom(i % n); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRouteFromRebuild measures the pre-engine behaviour the cache
// replaces: recompile the auxiliary graph from the residual network and
// run the single-source pass, once per request.
func BenchmarkRouteFromRebuild(b *testing.B) {
	nw := benchNet(b)
	e, err := New(nw, nil)
	if err != nil {
		b.Fatal(err)
	}
	residual := e.Snapshot().Network()
	n := nw.NumNodes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		aux, err := core.NewAux(residual)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := aux.RouteFrom(i%n, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRouteFromColdCache measures a cache miss (Dijkstra pass on
// the prebuilt snapshot Aux, no recompilation) — the cost a reader pays
// on the first query per (source, epoch).
func BenchmarkRouteFromColdCache(b *testing.B) {
	nw := benchNet(b)
	e, err := New(nw, &Options{CacheSize: -1}) // disabled: every call computes
	if err != nil {
		b.Fatal(err)
	}
	snap := e.Snapshot()
	n := nw.NumNodes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := snap.RouteFrom(i % n); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAllocateRelease measures mutation throughput: each iteration
// publishes two epochs (allocate + release). Under the default options
// every publish rides core.Aux.ApplyDelta on one unbroken chain — the
// deployed configuration.
func BenchmarkAllocateRelease(b *testing.B) {
	benchAllocateRelease(b, nil)
}

// BenchmarkAllocateReleaseFullRebuild is the same mutation loop with
// incremental maintenance disabled: every publish recompiles the
// auxiliary graph from scratch. The gap against BenchmarkAllocateRelease
// is the delta win on the mutation path (BENCH_churn.json records it
// across topology tiers).
func BenchmarkAllocateReleaseFullRebuild(b *testing.B) {
	benchAllocateRelease(b, &Options{MaxDeltaDepth: -1})
}

func benchAllocateRelease(b *testing.B, opts *Options) {
	nw := benchNet(b)
	e, err := New(nw, opts)
	if err != nil {
		b.Fatal(err)
	}
	res, err := e.Route(0, 9)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.Allocate(1, res.Path); err != nil {
			b.Fatal(err)
		}
		if err := e.Release(1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRouteOnLongChain is the measurement that retired the periodic
// recompaction: the same searches on the compiled graph at the end of a
// 3000-deep delta chain (250-Erlang churn, sparse n=100 k=8) and on a
// fresh contiguous compile of the same residual. A chain that fragmented
// the arc arena to the searches' cost would show here as chained > fresh.
func BenchmarkRouteOnLongChain(b *testing.B) {
	c := steadyChurn(b, sparseNet(b, 100))
	for c.e.Epoch() < 3000 {
		c.step(b)
	}
	chained := c.e.Snapshot().Aux()
	if chained.DeltaDepth() < 3000 {
		b.Fatalf("chain depth %d", chained.DeltaDepth())
	}
	fresh, err := core.NewAuxWithLayout(c.e.Base(), chained.Network())
	if err != nil {
		b.Fatal(err)
	}
	n := c.e.Base().NumNodes()
	astar := &core.Options{Queue: graph.QueueBinary, Directed: core.DirectedAStar}
	tree := &core.Options{Queue: graph.QueueBinary}
	for _, sub := range []struct {
		name string
		aux  *core.Aux
	}{{"chained", chained}, {"fresh", fresh}} {
		b.Run("routefrom/"+sub.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := sub.aux.RouteFrom(i%n, tree); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("astar/"+sub.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := sub.aux.Route(i%n, (i*37+11)%n, astar); err != nil && !errors.Is(err, core.ErrNoRoute) {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRouteBatch measures batch fan-out over the worker pool on a
// cold cache: every iteration runs at an epoch of its own (published with
// the clock stopped), so the batch builds one SourceTree per source.
// trees/op counts the Dijkstra passes that took (cache misses): 14 when
// no tree is built twice, more when two workers miss one source at once.
func BenchmarkRouteBatch(b *testing.B) {
	nw := benchNet(b)
	e, err := New(nw, &Options{CacheSize: nw.NumNodes()})
	if err != nil {
		b.Fatal(err)
	}
	n := nw.NumNodes()
	var reqs []Request
	for s := 0; s < n; s++ {
		for t := 0; t < n; t++ {
			if s != t {
				reqs = append(reqs, Request{From: s, To: t})
			}
		}
	}
	held, err := e.Route(0, 9)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if err := e.Allocate(1, held.Path); err != nil {
			b.Fatal(err)
		}
		if err := e.Release(1); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		out := e.RouteBatch(reqs, 0)
		for _, r := range out {
			if r.Err != nil {
				b.Fatal(r.Err)
			}
		}
	}
	cs := e.CacheStats()
	b.ReportMetric(float64(cs.Misses)/float64(b.N), "trees/op")
}
