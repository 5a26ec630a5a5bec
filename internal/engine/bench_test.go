package engine

import (
	"errors"
	"fmt"
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

// BenchmarkCostsFrom is one CostsFrom with its n costs read, on the
// server's search mode over the benchmark's sparse networks, by what
// answers it: the source's resident cost row (one map lookup, an n-float
// slice), its resident SourceTree with no row kept (two lookups; what
// every ask cost before the rows, and a first ask still does), or — with
// the caches off — the single-source pass itself. The first two allocate
// nothing.
func BenchmarkCostsFrom(b *testing.B) {
	for _, n := range []int{100, 300} {
		nw := sparseNet(b, n)
		for _, by := range []string{"row=resident", "tree=resident", "cold"} {
			b.Run(fmt.Sprintf("%s/n=%d", by, n), func(b *testing.B) {
				opts := &Options{CacheSize: n, Directed: core.DirectedAStar}
				if by == "cold" {
					opts.CacheSize = -1
				}
				e, err := New(nw, opts)
				if err != nil {
					b.Fatal(err)
				}
				snap := e.Snapshot()
				for s := 0; s < n && by != "cold"; s++ { // every tree; every row when rows answer
					for ask := 0; ask < 2; ask++ {
						if by == "tree=resident" {
							_, err = snap.RouteFrom(s)
						} else {
							_, err = snap.CostsFrom(s)
						}
						if err != nil {
							b.Fatal(err)
						}
					}
				}
				rows := e.CostRowStats()
				sum := 0.0
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					src := i % n
					if by == "tree=resident" {
						e.costAsked[src].Store(0) // every ask a first ask: no row is ever stored
					}
					costs, err := snap.CostsFrom(src)
					if err != nil {
						b.Fatal(err)
					}
					for t := 0; t < n; t++ {
						sum += costs.To(t)
					}
				}
				benchSink = sum
				if after := e.CostRowStats(); (by == "row=resident") != (after.Hits-rows.Hits == uint64(b.N)) || (by != "row=resident" && after.Size != 0) {
					b.Fatalf("%s: cost rows %+v → %+v over %d asks", by, rows, after, b.N)
				}
			})
		}
	}
}

var benchSink float64

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
// is the delta win on the mutation path (TestPublishAllocationsAreLocal
// pins what a delta publish allocates across topology tiers).
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

// BenchmarkRouteBatch has two families of rows.
//
// allpairs/nsfnet is batch fan-out over the worker pool on a cold cache:
// every iteration runs at an epoch of its own (published with the clock
// stopped), so the batch builds one SourceTree per source. trees/op
// counts the single-source passes that took (cache misses): 14 when no
// tree is built twice, more when two workers miss one source at once.
//
// astar/n=N/r=R/{cold,resident} is where the batch rule's break-even can
// be read: four sources named R times each, one worker, on the server's
// search mode over the benchmark's sparse networks. Cold rows run each
// batch at a fresh epoch: below core.Aux.TreePays (8 on both networks)
// they are 4R point queries (points/op), from it on 4 tree builds
// (trees/op) read 4R times, so ns/op ÷ 4R of a low row is what a point
// query costs, ns/op ÷ 4 of a high row what a tree costs, and their
// ratio the measured break-even — EXPERIMENTS.md X20. Resident rows find
// every tree in the cache: 0 trees, 0 points, 4R reads.
func BenchmarkRouteBatch(b *testing.B) {
	b.Run("allpairs/nsfnet", func(b *testing.B) {
		nw := benchNet(b)
		n := nw.NumNodes()
		var reqs []Request
		for s := 0; s < n; s++ {
			for t := 0; t < n; t++ {
				if s != t {
					reqs = append(reqs, Request{From: s, To: t})
				}
			}
		}
		benchBatch(b, nw, &Options{CacheSize: n}, 0, false, func(int) []Request { return reqs })
	})
	for _, n := range []int{100, 300} {
		nw := sparseNet(b, n)
		for _, r := range []int{1, 2, 4, 8, 16, 32} {
			rng := rand.New(rand.NewSource(int64(r)))
			reqs := make([]Request, 4*r)
			batch := func(i int) []Request {
				for j := range reqs {
					reqs[j] = Request{From: (4*i + j%4) % n, To: rng.Intn(n)}
				}
				return reqs
			}
			for _, cache := range []string{"cold", "resident"} {
				b.Run(fmt.Sprintf("astar/n=%d/r=%d/%s", n, r, cache), func(b *testing.B) {
					benchBatch(b, nw, &Options{CacheSize: n, Directed: core.DirectedAStar}, 1, cache == "resident", batch)
				})
			}
		}
	}
}

// benchBatch times RouteBatch(batch(i), workers) on a fresh engine and
// reports the tree builds and point queries per batch. Cold, every
// iteration runs at a new epoch, published with the clock stopped;
// resident, every source's tree is cached up front and the epoch stands.
func benchBatch(b *testing.B, nw *wdm.Network, opts *Options, workers int, resident bool, batch func(i int) []Request) {
	e, err := New(nw, opts)
	if err != nil {
		b.Fatal(err)
	}
	held, err := e.Route(0, 9)
	if err != nil {
		b.Fatal(err)
	}
	if resident {
		for s := 0; s < nw.NumNodes(); s++ {
			if _, err := e.RouteFrom(s); err != nil {
				b.Fatal(err)
			}
		}
	}
	trees, points := e.CacheStats().Misses, counter(e, "engine_routes_total")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !resident {
			b.StopTimer()
			if err := e.Allocate(1, held.Path); err != nil {
				b.Fatal(err)
			}
			if err := e.Release(1); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
		for _, r := range e.RouteBatch(batch(i), workers) {
			if r.Err != nil && !errors.Is(r.Err, core.ErrNoRoute) {
				b.Fatal(r.Err)
			}
		}
	}
	b.ReportMetric(float64(e.CacheStats().Misses-trees)/float64(b.N), "trees/op")
	b.ReportMetric(float64(counter(e, "engine_routes_total")-points)/float64(b.N), "points/op")
}

// tableRows is a core.BoundRows over a plain table: with build on it
// collects every row asked for, with build off it lends what it holds and
// keeps nothing more.
type tableRows struct {
	rows  map[int][]float32
	build bool
}

func (r *tableRows) Row(t int) ([]float32, bool) {
	if row, ok := r.rows[t]; ok {
		return row, false
	}
	return nil, r.build
}

func (r *tableRows) Store(t int, row []float32) { r.rows[t] = row }

// everyMiss is the engine's row view without the second-ask rule: every
// miss builds and stores the complete row.
type everyMiss struct{ *boundRows }

func (r everyMiss) Row(t int) ([]float32, bool) {
	row, _ := r.boundRows.Row(t)
	return row, row == nil
}

// BenchmarkRouteFreshEpoch is one astar point query at mid_churn's
// operating point — sparse n=100 k=8 at 250 Erlang, a churn slot (about
// two published epochs, clock stopped) before every query, so no
// destination recurs inside an epoch. rows=second-ask is what the engine
// serves and must cost what rows=none does, with rows/op ≈ 0: under churn
// the rows stay out of the way. The other two are the shortcuts sized
// for this workload and left out (EXPERIMENTS.md X22): rows=every-miss
// builds the complete row on a destination's first ask, paying about
// twice the pass for a row nobody reads; rows=layout lends rows computed
// once on the installed network — never invalidated, no pass at all, but
// at this occupancy so much weaker a bound that the search it guides
// settles several times the nodes (settled/op).
func BenchmarkRouteFreshEpoch(b *testing.B) {
	nw := sparseNet(b, 100)
	n := nw.NumNodes()
	installed, err := core.NewAux(nw)
	if err != nil {
		b.Fatal(err)
	}
	layout := &tableRows{rows: make(map[int][]float32), build: true}
	for d := 0; d < n; d++ {
		if _, err := installed.Route((d+1)%n, d, &core.Options{Directed: core.DirectedAStar, Bound: layout}); err != nil && !errors.Is(err, core.ErrNoRoute) {
			b.Fatal(err)
		}
	}
	layout.build = false
	for _, v := range []struct {
		name string
		rows func(*Snapshot) core.BoundRows
	}{
		{"second-ask", func(s *Snapshot) core.BoundRows { return &s.rows }},
		{"none", func(*Snapshot) core.BoundRows { return nil }},
		{"every-miss", func(s *Snapshot) core.BoundRows { return everyMiss{&s.rows} }},
		{"layout", func(*Snapshot) core.BoundRows { return layout }},
	} {
		b.Run("rows="+v.name, func(b *testing.B) {
			c := steadyChurn(b, nw)
			rng := rand.New(rand.NewSource(5))
			built := c.e.metrics.boundRowBuilds.Value()
			settled, physPops := 0, 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				c.step(b)
				snap := c.e.Snapshot()
				opts := &core.Options{Directed: core.DirectedAStar, Bound: v.rows(snap)}
				s, d := rng.Intn(n), rng.Intn(n)
				b.StartTimer()
				res, err := snap.Aux().Route(s, d, opts)
				if err != nil && !errors.Is(err, core.ErrNoRoute) {
					b.Fatal(err)
				}
				if res != nil {
					settled += res.Stats.Settled
					physPops += res.Stats.PhysPops
				}
			}
			b.ReportMetric(float64(settled)/float64(b.N), "settled/op")
			b.ReportMetric(float64(physPops)/float64(b.N), "physpops/op")
			b.ReportMetric(float64(c.e.metrics.boundRowBuilds.Value()-built)/float64(b.N), "rows/op")
		})
	}
}
