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

// BenchmarkRouteFromRebuild measures the pre-engine behaviour the
// snapshots replace: recompile the auxiliary graph from the residual network and
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

// BenchmarkRouteFromColdCache measures one RouteFrom: a single-source
// pass on the prebuilt snapshot Aux, no recompilation — what a CostsFrom
// pays on the first ask per (source, epoch), before its row is copied.
func BenchmarkRouteFromColdCache(b *testing.B) {
	nw := benchNet(b)
	e, err := New(nw, nil)
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
// answers it: the source's resident cost row, rendered, with its n texts
// appended as routefrom copies them (one map lookup and a copy; no
// allocation); the row's first hit, which renders the text before it is
// appended (the row's text reset before every ask; three objects); or — with the cache off — the single-source pass
// and the row copied off it.
func BenchmarkCostsFrom(b *testing.B) {
	for _, n := range []int{100, 300} {
		nw := sparseNet(b, n)
		for _, by := range []string{"row=resident", "row=first-hit", "cold"} {
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
				for ask := 0; ask < 2 && by != "cold"; ask++ { // every row, built and rendered
					for s := 0; s < n; s++ {
						if _, err := snap.CostsFrom(s); err != nil {
							b.Fatal(err)
						}
					}
				}
				var rows []*costRow
				for s := 0; s < n && by == "row=first-hit"; s++ {
					row, _ := e.costs.getResident(epochKey{node: s, epoch: snap.Epoch()})
					rows = append(rows, row)
				}
				before, renders := e.CacheStats(), counter(e, "engine_cost_row_renders_total")
				sum := 0.0
				text := make([]byte, 0, 32*n)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if rows != nil {
						rows[i%n].text.Store(nil) // one atomic store: cheaper to time than to stop the clock for
					}
					costs, err := snap.CostsFrom(i % n)
					if err != nil {
						b.Fatal(err)
					}
					text = text[:0]
					for t := 0; t < n; t++ {
						sum += costs.To(t)
						text = costs.AppendCost(text, t)
					}
				}
				benchSink = sum
				after, rendered := e.CacheStats(), counter(e, "engine_cost_row_renders_total")-renders
				if (by != "cold") != (after.Hits-before.Hits == uint64(b.N)) || (by == "row=first-hit") != (rendered == uint64(b.N)) {
					b.Fatalf("%s: cost rows %+v → %+v, %d renders over %d asks", by, before, after, rendered, b.N)
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

// BenchmarkEngineNew is what wdmserve pays before it serves: the epoch-0
// residual (the base, patched nowhere) and the full compile inside it,
// under wdmserve's defaults (astar, bucket trees, the default cache) on
// its `-topo sparse -n N -k 8` instances; n=300 is big_read's.
func BenchmarkEngineNew(b *testing.B) {
	for _, n := range []int{100, 300} {
		nw := sparseNet(b, n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := New(nw, &Options{Directed: core.DirectedAStar}); err != nil {
					b.Fatal(err)
				}
			}
		})
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
// allpairs/nsfnet is RouteBatch fan-out over the worker pool: every
// iteration runs at an epoch of its own (published with the clock
// stopped), and the batch builds one SourceTree per source. trees/op
// counts the single-source passes that took: 14, one per source — one
// worker owns each tree.
//
// astar/n=N/r=R/{cold,resident} is where the batch rule's break-even can
// be read: BatchCosts of four sources named R times each, one worker, on
// the server's search mode over the benchmark's sparse networks. Cold
// rows run each batch at a fresh epoch: below core.Aux.TreePays (8 on
// both networks) they are 4R point queries (points/op), from it on 4
// tree builds (trees/op) read 4R times, so ns/op ÷ 4R of a low row is
// what a point query costs, ns/op ÷ 4 of a high row what a tree costs,
// and their ratio the measured break-even — EXPERIMENTS.md X20. Resident
// rows find every source's cost row in the cache: 0 trees, 0 points, 4R
// row reads.
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
		benchBatch(b, nw, &Options{CacheSize: n}, 0, "", func(int) []Request { return reqs })
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
			for _, rows := range []string{"cold", "resident"} {
				b.Run(fmt.Sprintf("astar/n=%d/r=%d/%s", n, r, rows), func(b *testing.B) {
					benchBatch(b, nw, &Options{CacheSize: n, Directed: core.DirectedAStar}, 1, rows, batch)
				})
			}
		}
	}
}

// benchBatch times one batch(i) on a fresh engine and reports the
// single-source passes and point queries per batch. With rows "" the
// batch is RouteBatch at a new epoch every iteration, published with the
// clock stopped; otherwise it is BatchCosts — "cold" at a new epoch every
// iteration too, "resident" at one epoch with every source's cost row
// stored up front.
func benchBatch(b *testing.B, nw *wdm.Network, opts *Options, workers int, rows string, batch func(i int) []Request) {
	e, err := New(nw, opts)
	if err != nil {
		b.Fatal(err)
	}
	held, err := e.Route(0, 9)
	if err != nil {
		b.Fatal(err)
	}
	resident := rows == "resident"
	if resident {
		for s := 0; s < nw.NumNodes(); s++ {
			if _, err := e.CostsFrom(s); err != nil {
				b.Fatal(err)
			}
		}
	}
	trees, points := treePasses(e), counter(e, "engine_routes_total")
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
		var out []BatchResult
		if rows == "" {
			out = e.RouteBatch(batch(i), workers)
		} else {
			out = e.Snapshot().BatchCosts(batch(i), workers)
		}
		for _, r := range out {
			if r.Err != nil && !errors.Is(r.Err, core.ErrNoRoute) {
				b.Fatal(r.Err)
			}
		}
	}
	b.ReportMetric(float64(treePasses(e)-trees)/float64(b.N), "trees/op")
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
// settles several times the nodes (settled/op). queued/op and relaxed/op
// are the heap writes and arc scans beside them: the dive's ceiling
// lowers both and leaves settled/op as it was.
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
			var work core.SearchStats
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
					work.Settled += res.Stats.Settled
					work.Queued += res.Stats.Queued
					work.Relaxed += res.Stats.Relaxed
					work.PhysPops += res.Stats.PhysPops
				}
			}
			b.ReportMetric(float64(work.Settled)/float64(b.N), "settled/op")
			b.ReportMetric(float64(work.Queued)/float64(b.N), "queued/op")
			b.ReportMetric(float64(work.Relaxed)/float64(b.N), "relaxed/op")
			b.ReportMetric(float64(work.PhysPops)/float64(b.N), "physpops/op")
			b.ReportMetric(float64(c.e.metrics.boundRowBuilds.Value()-built)/float64(b.N), "rows/op")
		})
	}
}
