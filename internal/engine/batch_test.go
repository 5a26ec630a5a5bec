package engine

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"lightpath/internal/core"
	"lightpath/internal/obs"
	"lightpath/internal/topo"
	"lightpath/internal/wdm"
	"lightpath/internal/workload"
)

// batchConvs is every converter family the instance generator ships, as
// core's directed_test.go sweeps them.
var batchConvs = map[string]workload.Spec{
	"none":     {K: 5, AvailProb: 0.6, Conv: workload.ConvNone},
	"uniform":  {K: 5, AvailProb: 0.6, Conv: workload.ConvUniform, ConvCost: 0.3},
	"distance": {K: 5, AvailProb: 0.6, Conv: workload.ConvDistance, ConvCost: 0.3, ConvRadius: 2},
	"sparse":   {K: 5, AvailProb: 0.6, Conv: workload.ConvSparseTable, ConvCost: 0.3, ConvProb: 0.6},
}

// batchFixtures is core's directed_test.go fixture set — every topology
// generator the repo ships, built in name order (the builds share rng)
// into a WDM workload under spec.
func batchFixtures(t *testing.T, spec workload.Spec) map[string]*wdm.Network {
	t.Helper()
	rng := rand.New(rand.NewSource(2718))
	nets := make(map[string]*wdm.Network)
	for _, f := range []struct {
		name string
		tp   *topo.Topology
	}{
		{"arpanet", topo.ARPANET()},
		{"complete", topo.Complete(7)},
		{"grid", topo.Grid(4, 5)},
		{"hypercube", topo.Hypercube(4)},
		{"line", topo.Line(9)},
		{"nsfnet", topo.NSFNET()},
		{"ring", topo.Ring(10)},
		{"shufflenet", topo.ShuffleNet(2, 3)},
		{"sparse", topo.RandomSparse(24, 4, 6, rng)},
		{"torus", topo.Torus(4, 4)},
		{"waxman", topo.Waxman(20, 0.6, 0.5, rng)},
	} {
		nw, err := workload.Build(f.tp, spec, rng)
		if err != nil {
			t.Fatalf("%s: %v", f.name, err)
		}
		nets[f.name] = nw
	}
	paper, err := topo.PaperExample(topo.DefaultPaperExampleSpec())
	if err != nil {
		t.Fatal(err)
	}
	nets["paper"] = paper
	return nets
}

func counter(e *Engine, name string) uint64 { return e.Metrics().Snapshot()[name].(uint64) }

// batchSplit reads how e's batch requests were answered — off a cost
// row, off a tree the batch built, by point query — and demands that the
// three sum to the requests.
func batchSplit(t *testing.T, what string, e *Engine) (row, tree, point uint64) {
	t.Helper()
	snap := e.Metrics().Snapshot()
	row, tree, point = snap["engine_batch_row_requests_total"].(uint64),
		snap["engine_batch_tree_requests_total"].(uint64), snap["engine_batch_point_requests_total"].(uint64)
	if all := snap["engine_batch_requests_total"].(uint64); row+tree+point != all {
		t.Fatalf("%s: %d via row + %d via tree + %d via point query != %d batch requests", what, row, tree, point, all)
	}
	return row, tree, point
}

// treePasses counts e's RouteFrom and CostsFrom calls: the single-source
// passes, where no CostsFrom is answered by a row.
func treePasses(e *Engine) uint64 {
	return e.Metrics().Snapshot()["engine_routefrom_latency_ns"].(obs.HistogramSnapshot).Count
}

// sameAnswers demands that got answers reqs in order, each with the
// verdict and — bit for bit — the cost of a point query on ref.
func sameAnswers(t *testing.T, what string, ref *Engine, reqs []Request, got []BatchResult) {
	t.Helper()
	if len(got) != len(reqs) {
		t.Fatalf("%s: %d answers to %d requests", what, len(got), len(reqs))
	}
	for i, g := range got {
		if g.Request != reqs[i] {
			t.Fatalf("%s: answer %d is for %+v, want %+v", what, i, g.Request, reqs[i])
		}
		want, err := ref.Route(g.From, g.To)
		if err != nil && !errors.Is(err, core.ErrNoRoute) {
			t.Fatalf("%s: reference %d->%d: %v", what, g.From, g.To, err)
		}
		if errors.Is(g.Err, core.ErrNoRoute) != (err != nil) || (g.Err == nil) != (err == nil) {
			t.Fatalf("%s: %d->%d: outcome %v, want %v", what, g.From, g.To, g.Err, err)
		}
		if err == nil && math.Float64bits(g.Cost) != math.Float64bits(want.Cost) {
			t.Fatalf("%s: %d->%d: cost %v, want %v", what, g.From, g.To, g.Cost, want.Cost)
		}
	}
}

// TestRouteBatchBranchesAgree forces the same requests down each of the
// batch's ways of answering — a tree the batch builds, point queries and,
// for BatchCosts, a resident cost row — on plain and astar engines across
// the fixture topologies × converter families. Every way must give the
// verdict and the cost, bit for bit, of the paper's point search; the
// cache and batch counters must reconcile; a source below the break-even
// must cost no pass and one at it exactly one, every batch over again —
// the tree is the batch's and is dropped; a batch never stores a row, and
// a resident row must be read with no pass.
func TestRouteBatchBranchesAgree(t *testing.T) {
	for conv, spec := range batchConvs {
		for name, nw := range batchFixtures(t, spec) {
			for _, mode := range []core.DirectedMode{core.DirectedPlain, core.DirectedAStar} {
				what := conv + "/" + name + "/" + mode.String()
				fresh := func(mode core.DirectedMode) *Engine {
					e, err := New(nw, &Options{Directed: mode})
					if err != nil {
						t.Fatalf("%s: %v", what, err)
					}
					return e
				}
				ref := fresh(core.DirectedPlain)
				n := nw.NumNodes()
				pays := ref.Snapshot().Aux().TreePays(mode)
				// Three sources, each named exactly pays times; with the last
				// request of each dropped, each exactly below the break-even.
				rng := rand.New(rand.NewSource(20))
				srcs := rng.Perm(n)[:3]
				var at, below []Request
				for _, s := range srcs {
					for i := 0; i < pays; i++ {
						r := Request{From: s, To: rng.Intn(n)}
						at = append(at, r)
						if i < pays-1 {
							below = append(below, r)
						}
					}
				}
				reconciles := func(e *Engine) CacheStats {
					t.Helper()
					cs := e.CacheStats()
					if cs.Hits+cs.Misses != cs.Lookups {
						t.Fatalf("%s: %d hits + %d misses != %d lookups", what, cs.Hits, cs.Misses, cs.Lookups)
					}
					batchSplit(t, what, e)
					return cs
				}

				// Point queries: the break-even counts requests per batch, so
				// one request per batch is below it under every mode.
				e := fresh(mode)
				for _, r := range at {
					sameAnswers(t, what+" point", ref, []Request{r}, e.Snapshot().RouteBatch([]Request{r}, 1))
				}
				if cs := reconciles(e); cs.Lookups != 0 || treePasses(e) != 0 {
					t.Fatalf("%s: point queries touched the cache: %+v, %d tree passes", what, cs, treePasses(e))
				}
				if got := counter(e, "engine_batch_point_requests_total"); got != uint64(len(at)) {
					t.Fatalf("%s: %d of %d requests by point query", what, got, len(at))
				}

				// Below the break-even: still point queries, no pass.
				e = fresh(mode)
				sameAnswers(t, what+" below", ref, below, e.Snapshot().RouteBatch(below, 1))
				if cs := reconciles(e); cs.Lookups != 0 || treePasses(e) != 0 {
					t.Fatalf("%s: below the break-even: %+v, %d tree passes", what, cs, treePasses(e))
				}

				// At the break-even: one pass per source, and the same batch
				// again at the same epoch is three passes again.
				e = fresh(mode)
				for round := 1; round <= 2; round++ {
					sameAnswers(t, what+" built", ref, at, e.Snapshot().RouteBatch(at, 1))
					if cs := reconciles(e); cs.Lookups != 0 || cs.Size != 0 || treePasses(e) != uint64(3*round) {
						t.Fatalf("%s: at the break-even, batch %d: %+v, %d tree passes, want %d", what, round, cs, treePasses(e), 3*round)
					}
					if got := counter(e, "engine_batch_tree_requests_total"); got != uint64(round*len(at)) {
						t.Fatalf("%s: %d of %d requests via a tree", what, got, round*len(at))
					}
				}

				// Costs only: the same trees, no path extracted, no row stored ...
				got := e.Snapshot().BatchCosts(at, 1)
				sameAnswers(t, what+" costs off trees", ref, at, got)
				for _, g := range got {
					if g.Result != nil {
						t.Fatalf("%s: BatchCosts extracted a path for %d->%d off a tree", what, g.From, g.To)
					}
				}
				if counter(e, "engine_batch_row_requests_total") != 0 || e.CacheStats().Size != 0 || treePasses(e) != 9 {
					t.Fatalf("%s: a batch stored or read a cost row: %+v, %d tree passes", what, e.CacheStats(), treePasses(e))
				}
				// ... then, each source asked once, its row — and no pass, at or
				// below the break-even.
				for _, s := range srcs {
					if _, err := e.CostsFrom(s); err != nil {
						t.Fatalf("%s: %v", what, err)
					}
				}
				before := reconciles(e)
				passes := treePasses(e)
				sameAnswers(t, what+" rows", ref, at, e.Snapshot().BatchCosts(at, 1))
				sameAnswers(t, what+" rows below", ref, below, e.Snapshot().BatchCosts(below, 1))
				if cs := reconciles(e); cs.Hits != before.Hits+uint64(len(at)+len(below)) || cs.Misses != before.Misses || treePasses(e) != passes {
					t.Fatalf("%s: resident rows: %+v → %+v, %d passes → %d", what, before, cs, passes, treePasses(e))
				}
				if got := counter(e, "engine_batch_row_requests_total"); got != uint64(len(at)+len(below)) {
					t.Fatalf("%s: %d of %d requests via a cost row", what, got, len(at)+len(below))
				}
				// RouteBatch owes its callers paths: rows cannot serve it.
				sameAnswers(t, what+" paths beside rows", ref, at, e.Snapshot().RouteBatch(at, 1))
				if got := counter(e, "engine_batch_row_requests_total"); got != uint64(len(at)+len(below)) {
					t.Fatalf("%s: RouteBatch read a cost row", what)
				}
			}
		}
	}
}

// TestRouteBatchWithoutCacheBuildsTreePerSource pins the cache-disabled
// path: a tree is the batch's own, so a batch that repeats its sources
// still runs one pass per source named at least TreePays times — never
// one per request — and a point query for every other request.
func TestRouteBatchWithoutCacheBuildsTreePerSource(t *testing.T) {
	nw := buildNet(t, topo.NSFNET(), 4, 1)
	rng := rand.New(rand.NewSource(16))
	var reqs []Request
	named := make(map[int]int)
	for i := 0; i < 16; i++ {
		r := Request{From: []int{0, 3, 7, 11}[rng.Intn(4)], To: rng.Intn(nw.NumNodes())}
		reqs = append(reqs, r)
		named[r.From]++
	}
	ref, err := New(nw, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []core.DirectedMode{core.DirectedPlain, core.DirectedAStar} {
		e, err := New(nw, &Options{Directed: mode, CacheSize: -1})
		if err != nil {
			t.Fatal(err)
		}
		pays := e.Snapshot().Aux().TreePays(mode)
		var trees, viaTree uint64
		for _, c := range named {
			if c >= pays {
				trees++
				viaTree += uint64(c)
			}
		}
		if mode == core.DirectedPlain && trees != 4 {
			t.Fatalf("fixture: %d of 4 sources pay for a tree under plain", trees)
		}
		sameAnswers(t, mode.String(), ref, reqs, e.Snapshot().RouteBatch(reqs, 2))
		if got := treePasses(e); got != trees {
			t.Fatalf("%s: %d single-source passes for a 16-pair batch, want one per paying source: %d", mode, got, trees)
		}
		if got := counter(e, "engine_routes_total"); got != 16-viaTree {
			t.Fatalf("%s: %d point queries, want %d", mode, got, 16-viaTree)
		}
		if tree, point := counter(e, "engine_batch_tree_requests_total"), counter(e, "engine_batch_point_requests_total"); tree != viaTree || point != 16-viaTree {
			t.Fatalf("%s: %d via tree, %d via point query, want %d and %d", mode, tree, point, viaTree, 16-viaTree)
		}
	}
}
