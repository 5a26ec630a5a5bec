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
// row, off a SourceTree, by point query — and demands that the three
// sum to the requests.
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
// batch's ways of answering — a tree the cache holds, a tree the batch
// builds, point queries and, for BatchCosts, a resident cost row — on
// plain and astar engines across the fixture topologies × converter
// families. Every way must give the verdict and the cost, bit for bit, of
// the paper's point search; the cache and batch counters must reconcile;
// a source below the break-even must leave no tree behind and one at it
// exactly one; a row must be read without touching the trees.
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
					if rs := e.CostRowStats(); rs.Hits+rs.Misses != rs.Lookups {
						t.Fatalf("%s: cost rows: %d hits + %d misses != %d lookups", what, rs.Hits, rs.Misses, rs.Lookups)
					}
					batchSplit(t, what, e)
					return cs
				}

				// Point queries: the break-even counts requests per batch, so
				// one request per batch is below it under every mode.
				e := fresh(mode)
				for _, r := range at {
					sameAnswers(t, what+" point", ref, []Request{r}, e.RouteBatch([]Request{r}, 1))
				}
				if cs := reconciles(e); cs.Lookups != 0 || treePasses(e) != 0 {
					t.Fatalf("%s: point queries touched the cache: %+v, %d tree passes", what, cs, treePasses(e))
				}
				if got := counter(e, "engine_batch_point_requests_total"); got != uint64(len(at)) {
					t.Fatalf("%s: %d of %d requests by point query", what, got, len(at))
				}

				// Below the break-even: still point queries, no tree left behind.
				e = fresh(mode)
				sameAnswers(t, what+" below", ref, below, e.RouteBatch(below, 1))
				for _, s := range srcs {
					if e.Snapshot().TreeCached(s) {
						t.Fatalf("%s: %d requests from %d built a tree; the break-even is %d", what, pays-1, s, pays)
					}
				}
				if cs := reconciles(e); cs.Lookups != 0 || treePasses(e) != 0 {
					t.Fatalf("%s: below the break-even: %+v, %d tree passes", what, cs, treePasses(e))
				}

				// At the break-even: one tree per source, built once.
				e = fresh(mode)
				sameAnswers(t, what+" built", ref, at, e.RouteBatch(at, 1))
				for _, s := range srcs {
					if !e.Snapshot().TreeCached(s) {
						t.Fatalf("%s: %d requests from %d built no tree", what, pays, s)
					}
				}
				if cs := reconciles(e); cs.Misses != 3 || cs.Hits != uint64(len(at))-3 || treePasses(e) != 3 {
					t.Fatalf("%s: at the break-even: %+v, %d tree passes, want 3 misses among %d lookups", what, cs, treePasses(e), len(at))
				}
				if got := counter(e, "engine_batch_tree_requests_total"); got != uint64(len(at)) {
					t.Fatalf("%s: %d of %d requests via a tree", what, got, len(at))
				}

				// Resident: the same engine now answers from the cache whatever
				// a source's multiplicity — here below the break-even.
				before := reconciles(e)
				sameAnswers(t, what+" resident", ref, below, e.RouteBatch(below, 1))
				if cs := reconciles(e); cs.Misses != before.Misses || cs.Hits != before.Hits+uint64(len(below)) {
					t.Fatalf("%s: resident trees: %+v → %+v, want %d more hits and no miss", what, before, cs, len(below))
				}

				// Costs only: the resident trees again, no path extracted ...
				got := e.Snapshot().BatchCosts(below, 1)
				sameAnswers(t, what+" costs off trees", ref, below, got)
				for _, g := range got {
					if g.Result != nil {
						t.Fatalf("%s: BatchCosts extracted a path for %d->%d off a resident tree", what, g.From, g.To)
					}
				}
				if counter(e, "engine_batch_row_requests_total") != 0 || e.CostRowStats().Size != 0 {
					t.Fatalf("%s: a batch stored or read a cost row: %+v", what, e.CostRowStats())
				}
				// ... then, each source asked twice, its row — and no tree lookup.
				for _, s := range srcs {
					for ask := 0; ask < 2; ask++ {
						if _, err := e.CostsFrom(s); err != nil {
							t.Fatalf("%s: %v", what, err)
						}
					}
				}
				before = reconciles(e)
				sameAnswers(t, what+" rows", ref, at, e.Snapshot().BatchCosts(at, 1))
				if cs := reconciles(e); cs.Lookups != before.Lookups {
					t.Fatalf("%s: resident rows: tree cache %+v → %+v, want it untouched", what, before, cs)
				}
				if got := counter(e, "engine_batch_row_requests_total"); got != uint64(len(at)) {
					t.Fatalf("%s: %d of %d requests via a cost row", what, got, len(at))
				}
				// RouteBatch owes its callers paths: rows cannot serve it.
				sameAnswers(t, what+" paths beside rows", ref, at, e.RouteBatch(at, 1))
				if got := counter(e, "engine_batch_row_requests_total"); got != uint64(len(at)) {
					t.Fatalf("%s: RouteBatch read a cost row", what)
				}
			}
		}
	}
}

// TestRouteBatchWithoutCacheBuildsNoTrees pins the cache-disabled path:
// with nowhere to keep a tree, a batch that repeats its sources runs one
// point query per request and not one single-source pass per request.
func TestRouteBatchWithoutCacheBuildsNoTrees(t *testing.T) {
	nw := buildNet(t, topo.NSFNET(), 4, 1)
	rng := rand.New(rand.NewSource(16))
	var reqs []Request
	for i := 0; i < 16; i++ {
		reqs = append(reqs, Request{From: []int{0, 3, 7, 11}[rng.Intn(4)], To: rng.Intn(nw.NumNodes())})
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
		sameAnswers(t, mode.String(), ref, reqs, e.RouteBatch(reqs, 2))
		if got := treePasses(e); got != 0 {
			t.Fatalf("%s: %d single-source passes for a 16-pair batch with no cache to keep them in", mode, got)
		}
		if got := counter(e, "engine_routes_total"); got != 16 {
			t.Fatalf("%s: %d point queries, want 16", mode, got)
		}
		if tree, point := counter(e, "engine_batch_tree_requests_total"), counter(e, "engine_batch_point_requests_total"); tree != 0 || point != 16 {
			t.Fatalf("%s: %d via tree, %d via point query, want 0 and 16", mode, tree, point)
		}
	}
}
