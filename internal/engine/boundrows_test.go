package engine

import (
	"errors"
	"math"
	"math/rand"
	"sync"
	"testing"

	"lightpath/internal/core"
)

// TestBoundRowsUnderChurn is mid_churn's shape in process: a 250-Erlang
// writer with a reader routing one seeded pair per slot. Every mutation
// publishes an epoch, so a destination all but never recurs inside one
// and the rows must stay out of the way: at most one built per hundred
// routes (a blocked arrival publishes nothing, and now and then the
// reader's destination repeats before the next one that does), and every
// reply the plain search's on the snapshot it was routed on.
func TestBoundRowsUnderChurn(t *testing.T) {
	c := steadyChurn(t, sparseNet(t, 100))
	n := c.e.Base().NumNodes()
	before := c.e.Metrics().Snapshot()["engine_routes_total"].(uint64)
	built0 := c.e.metrics.boundRowBuilds.Value()
	rng := rand.New(rand.NewSource(22))
	for slot := 0; slot < 1500; slot++ {
		c.step(t)
		s, d := rng.Intn(n), rng.Intn(n)
		if s == d {
			continue
		}
		snap := c.e.Snapshot()
		got, errG := snap.Route(s, d)
		want, errW := snap.Aux().Route(s, d, nil)
		if (errG == nil) != (errW == nil) || errG == nil && math.Float64bits(got.Cost) != math.Float64bits(want.Cost) {
			t.Fatalf("slot %d epoch %d %d→%d: astar %v (%v), plain %v (%v)", slot, snap.Epoch(), s, d, got, errG, want, errW)
		}
	}
	routes := c.e.Metrics().Snapshot()["engine_routes_total"].(uint64) - before
	built := c.e.metrics.boundRowBuilds.Value() - built0
	t.Logf("%d routes over %d epochs built %d rows", routes, c.e.Epoch(), built)
	if built*100 > routes {
		t.Fatalf("%d rows built for %d routes under churn, want ≤ 1 per 100", built, routes)
	}
}

// TestBoundRowRouteAllocations: lending rows costs a route no allocation.
// Against an engine that keeps none (-cache -1: the Result, its path, the
// hops), a route allocates no more on a destination's first ask, where
// the pass runs in pooled scratch and nothing is stored, nor on a hit;
// only the one ask that builds a row allocates it. Best of several short
// runs, as TestAStarAllocatesNoMoreThanPlain.
func TestBoundRowRouteAllocations(t *testing.T) {
	nw := sparseNet(t, 100)
	n := nw.NumNodes()
	engine := func(cacheSize int) *Engine {
		e, err := New(nw, &Options{Directed: core.DirectedAStar, CacheSize: cacheSize})
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	// 16 rounds × 5 calls walk destinations 1…80 once each.
	measure := func(e *Engine) float64 {
		snap := e.Snapshot()
		best, d := math.Inf(1), 0
		for round := 0; round < 16; round++ {
			best = math.Min(best, testing.AllocsPerRun(4, func() {
				d = 1 + d%(n-1)
				if _, err := snap.Route(0, d); err != nil && !errors.Is(err, core.ErrNoRoute) {
					t.Fatal(err)
				}
			}))
		}
		return best
	}
	want := measure(engine(-1))
	first := engine(0)
	if got := measure(first); got > want {
		t.Errorf("first-ask route allocates %v objects, %v without rows", got, want)
	}
	if st := first.BoundRowStats(); st.Lookups == 0 || st.Hits != 0 || st.Size != 0 {
		t.Fatalf("the measured routes were not all first asks: %+v", st)
	}
	warm := engine(0)
	for ask := 0; ask < 2; ask++ {
		for d := 1; d < n; d++ {
			if _, err := warm.Route(0, d); err != nil && !errors.Is(err, core.ErrNoRoute) {
				t.Fatal(err)
			}
		}
	}
	before := warm.BoundRowStats()
	if got := measure(warm); got > want {
		t.Errorf("row-hit route allocates %v objects, %v without rows", got, want)
	}
	if st := warm.BoundRowStats(); st.Size != n-1 || st.Hits-before.Hits != st.Lookups-before.Lookups {
		t.Fatalf("the measured routes were not all row hits: %+v after %+v", st, before)
	}
}

// TestBoundRowsRace: readers hammer a few destinations — so rows are
// admitted, built, stored and hit concurrently — while a writer keeps
// publishing epochs under them. Run under -race it checks the row cache,
// the admission words and the immutability of a stored row; the
// assertions check that a reader pinned to an epoch is never served
// another epoch's row: every cost is the plain search's on the pinned
// snapshot, bit for bit.
func TestBoundRowsRace(t *testing.T) {
	const readers, rounds = 6, 150
	c := steadyChurn(t, sparseNet(t, 100))
	n := c.e.Base().NumNodes()
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < rounds; i++ {
				snap := c.e.Snapshot()
				d := 7 * (i % 3) // three destinations, every reader in step
				for ask := 0; ask < 3; ask++ {
					s := rng.Intn(n)
					if s == d {
						continue
					}
					got, errG := snap.Route(s, d)
					want, errW := snap.Aux().Route(s, d, nil)
					if (errG == nil) != (errW == nil) || errG == nil && math.Float64bits(got.Cost) != math.Float64bits(want.Cost) {
						t.Errorf("epoch %d %d→%d: astar %v (%v), plain %v (%v)", snap.Epoch(), s, d, got, errG, want, errW)
						return
					}
				}
			}
		}(int64(100 + r))
	}
	for slot := 0; slot < 200; slot++ {
		c.step(t)
	}
	wg.Wait()
	st := c.e.BoundRowStats()
	t.Logf("rows: %+v, %d built", st, c.e.metrics.boundRowBuilds.Value())
	if st.Hits == 0 {
		t.Fatal("no reader ever hit a row: the test raced nothing")
	}
}

// TestBoundRowsAtStableEpoch is big_read's shape in process and where its
// saving sits, in counts: 15 000 seeded routes on the 300-node sparse
// network at one epoch, on an engine that keeps rows and on one that does
// not (-cache -1). The auxiliary search must be the same search — settled
// nodes equal to the digit, every cost equal to the bit — while the
// physical pops per route fall from the truncated pass's ≈ 176 to under
// 10 (each of 300 destinations pays one truncated and one complete pass,
// then nothing) and more than nine lookups in ten are hits.
func TestBoundRowsAtStableEpoch(t *testing.T) {
	nw := sparseNet(t, 300)
	n := nw.NumNodes()
	const routes = 15000
	run := func(cacheSize int) (e *Engine, settled, physPops int, costs []float64) {
		e, err := New(nw, &Options{Directed: core.DirectedAStar, CacheSize: cacheSize})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(3))
		for i := 0; i < routes; i++ {
			s, d := rng.Intn(n), rng.Intn(n)
			res, err := e.Route(s, d)
			if errors.Is(err, core.ErrNoRoute) {
				costs = append(costs, math.Inf(1))
				continue
			}
			if err != nil {
				t.Fatal(err)
			}
			settled += res.Stats.Settled
			physPops += res.Stats.PhysPops
			costs = append(costs, res.Cost)
		}
		return e, settled, physPops, costs
	}
	_, settled0, pops0, costs0 := run(-1)
	e, settled, pops, costs := run(0)
	for i := range costs {
		if math.Float64bits(costs[i]) != math.Float64bits(costs0[i]) {
			t.Fatalf("route %d: cost %v with rows, %v without", i, costs[i], costs0[i])
		}
	}
	st := e.BoundRowStats()
	t.Logf("per route: settled %.2f → %.2f, phys_pops %.1f → %.1f; rows %d lookups, hit rate %.3f, %d built",
		float64(settled0)/routes, float64(settled)/routes, float64(pops0)/routes, float64(pops)/routes,
		st.Lookups, st.HitRate(), e.metrics.boundRowBuilds.Value())
	if settled != settled0 {
		t.Errorf("settled %d auxiliary nodes with rows, %d without: the rows changed the search", settled, settled0)
	}
	if pops0 < 100*routes || pops >= 10*routes {
		t.Errorf("phys_pops per route %.1f without rows (want > 100), %.1f with (want < 10)", float64(pops0)/routes, float64(pops)/routes)
	}
	if st.HitRate() <= 0.9 {
		t.Errorf("row hit rate %.3f over %d lookups, want > 0.9", st.HitRate(), st.Lookups)
	}
}
