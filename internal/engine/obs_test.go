package engine

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"lightpath/internal/core"
	"lightpath/internal/obs"
	"lightpath/internal/topo"
	"lightpath/internal/workload"
)

func obsTestEngine(t *testing.T, seed int64) *Engine {
	t.Helper()
	nw, err := workload.Build(topo.NSFNET(), workload.Spec{
		K:         6,
		AvailProb: 0.7,
		Conv:      workload.ConvUniform,
		ConvCost:  0.3,
	}, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(nw, &Options{CacheSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestBreakdownSumsToCost is the explain-correctness contract, stated on
// the two sources explain renders from. What the path costs comes from
// the path: the per-hop link weights plus conversion costs of
// Semilightpath.Breakdown must sum to exactly the route's reported cost
// (Eq. 1), and Aux.ConversionChoices must agree with the path's own
// conversions. What the search did comes from its spans: engine_route
// pins the epoch, core_search carries the same counters as Result.Stats
// and marks blocked queries. For every pair the network can route.
func TestBreakdownSumsToCost(t *testing.T) {
	e := obsTestEngine(t, 9)
	n := e.Base().NumNodes()
	snap := e.Snapshot()
	checked := 0
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			if s == d {
				continue
			}
			req := obs.StartTrace("request")
			res, err := snap.Route(s, d, req.Root())
			search := req.Span(core.SpanSearch)
			if search == nil {
				t.Fatalf("%d->%d: no core_search span", s, d)
			}
			if errors.Is(err, core.ErrNoRoute) {
				if a, ok := search.Attr(core.AttrBlocked); !ok || !a.Bool() {
					t.Fatalf("%d->%d: blocked route's core_search span not marked blocked", s, d)
				}
				continue
			}
			if err != nil {
				t.Fatalf("%d->%d: %v", s, d, err)
			}
			legs := res.Path.Breakdown(snap.Network())
			if len(legs) != res.Path.Len() {
				t.Fatalf("%d->%d: breakdown has %d legs, path %d hops", s, d, len(legs), res.Path.Len())
			}
			links, convs := 0.0, 0.0
			for _, leg := range legs {
				links += leg.LinkCost
				convs += leg.ConvCost
			}
			if sum := links + convs; math.Abs(sum-res.Cost) > 1e-9 {
				t.Fatalf("%d->%d: breakdown links %v + conversions %v = %v, route cost %v",
					s, d, links, convs, sum, res.Cost)
			}
			if last := legs[len(legs)-1]; math.Abs(last.Cumulative-res.Cost) > 1e-9 {
				t.Fatalf("%d->%d: last cumulative %v != cost %v", s, d, last.Cumulative, res.Cost)
			}
			if a, ok := search.Attr(core.AttrCost); !ok || a.Float() != res.Cost {
				t.Fatalf("%d->%d: core_search cost attr %+v != result cost %v", s, d, a, res.Cost)
			}
			taken, available := snap.Aux().ConversionChoices(res.Path)
			if got := len(res.Path.Conversions(e.Base())); got != taken {
				t.Fatalf("%d->%d: ConversionChoices counts %d conversions, path has %d", s, d, taken, got)
			}
			if available < taken {
				t.Fatalf("%d->%d: %d conversions taken but only %d available", s, d, taken, available)
			}
			st := res.Stats
			if st.Settled <= 0 || st.Relaxed <= 0 || st.AuxNodes <= 0 || st.AuxArcs <= 0 {
				t.Fatalf("%d->%d: search anatomy not recorded: %+v", s, d, st)
			}
			for key, want := range map[string]int{
				core.AttrAuxNodes: st.AuxNodes, core.AttrAuxArcs: st.AuxArcs,
				core.AttrSettled: st.Settled, core.AttrRelaxed: st.Relaxed,
			} {
				if a, ok := search.Attr(key); !ok || a.Int() != int64(want) {
					t.Fatalf("%d->%d: core_search %s = %+v, Result.Stats says %d", s, d, key, a, want)
				}
			}
			if a, ok := req.Span(SpanRoute).Attr(AttrEpoch); !ok || uint64(a.Int()) != e.Epoch() {
				t.Fatalf("%d->%d: engine_route pinned epoch %+v, engine at %d", s, d, a, e.Epoch())
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no routable pairs checked")
	}
}

// TestMetricsCountersTrackWork: the registry's hot-path counters and
// histograms must reconcile with the work actually submitted.
func TestMetricsCountersTrackWork(t *testing.T) {
	e := obsTestEngine(t, 11)
	reg := e.Metrics()

	const routes = 20
	blocked := 0
	for i := 0; i < routes; i++ {
		if _, err := e.Route(i%14, (i+3)%14); errors.Is(err, core.ErrNoRoute) {
			blocked++
		} else if err != nil {
			t.Fatal(err)
		}
	}
	snap := reg.Snapshot()
	if got := snap["engine_routes_total"].(uint64); got != routes {
		t.Fatalf("engine_routes_total = %d, want %d", got, routes)
	}
	if got := snap["engine_routes_blocked_total"].(uint64); got != uint64(blocked) {
		t.Fatalf("engine_routes_blocked_total = %d, want %d", got, blocked)
	}
	if hist := e.metrics.routeLatency.Count(); hist != routes {
		t.Fatalf("route latency histogram has %d observations, want %d", hist, routes)
	}

	// A batch: requests counter rises by the batch size, in-flight
	// drains back to zero.
	reqs := []Request{{0, 9}, {0, 13}, {5, 2}, {7, 11}}
	e.RouteBatch(reqs, 2)
	snap = reg.Snapshot()
	if got := snap["engine_batch_requests_total"].(uint64); got != uint64(len(reqs)) {
		t.Fatalf("engine_batch_requests_total = %d, want %d", got, len(reqs))
	}
	if got := snap["engine_batch_inflight"].(int64); got != 0 {
		t.Fatalf("engine_batch_inflight = %d after batch drained, want 0", got)
	}
	// How they were answered: source 0, named twice, through a tree (the
	// plain break-even); 5 and 7 by point query; none off a cost row,
	// which cannot give RouteBatch its paths. The three always sum to the
	// requests.
	row, tree, point := snap["engine_batch_row_requests_total"].(uint64),
		snap["engine_batch_tree_requests_total"].(uint64), snap["engine_batch_point_requests_total"].(uint64)
	if row != 0 || tree != 2 || point != 2 || row+tree+point != snap["engine_batch_requests_total"].(uint64) {
		t.Fatalf("batch split: %d via row + %d via tree + %d via point query, want 0 + 2 + 2 = engine_batch_requests_total", row, tree, point)
	}

	// Mutations: epoch gauge and rebuild histogram move together.
	if _, err := e.RouteAndAllocate(1, 0, 9); err != nil {
		t.Fatal(err)
	}
	if err := e.Release(1); err != nil {
		t.Fatal(err)
	}
	snap = reg.Snapshot()
	if got := snap["engine_epoch"].(float64); got != float64(e.Epoch()) {
		t.Fatalf("engine_epoch gauge = %v, engine at %d", got, e.Epoch())
	}
	// Every publish lands on exactly one of the two latency histograms:
	// full compiles on engine_rebuild_latency_ns, incremental applies on
	// engine_delta_latency_ns. Together they reconcile with the epoch.
	full, delta := e.metrics.rebuildLatency.Count(), e.metrics.deltaLatency.Count()
	if full+delta != uint64(e.Epoch())+1 {
		t.Fatalf("rebuild(%d) + delta(%d) histogram observations, want epoch %d + 1", full, delta, e.Epoch())
	}
	// The epoch-0 compile is always full; the allocate/release churn
	// above is delta-expressible and must have taken the fast path.
	if full < 1 {
		t.Fatalf("rebuild histogram has %d observations, want the epoch-0 compile", full)
	}
	if delta != uint64(e.Epoch()) {
		t.Fatalf("delta histogram has %d observations, want %d (one per mutation)", delta, e.Epoch())
	}
	if got := snap["engine_allocations_total"].(float64); got != 1 {
		t.Fatalf("engine_allocations_total = %v, want 1", got)
	}

	// Per-wavelength gauges exist for every installed color and are all
	// zero with nothing held.
	for lam := 0; lam < e.Base().K(); lam++ {
		name := "wavelength_" + string(rune('0'+lam)) + "_held"
		v, ok := snap[name]
		if !ok {
			t.Fatalf("registry missing %s", name)
		}
		if v.(float64) != 0 {
			t.Fatalf("%s = %v with nothing held", name, v)
		}
	}
}

// TestPerWavelengthUtilizationGauges: holding a path moves exactly the
// gauges of the wavelengths it uses.
func TestPerWavelengthUtilizationGauges(t *testing.T) {
	e := obsTestEngine(t, 12)
	res, err := e.RouteAndAllocate(1, 0, 9)
	if err != nil {
		t.Fatal(err)
	}
	perLam := make(map[int]int)
	for _, h := range res.Path.Hops {
		perLam[int(h.Wavelength)]++
	}
	for lam := 0; lam < e.Base().K(); lam++ {
		if got := e.heldOnWavelength(lam); got != perLam[lam] {
			t.Fatalf("λ%d: gauge %d, path holds %d", lam, got, perLam[lam])
		}
	}
}

// TestRouteAndAllocateRecordsAttempts: a clean first-try allocation
// records exactly one engine_allocate span, carrying attempt 0, and no
// retry counter motion.
func TestRouteAndAllocateRecordsAttempts(t *testing.T) {
	e := obsTestEngine(t, 13)
	req := obs.StartTrace("request")
	if _, err := e.RouteAndAllocate(1, 0, 9, req.Root()); err != nil {
		t.Fatal(err)
	}
	attempts := 0
	for _, sp := range req.Spans() {
		if sp.Name != SpanAllocate {
			continue
		}
		attempts++
		if a, ok := sp.Attr(AttrAttempt); !ok || a.Int() != 0 {
			t.Fatalf("engine_allocate attempt attr = %+v ok=%v, want 0", a, ok)
		}
	}
	if attempts != 1 {
		t.Fatalf("recorded %d engine_allocate spans, want 1", attempts)
	}
	if got := e.Metrics().Snapshot()["engine_alloc_retries_total"].(uint64); got != 0 {
		t.Fatalf("engine_alloc_retries_total = %d on a conflict-free allocate", got)
	}
}

// TestBoundRowCounters is the bound rows' admission rule read off the
// registry: under astar a destination's first ask at an epoch runs the
// pass and keeps nothing, its second builds the one row, every later one
// reads it, whatever the source — and a new epoch starts over. hits ≤
// lookups and builds ≤ lookups − hits always. An engine that keeps no
// rows (plain search, cache disabled) never looks one up.
func TestBoundRowCounters(t *testing.T) {
	base := obsTestEngine(t, 13).Base()
	e, err := New(base, &Options{Directed: core.DirectedAStar})
	if err != nil {
		t.Fatal(err)
	}
	if st := e.BoundRowStats(); st.Capacity != DefaultCacheSize*e.Snapshot().Aux().TreePays(core.DirectedAStar) {
		t.Fatalf("row capacity %d, want CacheSize × TreePays = %d × %d", st.Capacity,
			DefaultCacheSize, e.Snapshot().Aux().TreePays(core.DirectedAStar))
	}
	counters := func(e *Engine) (lookups, hits, builds uint64) {
		snap := e.Metrics().Snapshot()
		lookups, hits = uint64(snap["engine_bound_row_lookups_total"].(float64)), uint64(snap["engine_bound_row_hits_total"].(float64))
		builds = snap["engine_bound_row_builds_total"].(uint64)
		if hits > lookups || builds > lookups-hits {
			t.Fatalf("bound rows: %d lookups, %d hits, %d builds", lookups, hits, builds)
		}
		return lookups, hits, builds
	}
	ask := func(src int, wantRow string, wantLookups, wantHits, wantBuilds uint64) {
		t.Helper()
		req := obs.StartTrace("request")
		if _, err := e.Route(src, 9, req.Root()); err != nil {
			t.Fatal(err)
		}
		if row, _ := req.Span(core.SpanSearch).Attr(core.AttrBoundRow); row.Str != wantRow {
			t.Fatalf("%d→9: bound_row = %q, want %q", src, row.Str, wantRow)
		}
		if l, h, b := counters(e); l != wantLookups || h != wantHits || b != wantBuilds {
			t.Fatalf("%d→9: %d lookups, %d hits, %d builds; want %d, %d, %d", src, l, h, b, wantLookups, wantHits, wantBuilds)
		}
	}
	ask(0, core.BoundRowAbsent, 1, 0, 0)
	ask(3, core.BoundRowBuilt, 2, 0, 1)
	ask(5, core.BoundRowHit, 3, 1, 1)
	ask(0, core.BoundRowHit, 4, 2, 1)
	if _, err := e.RouteAndAllocate(1, 2, 9); err != nil { // a hit, then epoch 1
		t.Fatal(err)
	}
	ask(0, core.BoundRowAbsent, 6, 3, 1)
	ask(0, core.BoundRowBuilt, 7, 3, 2)
	ask(3, core.BoundRowHit, 8, 4, 2)

	for name, opts := range map[string]*Options{
		"plain":     {Directed: core.DirectedPlain},
		"-cache -1": {Directed: core.DirectedAStar, CacheSize: -1},
	} {
		e, err := New(base, opts)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			if _, err := e.Route(0, 9); err != nil {
				t.Fatal(err)
			}
		}
		if l, h, b := counters(e); l != 0 || h != 0 || b != 0 || e.BoundRowStats() != (CacheStats{}) {
			t.Fatalf("%s: %d lookups, %d hits, %d builds, stats %+v; want none", name, l, h, b, e.BoundRowStats())
		}
	}
}
