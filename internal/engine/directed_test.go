package engine

import (
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"

	"lightpath/internal/core"
	"lightpath/internal/graph"
	"lightpath/internal/obs"
	"lightpath/internal/topo"
	"lightpath/internal/wdm"
	"lightpath/internal/workload"
)

func directedTestEngine(t *testing.T, directed core.DirectedMode) *Engine {
	t.Helper()
	nw, err := workload.Build(topo.NSFNET(), workload.Spec{
		K:         6,
		AvailProb: 0.7,
		Conv:      workload.ConvUniform,
		ConvCost:  0.3,
	}, rand.New(rand.NewSource(404)))
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(nw, &Options{Directed: directed})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestEngineDirectedModesAgree routes every pair on engines configured
// plain and astar over the same base network and demands identical
// blocked/served outcomes and costs — the engine-level differential.
func TestEngineDirectedModesAgree(t *testing.T) {
	plain := directedTestEngine(t, core.DirectedPlain)
	astar := directedTestEngine(t, core.DirectedAStar)
	if plain.Directed() != core.DirectedPlain || astar.Directed() != core.DirectedAStar {
		t.Fatal("Directed() accessor disagrees with configuration")
	}
	n := plain.Base().NumNodes()
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			if s == d {
				continue
			}
			rp, errP := plain.Route(s, d)
			ra, errA := astar.Route(s, d)
			if (errP == nil) != (errA == nil) {
				t.Fatalf("%d→%d: outcomes plain=%v astar=%v", s, d, errP, errA)
			}
			if errP != nil {
				continue
			}
			if math.Float64bits(rp.Cost) != math.Float64bits(ra.Cost) {
				t.Fatalf("%d→%d: costs plain=%v astar=%v", s, d, rp.Cost, ra.Cost)
			}
		}
	}
}

// TestNewRefusesUnknownMode: a mode that names no search fails New
// before the first publish — 2 was astar's number before the modes were
// renumbered, and would otherwise run as a silent plain search. So does a
// queue the engine does not serve on: an unknown kind would fail every
// later RouteFrom, and an ablation heap would build served trees without
// the pass-through mask.
func TestNewRefusesUnknownMode(t *testing.T) {
	base := directedTestEngine(t, core.DirectedPlain).Base()
	for _, mode := range []core.DirectedMode{2, 9} {
		e, err := New(base, &Options{Directed: mode})
		if err == nil || !strings.Contains(err.Error(), mode.String()) {
			t.Fatalf("mode %d: engine %v, error %v; want an error naming %s", uint8(mode), e, err, mode)
		}
	}
	for _, q := range []graph.QueueKind{graph.QueueFibonacci, graph.QueueLinear, 99} {
		e, err := New(base, &Options{Queue: q})
		if err == nil || !strings.Contains(err.Error(), q.String()) {
			t.Fatalf("queue %d: engine %v, error %v; want an error naming %s", int(q), e, err, q)
		}
	}
	for _, q := range []graph.QueueKind{0, graph.QueueBucket, graph.QueueBinary} {
		if _, err := New(base, &Options{Queue: q}); err != nil {
			t.Fatalf("serving queue %v refused: %v", q, err)
		}
	}
}

// TestGoalSettledCountsAStar: engine_goal_settled_total is the sum of
// Stats.Settled over an astar engine's point queries and stays 0 on a
// plain engine; route latency is one histogram, engine_route_latency_ns,
// whatever the mode.
func TestGoalSettledCountsAStar(t *testing.T) {
	for _, mode := range []core.DirectedMode{core.DirectedPlain, core.DirectedAStar} {
		e := directedTestEngine(t, mode)
		want := uint64(0)
		for d := 1; d < e.Base().NumNodes(); d++ {
			res, err := e.Route(0, d)
			if err != nil && !errors.Is(err, core.ErrNoRoute) {
				t.Fatal(err)
			}
			if res != nil && mode == core.DirectedAStar {
				want += uint64(res.Stats.Settled)
			}
		}
		snap := e.Metrics().Snapshot()
		if got := snap["engine_goal_settled_total"].(uint64); got != want {
			t.Fatalf("%v: engine_goal_settled_total = %d, want %d", mode, got, want)
		}
		if mode == core.DirectedAStar && want == 0 {
			t.Fatal("astar: no query settled anything")
		}
		if _, ok := snap["engine_directed_route_latency_ns"]; ok {
			t.Fatalf("%v: registry still has engine_directed_route_latency_ns", mode)
		}
		if _, ok := snap["engine_route_latency_ns"]; !ok {
			t.Fatalf("%v: registry has no engine_route_latency_ns", mode)
		}
	}
}

// TestAStarFollowsTheResidualAcrossEpochs drives the trap a cached
// per-link minimum falls into through the engine's own mutators: 0→3
// costs 2 over node 1 while (link 1, λ0) is free and 8 over node 2 while
// it is held. Holding it and releasing it again must move the astar
// engine's answer exactly as it moves the plain search on the same
// snapshots — delta-built, sharing one scratch pool — and cutting both
// routes must block with the physical cause, repairing one unblock.
func TestAStarFollowsTheResidualAcrossEpochs(t *testing.T) {
	nw := wdm.NewNetwork(4, 2)
	for _, l := range []struct {
		from, to int
		w0, w1   float64
	}{{0, 1, 1, 1}, {1, 3, 1, 10}, {0, 2, 4, 4}, {2, 3, 4, 4}} {
		if _, err := nw.AddLink(l.from, l.to, []wdm.Channel{{Lambda: 0, Weight: l.w0}, {Lambda: 1, Weight: l.w1}}); err != nil {
			t.Fatal(err)
		}
	}
	nw.SetConverter(wdm.UniformConversion{C: 0.5})
	e, err := New(nw, &Options{Directed: core.DirectedAStar})
	if err != nil {
		t.Fatal(err)
	}
	want := func(when string, cost float64) {
		t.Helper()
		snap := e.Snapshot()
		got, err := snap.Route(0, 3)
		if err != nil {
			t.Fatalf("%s: %v", when, err)
		}
		ref, err := snap.Aux().Route(0, 3, nil)
		if err != nil {
			t.Fatalf("%s: plain: %v", when, err)
		}
		if got.Cost != cost || ref.Cost != cost {
			t.Fatalf("%s: astar %v, plain %v, want %v", when, got.Cost, ref.Cost, cost)
		}
	}
	want("free", 2)
	if err := e.Allocate(1, &wdm.Semilightpath{Hops: []wdm.Hop{{Link: 1, Wavelength: 0}}}); err != nil {
		t.Fatal(err)
	}
	want("(1→3, λ0) held", 8)
	if err := e.Release(1); err != nil {
		t.Fatal(err)
	}
	want("released", 2)

	for _, link := range []int{1, 3} {
		if _, err := e.FailLink(link); err != nil {
			t.Fatal(err)
		}
	}
	req := obs.StartTrace("request")
	if _, err := e.Route(0, 3, req.Root()); !errors.Is(err, core.ErrNoRoute) {
		t.Fatalf("both last links failed: %v", err)
	}
	search := req.Span(core.SpanSearch)
	if c, _ := search.Attr(core.AttrBlockedCause); c.Str != core.CausePhysical {
		t.Fatalf("blocked_cause = %q, want %q", c.Str, core.CausePhysical)
	}
	if a, _ := search.Attr(core.AttrSettled); a.Int() != 0 {
		t.Fatalf("settled %d aux nodes on a physically cut pair", a.Int())
	}
	if err := e.RepairLink(3); err != nil {
		t.Fatal(err)
	}
	want("2→3 repaired", 8)
}
