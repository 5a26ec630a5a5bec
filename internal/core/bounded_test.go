package core

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"lightpath/internal/graph"
	"lightpath/internal/obs"
	"lightpath/internal/topo"
	"lightpath/internal/wdm"
	"lightpath/internal/workload"
)

// detourNet: the direct hop 0→2 is expensive; a cheap 2-hop detour via 1
// exists. Bounding hops to 1 must force the expensive direct link.
func detourNet(t *testing.T) *wdm.Network {
	t.Helper()
	nw := wdm.NewNetwork(3, 1)
	mustAdd := func(u, v int, w float64) {
		if _, err := nw.AddLink(u, v, []wdm.Channel{{Lambda: 0, Weight: w}}); err != nil {
			t.Fatal(err)
		}
	}
	mustAdd(0, 2, 10) // direct
	mustAdd(0, 1, 1)  // detour
	mustAdd(1, 2, 1)
	return nw
}

func TestRouteBoundedForcesDirectHop(t *testing.T) {
	nw := detourNet(t)
	a, err := NewAux(nw)
	if err != nil {
		t.Fatal(err)
	}
	// Unbounded-ish: the 2-hop detour wins.
	loose, err := a.RouteBounded(0, 2, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	if loose.Cost != 2 || loose.Path.Len() != 2 {
		t.Fatalf("loose = cost %v, %d hops; want 2, 2", loose.Cost, loose.Path.Len())
	}
	// Tight: only the direct link fits.
	tight, err := a.RouteBounded(0, 2, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if tight.Cost != 10 || tight.Path.Len() != 1 {
		t.Fatalf("tight = cost %v, %d hops; want 10, 1", tight.Cost, tight.Path.Len())
	}
	if err := tight.Path.Validate(nw, 0, 2); err != nil {
		t.Fatalf("tight path invalid: %v", err)
	}
	// Too tight: no route at all.
	if _, err := a.RouteBounded(0, 2, 0, nil); !errors.Is(err, ErrNoRoute) {
		t.Fatalf("zero hops: %v", err)
	}
}

func TestRouteBoundedArgs(t *testing.T) {
	nw := detourNet(t)
	a, err := NewAux(nw)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.RouteBounded(-1, 0, 3, nil); !errors.Is(err, ErrNodeRange) {
		t.Fatalf("bad source: %v", err)
	}
	if _, err := a.RouteBounded(0, 9, 3, nil); !errors.Is(err, ErrNodeRange) {
		t.Fatalf("bad dest: %v", err)
	}
	if _, err := a.RouteBounded(0, 2, -1, nil); err == nil {
		t.Fatal("negative bound must fail")
	}
	res, err := a.RouteBounded(1, 1, 0, nil)
	if err != nil || res.Cost != 0 || res.Path.Len() != 0 {
		t.Fatalf("trivial: %+v %v", res, err)
	}
}

// TestRouteBoundedMatchesRouteWhenLoose: with a generous bound the DP
// equals Dijkstra on random instances (including conversion costs).
func TestRouteBoundedMatchesRouteWhenLoose(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 30; trial++ {
		tp := topo.RandomSparse(6+rng.Intn(12), 3, 5, rng)
		spec := workload.Spec{
			K:         1 + rng.Intn(4),
			AvailProb: 0.4 + 0.4*rng.Float64(),
			Conv:      workload.ConvSparseTable,
			ConvCost:  0.3,
			ConvProb:  0.6,
		}
		nw, err := workload.Build(tp, spec, rng)
		if err != nil {
			t.Fatal(err)
		}
		a, err := NewAux(nw)
		if err != nil {
			t.Fatal(err)
		}
		s, d := rng.Intn(tp.N), rng.Intn(tp.N)
		if s == d {
			continue
		}
		free, freeErr := a.Route(s, d, nil)
		bounded, boundErr := a.RouteBounded(s, d, nw.TotalChannels()+1, nil)
		if (freeErr == nil) != (boundErr == nil) {
			t.Fatalf("trial %d (%d->%d): reachability disagrees: %v vs %v",
				trial, s, d, freeErr, boundErr)
		}
		if freeErr != nil {
			continue
		}
		if math.Abs(free.Cost-bounded.Cost) > 1e-9 {
			t.Fatalf("trial %d (%d->%d): bounded %v != free %v", trial, s, d, bounded.Cost, free.Cost)
		}
		if err := bounded.Path.Validate(nw, s, d); err != nil {
			t.Fatalf("trial %d: bounded path invalid: %v", trial, err)
		}
		if got := bounded.Path.Cost(nw); math.Abs(got-bounded.Cost) > 1e-9 {
			t.Fatalf("trial %d: reported %v, recomputed %v", trial, bounded.Cost, got)
		}
	}
}

// TestRouteBoundedHonorsOptions: the DP reports its work counters
// through Result.Stats, and a blocked query is ErrNoRoute. It records no
// span under Options.Span — nothing reads one: wdmroute -max-hops, its
// caller, has no tracer — while a bound loose enough to delegate records
// Route's core_search.
func TestRouteBoundedHonorsOptions(t *testing.T) {
	nw := detourNet(t)
	a, err := NewAux(nw)
	if err != nil {
		t.Fatal(err)
	}
	tracer := obs.NewTracer(nil)
	tracer.SetSlowThreshold(-1)
	req := tracer.Start("request")
	res, err := a.RouteBounded(0, 2, 2, &Options{Span: req.Root()})
	if err != nil {
		t.Fatal(err)
	}
	tracer.Finish(req)
	req = tracer.Recent(1)[0] // what was retained
	if res.Source != 0 || res.Dest != 2 {
		t.Fatalf("result endpoints = %d→%d, want 0→2", res.Source, res.Dest)
	}
	st := res.Stats
	if st.Settled <= 0 || st.Relaxed <= 0 || st.AuxNodes <= 0 || st.AuxArcs <= 0 {
		t.Fatalf("result stats unfilled: %+v", st)
	}
	if legs := res.Path.Breakdown(nw); len(legs) == 0 || legs[len(legs)-1].Cumulative != res.Cost {
		t.Fatalf("breakdown %+v does not sum to cost %v", legs, res.Cost)
	}
	if n := len(req.Spans()); n != 1 {
		t.Errorf("the DP recorded %d spans under the request root, want none", n-1)
	}
	if _, err := a.RouteBounded(0, 2, 0, nil); !errors.Is(err, ErrNoRoute) {
		t.Fatalf("zero hops: %v", err)
	}
}

// TestRouteBoundedDelegatesWhenBoundCannotBind: a bound of at least the
// aux node count provably cannot exclude the optimum, so the query
// delegates to Route — honoring queue kind and directed mode, opening a
// core_search span, and returning the exact unbounded answer.
func TestRouteBoundedDelegatesWhenBoundCannotBind(t *testing.T) {
	nw := detourNet(t)
	a, err := NewAux(nw)
	if err != nil {
		t.Fatal(err)
	}
	free, err := a.Route(0, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	tracer := obs.NewTracer(nil)
	tracer.SetSlowThreshold(-1)
	req := tracer.Start("request")
	res, err := a.RouteBounded(0, 2, a.NumAuxNodes(), &Options{
		Queue:    graph.QueueBinary,
		Directed: DirectedAStar,
		Span:     req.Root(),
	})
	if err != nil {
		t.Fatal(err)
	}
	tracer.Finish(req)
	req = tracer.Recent(1)[0] // what was retained
	if res.Cost != free.Cost {
		t.Fatalf("delegated cost %v, Route %v", res.Cost, free.Cost)
	}
	cs := req.Span("core_search")
	if cs == nil {
		t.Fatal("delegation should produce a core_search span")
	}
	if _, ok := cs.Attr(AttrPhysPops); !ok {
		t.Error("no phys_pops on the delegated core_search: the astar option was not honored")
	}
}

// TestRouteBoundedMonotoneInBound: loosening the bound never increases
// the optimal cost, and the hop count respects the bound.
func TestRouteBoundedMonotoneInBound(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	tp := topo.Grid(4, 4)
	nw, err := workload.Build(tp, workload.RestrictedSpec(3), rng)
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewAux(nw)
	if err != nil {
		t.Fatal(err)
	}
	prev := math.Inf(1)
	for bound := 1; bound <= 10; bound++ {
		res, err := a.RouteBounded(0, 15, bound, nil)
		if errors.Is(err, ErrNoRoute) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		if res.Path.Len() > bound {
			t.Fatalf("bound %d: path uses %d hops", bound, res.Path.Len())
		}
		if res.Cost > prev+1e-9 {
			t.Fatalf("bound %d: cost %v increased from %v", bound, res.Cost, prev)
		}
		prev = res.Cost
	}
	if math.IsInf(prev, 1) {
		t.Fatal("corner-to-corner should be reachable within 10 hops")
	}
}
