package core

import (
	"errors"
	"math/rand"
	"testing"

	"lightpath/internal/graph"
	"lightpath/internal/topo"
	"lightpath/internal/wdm"
	"lightpath/internal/workload"
)

func paperNet(t *testing.T) *wdm.Network {
	t.Helper()
	nw, err := topo.PaperExample(topo.DefaultPaperExampleSpec())
	if err != nil {
		t.Fatalf("PaperExample: %v", err)
	}
	return nw
}

func lambdas(vals ...int) []wdm.Wavelength {
	// vals are the paper's 1-based λ indices.
	out := make([]wdm.Wavelength, len(vals))
	for i, v := range vals {
		out[i] = wdm.Wavelength(v - 1)
	}
	return out
}

// TestPaperExampleShores is experiment E1: the 14 Λ_in/Λ_out sets listed
// in Sec. III-A for the Fig. 1/Fig. 2 example must match exactly.
// Paper node i is our node i−1; paper λj is our Wavelength(j−1).
func TestPaperExampleShores(t *testing.T) {
	nw := paperNet(t)
	a, err := NewAux(nw)
	if err != nil {
		t.Fatalf("NewAux: %v", err)
	}
	wantIn := [][]wdm.Wavelength{
		lambdas(2, 3),       // Λ_in(G_M, 1)
		lambdas(1, 3),       // Λ_in(G_M, 2)
		lambdas(1, 2, 4),    // Λ_in(G_M, 3)
		lambdas(1, 2, 3, 4), // Λ_in(G_M, 4)
		lambdas(3),          // Λ_in(G_M, 5)
		lambdas(1, 3),       // Λ_in(G_M, 6)
		lambdas(1, 2, 3, 4), // Λ_in(G_M, 7)
	}
	wantOut := [][]wdm.Wavelength{
		lambdas(1, 2, 3, 4), // Λ_out(G_M, 1)
		lambdas(1, 2, 4),    // Λ_out(G_M, 2)
		lambdas(2, 3, 4),    // Λ_out(G_M, 3)
		lambdas(3),          // Λ_out(G_M, 4)
		lambdas(1, 2, 3, 4), // Λ_out(G_M, 5)
		lambdas(2, 3, 4),    // Λ_out(G_M, 6)
		{},                  // Λ_out(G_M, 7) = ∅
	}
	for v := 0; v < topo.PaperExampleNodes; v++ {
		if got := a.XShore(v); !sameLambdas(got, wantIn[v]) {
			t.Errorf("Λ_in(G_M,%d) = %v, want %v", v+1, got, wantIn[v])
		}
		if got := a.YShore(v); !sameLambdas(got, wantOut[v]) {
			t.Errorf("Λ_out(G_M,%d) = %v, want %v", v+1, got, wantOut[v])
		}
	}
}

func sameLambdas(a, b []wdm.Wavelength) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestPaperExampleGadgetNode3 verifies the Fig. 3 gadget G_3: shores
// X_3 = {λ1,λ2,λ4}, Y_3 = {λ2,λ3,λ4}, identity arcs of weight 0, and the
// forbidden λ2→λ3 conversion absent.
func TestPaperExampleGadgetNode3(t *testing.T) {
	nw := paperNet(t)
	a, err := NewAux(nw)
	if err != nil {
		t.Fatalf("NewAux: %v", err)
	}
	const node3 = 2 // paper node 3
	arcs := a.GadgetArcs(node3)
	// |X_3| × |Y_3| = 3×3 = 9 candidate pairs; identity pairs λ2→λ2 and
	// λ4→λ4 exist with weight 0; λ2→λ3 is forbidden; λ1 has no identity
	// partner (λ1 ∉ Y_3). Expected arcs: 9 − 1 (λ1→λ1 impossible, not a
	// candidate) − 1 (forbidden) = 8.
	if len(arcs) != 8 {
		t.Fatalf("G_3 has %d arcs, want 8: %+v", len(arcs), arcs)
	}
	seen := make(map[[2]wdm.Wavelength]float64)
	for _, c := range arcs {
		seen[[2]wdm.Wavelength{c.From, c.To}] = c.Cost
	}
	if c, ok := seen[[2]wdm.Wavelength{1, 1}]; !ok || c != 0 {
		t.Errorf("identity λ2→λ2 arc = (%v,%v), want (0,true)", c, ok)
	}
	if c, ok := seen[[2]wdm.Wavelength{3, 3}]; !ok || c != 0 {
		t.Errorf("identity λ4→λ4 arc = (%v,%v), want (0,true)", c, ok)
	}
	if _, ok := seen[[2]wdm.Wavelength{1, 2}]; ok {
		t.Error("forbidden conversion λ2→λ3 at node 3 must not appear in G_3")
	}
	if c := seen[[2]wdm.Wavelength{0, 1}]; c != 1 {
		t.Errorf("conversion λ1→λ2 cost = %v, want 1", c)
	}
}

// TestPaperExampleSizes verifies the Observation 1–2 size relations on
// the example and that |E_org| = |E_M| = Σ|Λ(e)|.
func TestPaperExampleSizes(t *testing.T) {
	nw := paperNet(t)
	a, err := NewAux(nw)
	if err != nil {
		t.Fatalf("NewAux: %v", err)
	}
	st := a.Stats()
	// Σ|Λ(e)| over the 11 links (with Λ(⟨2,7⟩) = {λ1,λ2}):
	// 2+3+2+2+2+2+1+2+2+2+3 = 23.
	if st.MultigraphArc != 23 {
		t.Errorf("|E_M| = %d, want 23", st.MultigraphArc)
	}
	if st.OrgArcs != 23 {
		t.Errorf("|E_org| = %d, want 23", st.OrgArcs)
	}
	// |V'| = Σ(|X_v|+|Y_v|) from the shore table: (2+4)+(2+3)+(3+3)+(4+1)+(1+4)+(2+3)+(4+0) = 36.
	if st.AuxNodes != 36 {
		t.Errorf("|V'| = %d, want 36", st.AuxNodes)
	}
	if err := st.CheckObservationBounds(); err != nil {
		t.Errorf("observation bounds: %v", err)
	}
}

// TestMultigraph verifies G_M (Fig. 2) as G' carries it: one link arc
// Y_u(λ) → X_v(λ) per channel (e, λ), so the arcs over the 7 physical
// nodes number Σ|Λ(e)|, parallel arcs stay distinct, and each arc's tag
// names the link whose channel it is.
func TestMultigraph(t *testing.T) {
	nw := paperNet(t)
	a, err := NewAux(nw)
	if err != nil {
		t.Fatalf("NewAux: %v", err)
	}
	nodes := make(map[int32]bool)
	arcs, par := 0, 0
	for u := 0; u < a.NumAuxNodes(); u++ {
		from := a.info[u]
		nodes[from.Node] = true
		for _, arc := range a.g.Out(u) {
			if arc.Tag == tagConversion {
				continue
			}
			arcs++
			to := a.info[arc.To]
			if from.Side != SideY || to.Side != SideX || from.Lambda != to.Lambda {
				t.Fatalf("link arc %v -> %v, want Y_u(λ) -> X_v(λ)", from, to)
			}
			l := nw.Link(int(arc.Tag))
			if int32(l.From) != from.Node || int32(l.To) != to.Node {
				t.Errorf("tag names link %d->%d, arc runs %d->%d", l.From, l.To, from.Node, to.Node)
			}
			if _, ok := l.Has(to.Lambda); !ok {
				t.Errorf("λ%d not available on link %d", to.Lambda, arc.Tag)
			}
			// Link ⟨1,4⟩ (our 0→3) has 3 wavelengths → 3 parallel arcs 0→3.
			if from.Node == 0 && to.Node == 3 {
				par++
			}
		}
	}
	if len(nodes) != 7 {
		t.Fatalf("|V_M| = %d, want 7", len(nodes))
	}
	if arcs != nw.TotalChannels() {
		t.Fatalf("|E_M| = %d, want %d", arcs, nw.TotalChannels())
	}
	if par != 3 {
		t.Fatalf("parallel 0→3 arcs = %d, want 3", par)
	}
}

func TestNewAuxNil(t *testing.T) {
	if _, err := NewAux(nil); !errors.Is(err, ErrNilNetwork) {
		t.Fatalf("NewAux(nil): %v", err)
	}
}

func TestRouteTrivialAndErrors(t *testing.T) {
	nw := paperNet(t)
	a, err := NewAux(nw)
	if err != nil {
		t.Fatal(err)
	}
	res, err := a.Route(3, 3, nil)
	if err != nil {
		t.Fatalf("s==t route: %v", err)
	}
	if res.Cost != 0 || res.Path.Len() != 0 {
		t.Fatalf("s==t result = %+v", res)
	}
	if _, err := a.Route(-1, 2, nil); !errors.Is(err, ErrNodeRange) {
		t.Fatalf("bad source: %v", err)
	}
	if _, err := a.Route(0, 99, nil); !errors.Is(err, ErrNodeRange) {
		t.Fatalf("bad dest: %v", err)
	}
	// Node 7 (our 6) has no outgoing links: routing FROM it must fail.
	if _, err := a.Route(6, 0, nil); !errors.Is(err, ErrNoRoute) {
		t.Fatalf("no-route case: %v", err)
	}
}

// TestRouteOnPaperExample routes 1→7 on the example and validates the
// returned semilightpath end to end.
func TestRouteOnPaperExample(t *testing.T) {
	nw := paperNet(t)
	res, err := FindSemilightpath(nw, 0, 6, nil)
	if err != nil {
		t.Fatalf("FindSemilightpath: %v", err)
	}
	if err := res.Path.Validate(nw, 0, 6); err != nil {
		t.Fatalf("returned path invalid: %v", err)
	}
	if got := res.Path.Cost(nw); got != res.Cost {
		t.Fatalf("reported cost %v != recomputed %v", res.Cost, got)
	}
	// Shortest possible is two hops (1→2→7): 2 links × weight 10 plus at
	// most one conversion of cost 1.
	if res.Cost < 20 || res.Cost > 21 {
		t.Fatalf("cost = %v, want within [20,21]", res.Cost)
	}
}

// TestRouteReusableAcrossQueries ensures the shared Aux answers many
// queries correctly despite re-wiring the super source.
func TestRouteReusableAcrossQueries(t *testing.T) {
	nw := paperNet(t)
	a, err := NewAux(nw)
	if err != nil {
		t.Fatal(err)
	}
	type qr struct{ s, t int }
	queries := []qr{{0, 6}, {4, 6}, {0, 6}, {3, 6}, {4, 0}, {0, 6}}
	first := make(map[qr]float64)
	for round := 0; round < 2; round++ {
		for _, q := range queries {
			res, err := a.Route(q.s, q.t, nil)
			if err != nil {
				t.Fatalf("route %v: %v", q, err)
			}
			if prev, ok := first[q]; ok && prev != res.Cost {
				t.Fatalf("query %v: cost changed across calls: %v then %v", q, prev, res.Cost)
			}
			first[q] = res.Cost
			if err := res.Path.Validate(nw, q.s, q.t); err != nil {
				t.Fatalf("query %v: invalid path: %v", q, err)
			}
		}
	}
}

// TestFig5Revisit is experiment E6(a): on the crafted instance the
// optimal semilightpath legitimately revisits a node, and the solver
// finds it (the paper's Figs. 5–6 behaviour).
func TestFig5Revisit(t *testing.T) {
	nw, s, dst, err := workload.RevisitInstance()
	if err != nil {
		t.Fatalf("RevisitInstance: %v", err)
	}
	res, err := FindSemilightpath(nw, s, dst, nil)
	if err != nil {
		t.Fatalf("route: %v", err)
	}
	if res.Cost != workload.RevisitOptimalCost {
		t.Fatalf("cost = %v, want %v", res.Cost, workload.RevisitOptimalCost)
	}
	if err := res.Path.Validate(nw, s, dst); err != nil {
		t.Fatalf("invalid path: %v", err)
	}
	if !res.Path.RevisitsNode(nw) {
		t.Fatal("optimal path should revisit node w")
	}
	convs := res.Path.Conversions(nw)
	if len(convs) != 2 {
		t.Fatalf("conversions = %+v, want 2", convs)
	}
}

// TestTheorem2LoopFree is experiment E6(b): under Restrictions 1+2 the
// optimum never revisits a node, across many random instances.
func TestTheorem2LoopFree(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 60; trial++ {
		tp := topo.RandomSparse(8+rng.Intn(20), 3, 5, rng)
		nw, err := workload.Build(tp, workload.RestrictedSpec(4), rng)
		if err != nil {
			t.Fatalf("Build: %v", err)
		}
		if !wdm.SatisfiesRestrictions(nw) {
			t.Fatal("RestrictedSpec instance must satisfy both restrictions")
		}
		a, err := NewAux(nw)
		if err != nil {
			t.Fatal(err)
		}
		s, dst := rng.Intn(tp.N), rng.Intn(tp.N)
		res, err := a.Route(s, dst, nil)
		if errors.Is(err, ErrNoRoute) {
			continue
		}
		if err != nil {
			t.Fatalf("route: %v", err)
		}
		if res.Path.Len() > 0 && res.Path.RevisitsNode(nw) {
			t.Fatalf("trial %d: optimum revisits a node despite restrictions: %s",
				trial, res.Path.String(nw))
		}
	}
}

// TestObservationBounds is experiment E8 as a unit test: measured
// construction sizes respect every proven bound across random instances.
func TestObservationBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 40; trial++ {
		tp := topo.RandomSparse(5+rng.Intn(30), 3, 6, rng)
		spec := workload.Spec{
			K:         1 + rng.Intn(8),
			AvailProb: 0.3 + rng.Float64()*0.6,
		}
		if rng.Intn(2) == 0 && spec.K > 2 {
			spec.K0 = 1 + rng.Intn(spec.K)
		}
		nw, err := workload.Build(tp, spec, rng)
		if err != nil {
			t.Fatalf("Build: %v", err)
		}
		a, err := NewAux(nw)
		if err != nil {
			t.Fatal(err)
		}
		if err := a.Stats().CheckObservationBounds(); err != nil {
			t.Fatalf("trial %d: %v (stats: %s)", trial, err, a.Stats())
		}
	}
}

func TestSearchStatsPopulated(t *testing.T) {
	nw := paperNet(t)
	res, err := FindSemilightpath(nw, 0, 6, nil)
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	if st.AuxNodes != 36+2 {
		t.Errorf("AuxNodes = %d, want 38", st.AuxNodes)
	}
	if st.Settled <= 0 || st.Relaxed <= 0 || st.AuxArcs <= 0 {
		t.Errorf("stats not populated: %+v", st)
	}
}

func TestNodeInfoRoundTrip(t *testing.T) {
	nw := paperNet(t)
	a, err := NewAux(nw)
	if err != nil {
		t.Fatal(err)
	}
	// Every aux node's identity must be consistent with its shore lists.
	counts := make(map[int32]int)
	for id := 0; id < a.NumAuxNodes(); id++ {
		info := a.info[id]
		counts[info.Node]++
		var shore []wdm.Wavelength
		if info.Side == SideX {
			shore = a.XShore(int(info.Node))
		} else {
			shore = a.YShore(int(info.Node))
		}
		found := false
		for _, l := range shore {
			if l == info.Lambda {
				found = true
			}
		}
		if !found {
			t.Fatalf("aux node %d (%+v) not in its shore %v", id, info, shore)
		}
	}
	for v := 0; v < nw.NumNodes(); v++ {
		want := len(a.XShore(v)) + len(a.YShore(v))
		if counts[int32(v)] != want {
			t.Fatalf("node %d has %d aux nodes, want %d", v, counts[int32(v)], want)
		}
	}
}

func TestBuildStatsString(t *testing.T) {
	nw := paperNet(t)
	a, err := NewAux(nw)
	if err != nil {
		t.Fatal(err)
	}
	s := a.Stats().String()
	if s == "" {
		t.Fatal("empty stats string")
	}
}

func TestDefaultOptions(t *testing.T) {
	var o *Options
	if o.queue() != graph.QueueBucket {
		t.Fatalf("nil options queue = %v", o.queue())
	}
	if q := (&Options{}).queue(); q != graph.QueueBucket {
		t.Fatalf("zero options queue = %v", q)
	}
	if q := (&Options{Queue: graph.QueueFibonacci}).queue(); q != graph.QueueFibonacci {
		t.Fatalf("explicit queue not honored: %v", q)
	}
}
