package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime/debug"
	"slices"
	"testing"
	"unsafe"

	"lightpath/internal/graph"
	"lightpath/internal/topo"
	"lightpath/internal/wdm"
	"lightpath/internal/workload"
)

// refCompile is the construction NewAuxWithLayout's counted pass
// replaced, kept as the reference it is pinned against: shores from
// Network.LambdaIn/LambdaOut, one AddArc per arc into per-node slices —
// gadget arcs by (v, x, y), then E_org by link and channel with
// wavelength positions binary-searched in the shore lists — and then
// every list copied, in node order, into one arena (compactRef, what
// Digraph.Compact did).
func refCompile(layout, residual *wdm.Network) (*Aux, error) {
	if err := checkSubNetwork(layout, residual); err != nil {
		return nil, err
	}
	n := layout.NumNodes()
	a := &Aux{
		nw:       residual,
		layout:   layout,
		xStart:   make([]int32, n),
		xLambdas: make([][]wdm.Wavelength, n),
		yStart:   make([]int32, n),
		yLambdas: make([][]wdm.Wavelength, n),
	}
	total, xShore := 0, 0
	for v := 0; v < n; v++ {
		a.xLambdas[v] = layout.LambdaIn(v)
		a.yLambdas[v] = layout.LambdaOut(v)
		a.xStart[v] = int32(total)
		total += len(a.xLambdas[v])
		xShore += len(a.xLambdas[v])
		a.yStart[v] = int32(total)
		total += len(a.yLambdas[v])
	}
	a.info = make([]AuxNode, total)
	a.yPass = make([]bool, total)
	for v := 0; v < n; v++ {
		for i, l := range a.xLambdas[v] {
			a.info[int(a.xStart[v])+i] = AuxNode{Node: int32(v), Lambda: l, Side: SideX}
		}
		for i, l := range a.yLambdas[v] {
			a.info[int(a.yStart[v])+i] = AuxNode{Node: int32(v), Lambda: l, Side: SideY}
			a.yPass[int(a.yStart[v])+i] = true
		}
	}
	g := graph.New(total)

	conv := layout.Converter()
	maxConv := 0.0
	for v := 0; v < n; v++ {
		for xi, p := range a.xLambdas[v] {
			x := int(a.xStart[v]) + xi
			for yi, q := range a.yLambdas[v] {
				y := int(a.yStart[v]) + yi
				var c float64
				switch {
				case p == q:
					c = 0
				case conv == nil:
					continue
				default:
					c = conv.Cost(v, p, q)
					if graph.Finite(c) {
						maxConv = max(maxConv, c)
					}
				}
				if err := g.AddArc(x, y, c, tagConversion); err != nil {
					return nil, fmt.Errorf("core: gadget arc at node %d: %w", v, err)
				}
			}
		}
	}
	gadgetArcs := g.NumArcs()
	minW, maxW := graph.Inf, 0.0
	for id := 0; id < layout.NumLinks(); id++ {
		for _, ch := range layout.Link(id).Channels {
			minW, maxW = min(minW, ch.Weight), max(maxW, ch.Weight)
		}
	}
	a.bucketWidth = graph.BucketWidth(minW, maxW+maxConv)
	a.treePays = max(2, (xShore+n-1)/max(n, 1))
	a.boundGrid = boundGrid(n, maxW)

	for _, l := range residual.Links() {
		for _, ch := range l.Channels {
			yID, ok := a.yIndex(l.From, ch.Lambda)
			if !ok {
				return nil, fmt.Errorf("core: internal: λ%d missing from Y_%d", ch.Lambda, l.From)
			}
			xID, ok := a.xIndex(l.To, ch.Lambda)
			if !ok {
				return nil, fmt.Errorf("core: internal: λ%d missing from X_%d", ch.Lambda, l.To)
			}
			if err := g.AddArc(yID, xID, ch.Weight, int32(l.ID)); err != nil {
				return nil, fmt.Errorf("core: E_org arc for link %d: %w", l.ID, err)
			}
		}
	}
	var err error
	if a.g, err = compactRef(g); err != nil {
		return nil, err
	}
	a.stats = BuildStats{
		Nodes:         residual.NumNodes(),
		Links:         residual.NumLinks(),
		K:             residual.K(),
		K0:            residual.MaxChannelsPerLink(),
		MaxDegree:     residual.MaxDegree(),
		AuxNodes:      total,
		GadgetArcs:    gadgetArcs,
		OrgArcs:       a.g.NumArcs() - gadgetArcs,
		MultigraphArc: residual.TotalChannels(),
	}
	return a, nil
}

// compactRef copies g's adjacency lists, in node order, into one arena.
func compactRef(g *graph.Digraph) (*graph.Digraph, error) {
	arena := make([]graph.Arc, 0, g.NumArcs())
	ends := make([]int32, g.NumNodes())
	for u := range ends {
		arena = append(arena, g.Out(u)...)
		ends[u] = int32(len(arena))
	}
	return graph.FromCSR(arena, ends)
}

// compileEqual asserts that got is want arc for arc (auxEqual) with the
// same shores, node identities, pass-through mask, layout constants and
// build statistics, and that both hold their arcs in one arena, segment
// after segment in node order, each at full capacity.
func compileEqual(t *testing.T, what string, got, want *Aux) {
	t.Helper()
	if err := AuxDiff(got, want); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	n := want.layout.NumNodes()
	for v := 0; v < n; v++ {
		if !slices.Equal(got.xLambdas[v], want.xLambdas[v]) || !slices.Equal(got.yLambdas[v], want.yLambdas[v]) {
			t.Fatalf("%s: node %d shores X %v Y %v, want X %v Y %v",
				what, v, got.xLambdas[v], got.yLambdas[v], want.xLambdas[v], want.yLambdas[v])
		}
	}
	switch {
	case !slices.Equal(got.xStart, want.xStart) || !slices.Equal(got.yStart, want.yStart):
		t.Fatalf("%s: shore starts differ", what)
	case !slices.Equal(got.info, want.info):
		t.Fatalf("%s: node identities differ", what)
	case !slices.Equal(got.yPass, want.yPass):
		t.Fatalf("%s: pass-through masks differ", what)
	case math.Float64bits(got.bucketWidth) != math.Float64bits(want.bucketWidth),
		got.treePays != want.treePays,
		math.Float64bits(got.boundGrid) != math.Float64bits(want.boundGrid):
		t.Fatalf("%s: layout constants (%v, %d, %v), want (%v, %d, %v)", what,
			got.bucketWidth, got.treePays, got.boundGrid, want.bucketWidth, want.treePays, want.boundGrid)
	case got.stats != want.stats:
		t.Fatalf("%s: stats %+v, want %+v", what, got.stats, want.stats)
	}
	for _, a := range []*Aux{got, want} {
		var next uintptr
		for u := 0; u < a.NumAuxNodes(); u++ {
			seg := a.g.Out(u)
			if cap(seg) != len(seg) {
				t.Fatalf("%s: node %d's segment has spare capacity %d", what, u, cap(seg)-len(seg))
			}
			if len(seg) == 0 {
				continue
			}
			at := uintptr(unsafe.Pointer(&seg[0]))
			if next != 0 && at != next {
				t.Fatalf("%s: node %d's segment does not follow the one before it", what, u)
			}
			next = at + uintptr(len(seg))*unsafe.Sizeof(seg[0])
		}
	}
}

// compileBoth compiles residual inside layout both ways and pins them
// equal; it returns the counted compile.
func compileBoth(t *testing.T, what string, layout, residual *wdm.Network) *Aux {
	t.Helper()
	got, err := NewAuxWithLayout(layout, residual)
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	want, err := refCompile(layout, residual)
	if err != nil {
		t.Fatalf("%s: reference: %v", what, err)
	}
	compileEqual(t, what, got, want)
	return got
}

// convSpecs is every conversion family the workload generator builds.
var convSpecs = []struct {
	name string
	spec workload.Spec
}{
	{"uniform", workload.Spec{K: 8, AvailProb: 0.6, Conv: workload.ConvUniform, ConvCost: 0.5}},
	{"distance", workload.Spec{K: 8, AvailProb: 0.6, Conv: workload.ConvDistance, ConvCost: 0.3, ConvRadius: 2}},
	{"none", workload.Spec{K: 8, AvailProb: 0.6, Conv: workload.ConvNone}},
	{"sparse", workload.Spec{K: 8, AvailProb: 0.6, Conv: workload.ConvSparseTable, ConvCost: 0.4, ConvProb: 0.3}},
}

// TestCompileMatchesReference pins the counted compile against the
// per-arc construction on the paper example, NSFNET and sparse n = 100
// and 300 under every conversion family and no converter at all; on a
// residual with a wavelength exhausted network-wide and a failed
// (channel-less) link, compiled inside its layout and as its own layout;
// and on the residual at the end of a 400-step delta chain.
func TestCompileMatchesReference(t *testing.T) {
	paper, err := topo.PaperExample(topo.DefaultPaperExampleSpec())
	if err != nil {
		t.Fatal(err)
	}
	compileBoth(t, "paper", paper, paper)

	for _, tc := range []struct {
		name string
		tp   func(rng *rand.Rand) *topo.Topology
	}{
		{"nsfnet", func(*rand.Rand) *topo.Topology { return topo.NSFNET() }},
		{"sparse100", func(rng *rand.Rand) *topo.Topology { return topo.RandomSparse(100, 4, 5, rng) }},
		{"sparse300", func(rng *rand.Rand) *topo.Topology { return topo.RandomSparse(300, 4, 5, rng) }},
	} {
		for ci, cs := range convSpecs {
			name := tc.name + "/" + cs.name
			rng := rand.New(rand.NewSource(int64(52 + ci)))
			nw, err := workload.Build(tc.tp(rng), cs.spec, rng)
			if err != nil {
				t.Fatal(err)
			}
			a := compileBoth(t, name, nw, nw)

			// λ0 exhausted everywhere, one link failed.
			changes := map[int][]wdm.Channel{}
			for id := 0; id < nw.NumLinks(); id++ {
				var free []wdm.Channel
				for _, ch := range nw.Link(id).Channels {
					if ch.Lambda != 0 {
						free = append(free, ch)
					}
				}
				changes[id] = free
			}
			changes[rng.Intn(nw.NumLinks())] = nil
			res, err := nw.PatchChannels(changes)
			if err != nil {
				t.Fatal(err)
			}
			compileBoth(t, name+"/exhausted", nw, res)
			compileBoth(t, name+"/exhausted-as-layout", res, res)

			if tc.name != "sparse300" {
				end := deepChain(t, a, rng, 400)
				compileBoth(t, name+"/chain-end", nw, end.Network())
			}
		}
	}

	nw, err := workload.Build(topo.NSFNET(), convSpecs[0].spec, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	bare, err := nw.PatchChannels(nil)
	if err != nil {
		t.Fatal(err)
	}
	bare.SetConverter(nil)
	compileBoth(t, "nsfnet/no-converter", bare, bare)
}

// TestCompileRejectsWhatAddArcRejected: a negative or NaN conversion cost
// is an error wrapping graph.ErrNegativeWeight, as it was when every
// gadget arc went through AddArc, and a +Inf cost leaves the arc out; a
// residual channel the layout's shores lack is an error.
func TestCompileRejectsWhatAddArcRejected(t *testing.T) {
	base, err := workload.Build(topo.NSFNET(), convSpecs[0].spec, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []float64{-1, math.NaN()} {
		nw, err := base.PatchChannels(nil)
		if err != nil {
			t.Fatal(err)
		}
		nw.SetConverter(wdm.ConverterFunc(func(v int, p, q wdm.Wavelength) float64 {
			if v == 5 && p < q {
				return bad
			}
			return 1
		}))
		for name, compile := range map[string]func(l, r *wdm.Network) (*Aux, error){
			"counted": NewAuxWithLayout, "reference": refCompile,
		} {
			if _, err := compile(nw, nw); !errors.Is(err, graph.ErrNegativeWeight) {
				t.Errorf("%s compile, conversion cost %v: err = %v, want ErrNegativeWeight", name, bad, err)
			}
		}
	}
	nw, err := base.PatchChannels(nil)
	if err != nil {
		t.Fatal(err)
	}
	nw.SetConverter(wdm.ConverterFunc(func(_ int, p, q wdm.Wavelength) float64 {
		if (p+q)%3 == 0 {
			return graph.Inf
		}
		return 0.25
	}))
	if a := compileBoth(t, "inf-costs", nw, nw); a.Stats().GadgetArcs >= compileBoth(t, "uniform", base, base).Stats().GadgetArcs {
		t.Errorf("+Inf conversion costs left %d gadget arcs, no fewer than full conversion", a.Stats().GadgetArcs)
	}

	// The full network compiled inside a layout with λ0 removed: every λ0
	// channel of the residual lacks its shore nodes.
	changes := map[int][]wdm.Channel{}
	for id := 0; id < base.NumLinks(); id++ {
		changes[id] = slices.DeleteFunc(slices.Clone(base.Link(id).Channels), func(ch wdm.Channel) bool { return ch.Lambda == 0 })
	}
	narrow, err := base.PatchChannels(changes)
	if err != nil {
		t.Fatal(err)
	}
	for name, compile := range map[string]func(l, r *wdm.Network) (*Aux, error){
		"counted": NewAuxWithLayout, "reference": refCompile,
	} {
		if _, err := compile(narrow, base); err == nil {
			t.Errorf("%s compile: a residual channel outside the layout shores compiled", name)
		}
	}
}

// TestCompileAllocationsIndependentOfSize: the counted compile allocates
// per structure, not per node — the same count at n = 100 and n = 1000.
func TestCompileAllocationsIndependentOfSize(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds allocations of its own")
	}
	// A collection cycle can allocate on the runtime's own account (about
	// one object per cycle, and n=1000 triggers a cycle most calls), so
	// the count is taken with the collector off.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var counts []float64
	for _, n := range []int{100, 1000} {
		rng := rand.New(rand.NewSource(int64(n)))
		nw, err := workload.Build(topo.RandomSparse(n, 4, 5, rng), workload.RestrictedSpec(8), rng)
		if err != nil {
			t.Fatal(err)
		}
		counts = append(counts, testing.AllocsPerRun(5, func() {
			if _, err := NewAuxWithLayout(nw, nw); err != nil {
				t.Fatal(err)
			}
		}))
	}
	if counts[0] != counts[1] {
		t.Fatalf("NewAuxWithLayout allocates %v times at n=100 and %v at n=1000", counts[0], counts[1])
	}
	if counts[0] > 80 {
		t.Fatalf("NewAuxWithLayout allocates %v times, want ≤ 80", counts[0])
	}
}
