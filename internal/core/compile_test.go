package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
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

// kSweepNetwork is E4's shape at n nodes and wavelength count k: sparse,
// degree 4–5, four distinct random wavelengths per link, uniform
// conversion (E4 itself is n=400). It draws the channels itself rather
// than through workload.Build, which visits every one of the k
// wavelengths on every link.
func kSweepNetwork(tb testing.TB, n, k int) *wdm.Network {
	tb.Helper()
	rng := rand.New(rand.NewSource(4))
	tp := topo.RandomSparse(n, 4, 5, rng)
	nw := wdm.NewNetwork(tp.N, k)
	for _, e := range tp.Edges {
		var chans []wdm.Channel
		for len(chans) < 4 {
			lam := wdm.Wavelength(rng.Intn(k))
			if !slices.ContainsFunc(chans, func(c wdm.Channel) bool { return c.Lambda == lam }) {
				chans = append(chans, wdm.Channel{Lambda: lam, Weight: 2 + 8*rng.Float64()})
			}
		}
		if _, err := nw.AddLink(e[0], e[1], chans); err != nil {
			tb.Fatal(err)
		}
	}
	nw.SetConverter(wdm.UniformConversion{C: 0.5})
	return nw
}

// TestCompileMatchesReferenceWideK: on E4's shape at k = 100 and 2¹⁷,
// where most wavelengths are 64 or more, the shores take the union's
// insertion path and the arc ends the shore search; the compile still
// matches the reference, in its own layout and for a residual that lost
// each link's first channel.
func TestCompileMatchesReferenceWideK(t *testing.T) {
	for _, k := range []int{100, 1 << 17} {
		nw := kSweepNetwork(t, 400, k)
		compileBoth(t, fmt.Sprintf("k=%d", k), nw, nw)
		changes := map[int][]wdm.Channel{}
		for id := 0; id < nw.NumLinks(); id++ {
			changes[id] = nw.Link(id).Channels[1:]
		}
		res, err := nw.PatchChannels(changes)
		if err != nil {
			t.Fatal(err)
		}
		compileBoth(t, fmt.Sprintf("k=%d/residual", k), nw, res)
	}
}

// TestCompileBytesIndependentOfK is Theorem 4 for memory: with |Λ(e)| ≤ 4
// the compile allocates O(|V′| + |E′| + n + m) bytes whatever k is, so
// nothing k wide (a per-node row over all wavelengths) is built.
func TestCompileBytesIndependentOfK(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds allocations of its own")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, k := range []int{8, 512, 1 << 17} {
		nw := kSweepNetwork(t, 400, k)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		a, err := NewAux(nw)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		bytes := after.TotalAlloc - before.TotalAlloc
		items := uint64(a.NumAuxNodes() + a.NumAuxArcs() + nw.NumNodes() + nw.NumLinks())
		t.Logf("k=%d: %d bytes, %d items, %.1f B/item", k, bytes, items, float64(bytes)/float64(items))
		if bytes > 64*items {
			t.Errorf("k=%d: NewAux allocates %d bytes for %d nodes, arcs, links and network nodes: over 64 per item",
				k, bytes, items)
		}
	}
}

// TestZeroOptionsSearchAllocationsFlat: a search with nil Options runs
// the served queue policy on pooled scratch, so Route allocates only its
// Result and path and RouteFrom only its SourceTree — a handful of
// objects, the same count at n = 100 and n = 400. A queue that builds a
// node per entry (the Fibonacci heap) allocates in proportion to n.
func TestZeroOptionsSearchAllocationsFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds allocations of its own")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const most = 5
	var route, from []float64
	for _, n := range []int{100, 400} {
		a := mustAux(t, kSweepNetwork(t, n, 8))
		if _, err := a.Route(0, n/2, nil); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		route = append(route, testing.AllocsPerRun(5, func() {
			if _, err := a.Route(0, n/2, nil); err != nil {
				t.Fatal(err)
			}
		}))
		from = append(from, testing.AllocsPerRun(5, func() {
			if _, err := a.RouteFrom(0, nil); err != nil {
				t.Fatal(err)
			}
		}))
	}
	for _, c := range []struct {
		name   string
		counts []float64
	}{{"Route", route}, {"RouteFrom", from}} {
		t.Logf("%s: %v allocs at n=100, %v at n=400", c.name, c.counts[0], c.counts[1])
		if c.counts[0] != c.counts[1] || c.counts[1] > most {
			t.Errorf("%s with nil Options allocates %v objects at n=100 and %v at n=400, want the same count ≤ %d",
				c.name, c.counts[0], c.counts[1], most)
		}
	}
}
