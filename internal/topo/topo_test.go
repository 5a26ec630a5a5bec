package topo

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// strongConnectivity reports whether every node reaches every other along
// the directed edges: node 0 reaches every node, and every node reaches
// node 0 (a forward and a reverse search from node 0).
func strongConnectivity(t *Topology) bool {
	fwd := make([][]int, t.N)
	rev := make([][]int, t.N)
	for _, e := range t.Edges {
		fwd[e[0]] = append(fwd[e[0]], e[1])
		rev[e[1]] = append(rev[e[1]], e[0])
	}
	return t.N == 0 || reachesAll(fwd) && reachesAll(rev)
}

// reachesAll reports whether a search from node 0 along adj visits every
// node.
func reachesAll(adj [][]int) bool {
	seen := make([]bool, len(adj))
	seen[0] = true
	stack, count := []int{0}, 1
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, v := range adj[u] {
			if !seen[v] {
				seen[v] = true
				count++
				stack = append(stack, v)
			}
		}
	}
	return count == len(adj)
}

// maxDegree reports d = max over nodes of max(in-degree, out-degree).
func maxDegree(t *Topology) int {
	in := make([]int, t.N)
	out := make([]int, t.N)
	for _, e := range t.Edges {
		out[e[0]]++
		in[e[1]]++
	}
	d := 0
	for v := 0; v < t.N; v++ {
		d = max(d, out[v], in[v])
	}
	return d
}

func TestRing(t *testing.T) {
	r := Ring(6)
	if r.N != 6 || r.M() != 12 {
		t.Fatalf("ring: n=%d m=%d", r.N, r.M())
	}
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
	if d := maxDegree(r); d != 2 {
		t.Fatalf("ring degree = %d, want 2", d)
	}
	if !strongConnectivity(r) {
		t.Fatal("ring should be strongly connected")
	}
}

func TestLine(t *testing.T) {
	l := Line(5)
	if l.N != 5 || l.M() != 8 {
		t.Fatalf("line: n=%d m=%d", l.N, l.M())
	}
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestGrid(t *testing.T) {
	g := Grid(3, 4)
	if g.N != 12 {
		t.Fatalf("grid n = %d", g.N)
	}
	// 3x4 grid: horizontal 3*3=9, vertical 2*4=8 → 17 undirected, 34 directed.
	if g.M() != 34 {
		t.Fatalf("grid m = %d, want 34", g.M())
	}
	if d := maxDegree(g); d != 4 {
		t.Fatalf("grid degree = %d, want 4", d)
	}
	if !strongConnectivity(g) {
		t.Fatal("grid should be strongly connected")
	}
}

func TestRandomSparse(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{5, 20, 100} {
		g := RandomSparse(n, 3, 5, rng)
		if g.N != n {
			t.Fatalf("n = %d", g.N)
		}
		if err := g.Validate(); err != nil {
			t.Fatal(err)
		}
		if d := maxDegree(g); d > 5 {
			t.Fatalf("degree %d exceeds cap 5", d)
		}
		if !strongConnectivity(g) {
			t.Fatalf("sparse graph on %d nodes not strongly connected", n)
		}
		if g.M() < 2*n {
			t.Fatalf("backbone missing: m = %d < 2n", g.M())
		}
	}
}

func TestRandomSparseDegreeClamps(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := RandomSparse(10, 1, 1, rng) // degenerate inputs are clamped
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if !strongConnectivity(g) {
		t.Fatal("clamped sparse graph should still be connected")
	}
}

func TestWaxman(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := Waxman(50, 0.4, 0.15, rng)
	if g.N != 50 {
		t.Fatalf("n = %d", g.N)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if !strongConnectivity(g) {
		t.Fatal("waxman should be patched into connectivity")
	}
}

func TestComplete(t *testing.T) {
	g := Complete(5)
	if g.M() != 20 {
		t.Fatalf("complete m = %d, want 20", g.M())
	}
	if d := maxDegree(g); d != 4 {
		t.Fatalf("degree = %d, want 4", d)
	}
}

func TestNSFNET(t *testing.T) {
	g := NSFNET()
	if g.N != 14 || g.M() != 42 {
		t.Fatalf("nsfnet: n=%d m=%d, want 14/42", g.N, g.M())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if !strongConnectivity(g) {
		t.Fatal("nsfnet should be strongly connected")
	}
}

func TestARPANET(t *testing.T) {
	g := ARPANET()
	if g.N != 20 || g.M() != 64 {
		t.Fatalf("arpanet: n=%d m=%d, want 20/64", g.N, g.M())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if d := maxDegree(g); d > 4 {
		t.Fatalf("arpanet degree = %d, want ≤ 4", d)
	}
	if !strongConnectivity(g) {
		t.Fatal("arpanet should be strongly connected")
	}
}

func TestValidateCatchesBadEdges(t *testing.T) {
	bad := &Topology{N: 2, Edges: [][2]int{{0, 5}}}
	if err := bad.Validate(); err == nil {
		t.Fatal("out-of-range edge must fail")
	}
	loop := &Topology{N: 2, Edges: [][2]int{{1, 1}}}
	if err := loop.Validate(); err == nil {
		t.Fatal("self-loop must fail")
	}
}

// TestPaperExampleTopology checks Fig. 1's directed edge list as a
// topology: 7 nodes, 11 valid links.
func TestPaperExampleTopology(t *testing.T) {
	g := &Topology{Name: "paper-fig1", N: PaperExampleNodes}
	for _, l := range paperLinks {
		g.Edges = append(g.Edges, [2]int{l.from - 1, l.to - 1})
	}
	if g.N != 7 || g.M() != 11 {
		t.Fatalf("paper topology: n=%d m=%d, want 7/11", g.N, g.M())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestPaperExampleNetwork(t *testing.T) {
	nw, err := PaperExample(DefaultPaperExampleSpec())
	if err != nil {
		t.Fatal(err)
	}
	if nw.NumNodes() != 7 || nw.K() != 4 || nw.NumLinks() != 11 {
		t.Fatalf("shape: n=%d k=%d m=%d", nw.NumNodes(), nw.K(), nw.NumLinks())
	}
	// Σ|Λ(e)| = 23 with the reconciled Λ(⟨2,7⟩) = {λ1,λ2}.
	if got := nw.TotalChannels(); got != 23 {
		t.Fatalf("TotalChannels = %d, want 23", got)
	}
	// Fig. 3: λ2→λ3 at paper node 3 (our 2) is forbidden.
	if c := nw.Converter().Cost(2, 1, 2); c < 1e18 {
		t.Fatalf("forbidden conversion has finite cost %v", c)
	}
	// but allowed elsewhere, e.g. λ2→λ3 at node 1 (our 0): in Λ_in(0)
	// and Λ_out(0).
	if c := nw.Converter().Cost(0, 1, 2); c != 1 {
		t.Fatalf("allowed conversion cost = %v, want 1", c)
	}
}

func TestPaperExampleNoForbid(t *testing.T) {
	spec := DefaultPaperExampleSpec()
	spec.ForbidNode3Lambda2To3 = false
	nw, err := PaperExample(spec)
	if err != nil {
		t.Fatal(err)
	}
	if c := nw.Converter().Cost(2, 1, 2); c != 1 {
		t.Fatalf("conversion should be allowed, cost = %v", c)
	}
}

// TestQuickGeneratorsValid property: all generators yield valid,
// connected topologies for arbitrary sizes.
func TestQuickGeneratorsValid(t *testing.T) {
	prop := func(seed int64, rawN uint8) bool {
		n := 3 + int(rawN%40)
		rng := rand.New(rand.NewSource(seed))
		gens := []*Topology{
			Ring(n),
			Line(n),
			Grid(2+int(rawN%5), 2+int(rawN%7)),
			RandomSparse(n, 3, 4, rng),
			Waxman(n, 0.5, 0.2, rng),
		}
		for _, g := range gens {
			if g.Validate() != nil || !strongConnectivity(g) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestTorus(t *testing.T) {
	g := Torus(4, 5)
	if g.N != 20 {
		t.Fatalf("n = %d", g.N)
	}
	// 2 undirected links per node (one per dimension) → 2*20 undirected,
	// 80 directed.
	if g.M() != 80 {
		t.Fatalf("m = %d, want 80", g.M())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if d := maxDegree(g); d != 4 {
		t.Fatalf("degree = %d, want 4", d)
	}
	if !strongConnectivity(g) {
		t.Fatal("torus should be strongly connected")
	}
	// Degenerate sides must not create duplicate or self edges.
	small := Torus(2, 2)
	if err := small.Validate(); err != nil {
		t.Fatal(err)
	}
	if !strongConnectivity(small) {
		t.Fatal("2x2 torus should be connected")
	}
}

func TestHypercube(t *testing.T) {
	g := Hypercube(4)
	if g.N != 16 {
		t.Fatalf("n = %d", g.N)
	}
	// dim*2^(dim-1) undirected edges → 4*8=32 undirected, 64 directed.
	if g.M() != 64 {
		t.Fatalf("m = %d, want 64", g.M())
	}
	if d := maxDegree(g); d != 4 {
		t.Fatalf("degree = %d, want dim=4", d)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if !strongConnectivity(g) {
		t.Fatal("hypercube should be strongly connected")
	}
}

func TestShuffleNet(t *testing.T) {
	g := ShuffleNet(2, 2) // 2 columns of 4 → 8 nodes, out-degree 2
	if g.N != 8 {
		t.Fatalf("n = %d, want 8", g.N)
	}
	if g.M() != 16 {
		t.Fatalf("m = %d, want 16", g.M())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if d := maxDegree(g); d != 2 {
		t.Fatalf("degree = %d, want 2", d)
	}
	if !strongConnectivity(g) {
		t.Fatal("shufflenet should be strongly connected")
	}
	// Degenerate parameters are clamped.
	tiny := ShuffleNet(0, 0)
	if err := tiny.Validate(); err != nil {
		t.Fatal(err)
	}
}
