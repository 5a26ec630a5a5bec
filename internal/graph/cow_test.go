package graph

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

func buildRandom(t testing.TB, n, arcs int, seed int64) *Digraph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g := New(n)
	for i := 0; i < arcs; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if err := g.AddArc(u, v, rng.Float64()*10, int32(i)); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

func sameArcs(a, b []Arc) bool {
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

func TestCloneCOWSharesSegments(t *testing.T) {
	g := buildRandom(t, 20, 60, 1)
	c := g.CloneCOW()
	if c.NumNodes() != g.NumNodes() || c.NumArcs() != g.NumArcs() {
		t.Fatalf("clone shape: %d/%d vs %d/%d", c.NumNodes(), c.NumArcs(), g.NumNodes(), g.NumArcs())
	}
	for u := 0; u < g.NumNodes(); u++ {
		gu, cu := g.Out(u), c.Out(u)
		if !sameArcs(gu, cu) {
			t.Fatalf("node %d segments differ", u)
		}
		// Structural sharing: same backing array, not a copy.
		if len(gu) > 0 && &gu[0] != &cu[0] {
			t.Fatalf("node %d segment copied, want shared", u)
		}
	}
}

func TestReplaceOutIsolatesClone(t *testing.T) {
	g := buildRandom(t, 10, 30, 2)
	c := g.CloneCOW()
	before := append([]Arc(nil), g.Out(3)...)
	repl := []Arc{{To: 7, Weight: 1.5, Tag: 99}, {To: 0, Weight: 0.5, Tag: 98}}
	if err := c.ReplaceOut(3, repl); err != nil {
		t.Fatal(err)
	}
	if !sameArcs(g.Out(3), before) {
		t.Fatal("ReplaceOut on clone mutated the parent")
	}
	if !sameArcs(c.Out(3), repl) {
		t.Fatalf("clone segment = %v, want %v", c.Out(3), repl)
	}
	wantArcs := g.NumArcs() - len(before) + len(repl)
	if c.NumArcs() != wantArcs {
		t.Fatalf("clone arc count = %d, want %d", c.NumArcs(), wantArcs)
	}
	// Replacing with an empty segment drops the count accordingly.
	if err := c.ReplaceOut(3, nil); err != nil {
		t.Fatal(err)
	}
	if c.NumArcs() != g.NumArcs()-len(before) {
		t.Fatalf("empty replace arc count = %d", c.NumArcs())
	}
}

func TestReplaceOutValidates(t *testing.T) {
	g := New(3)
	if err := g.ReplaceOut(5, nil); !errors.Is(err, ErrNodeRange) {
		t.Fatalf("bad node: %v", err)
	}
	if err := g.ReplaceOut(0, []Arc{{To: 9, Weight: 1}}); !errors.Is(err, ErrNodeRange) {
		t.Fatalf("bad target: %v", err)
	}
	if err := g.ReplaceOut(0, []Arc{{To: 1, Weight: -1}}); !errors.Is(err, ErrNegativeWeight) {
		t.Fatalf("negative weight: %v", err)
	}
	// Unlike AddArc (which silently skips ∞ = "unavailable"), an explicit
	// segment must not carry the sentinel.
	if err := g.ReplaceOut(0, []Arc{{To: 1, Weight: math.Inf(1)}}); !errors.Is(err, ErrNegativeWeight) {
		t.Fatalf("infinite weight: %v", err)
	}
}

// csrOf lays g's adjacency lists back to back in one arena, in node
// order, with each segment's end offset.
func csrOf(g *Digraph) ([]Arc, []int32) {
	var arena []Arc
	ends := make([]int32, g.NumNodes())
	for u := range ends {
		arena = append(arena, g.Out(u)...)
		ends[u] = int32(len(arena))
	}
	return arena, ends
}

// TestFromCSRPreservesContents: a graph built from an arena and its
// segment ends has the adjacency lists the ends cut, every segment is a
// full-capacity window of that one arena in node order, growing one
// segment leaves its neighbours alone, a clone's write copies one page
// of the slab and no other, and malformed input is refused.
func TestFromCSRPreservesContents(t *testing.T) {
	for _, n := range []int{0, 1, 15, pageSize, 2*pageSize + 3} {
		src := buildRandom(t, max(n, 1), 4*n, int64(n))
		if n == 0 {
			src = New(0)
		}
		want := snapshotArcs(src)
		arena, ends := csrOf(src)
		g, err := FromCSR(arena, ends)
		if err != nil {
			t.Fatal(err)
		}
		mustMatch(t, "FromCSR", g, want)
		start := int32(0)
		for u, end := range ends {
			if out := g.Out(u); cap(out) != len(out) || (len(out) > 0 && &out[0] != &arena[start]) {
				t.Fatalf("n=%d: node %d is not arena[%d:%d] at full capacity", n, u, start, end)
			}
			start = end
		}
		if n < 2 {
			continue
		}
		c := g.CloneCOW()
		if err := c.AddArc(0, 1, 1.0, -7); err != nil {
			t.Fatal(err)
		}
		mustMatch(t, "parent after the clone grew node 0", g, want)
		if c.pages[0] == g.pages[0] || (len(g.pages) > 1 && c.pages[1] != g.pages[1]) {
			t.Fatalf("n=%d: the clone's write copied the wrong pages", n)
		}
		if err := g.AddArc(0, 1, 1.0, -7); err != nil {
			t.Fatal(err)
		}
		for u := 1; u < n; u++ {
			if !sameArcs(g.Out(u), want[u]) {
				t.Fatalf("n=%d: AddArc on node 0 corrupted node %d", n, u)
			}
		}
	}

	arc := []Arc{{To: 1, Weight: 1}}
	for _, bad := range []struct {
		name  string
		arena []Arc
		ends  []int32
		err   error
	}{
		{"arcs past the last end", arc, []int32{0, 0}, ErrNodeRange},
		{"an end past the arena", arc, []int32{0, 2}, ErrNodeRange},
		{"decreasing ends", []Arc{{To: 1, Weight: 1}, {To: 0, Weight: 1}}, []int32{2, 1}, ErrNodeRange},
		{"arcs and no nodes", arc, nil, ErrNodeRange},
		{"target out of range", []Arc{{To: 2, Weight: 1}}, []int32{1, 1}, ErrNodeRange},
		{"negative target", []Arc{{To: -1, Weight: 1}}, []int32{1, 1}, ErrNodeRange},
		{"negative weight", []Arc{{To: 1, Weight: -1}}, []int32{1, 1}, ErrNegativeWeight},
		{"NaN weight", []Arc{{To: 1, Weight: math.NaN()}}, []int32{1, 1}, ErrNegativeWeight},
		{"infinite weight", []Arc{{To: 1, Weight: math.Inf(1)}}, []int32{1, 1}, ErrNegativeWeight},
	} {
		if _, err := FromCSR(bad.arena, bad.ends); !errors.Is(err, bad.err) {
			t.Errorf("%s: err = %v, want %v", bad.name, err, bad.err)
		}
	}
}

// TestScratchMatchesAllocatingPath: every queue kind, and A* under the
// exact potential, through the scratch API must stop where the
// allocating API stops and answer what it answers — same settled count,
// same best goal, same distance — across repeated reuses of one scratch
// (stale state from a previous query, goal marks and the touched list
// included, must not leak), and that answer must be the exhaustive run's
// minimum over the goals.
func TestScratchMatchesAllocatingPath(t *testing.T) {
	g := buildRandom(t, 60, 300, 4)
	sc := NewScratch(g.NumNodes())
	const astar = QueueKind(0) // the binary engine under a potential
	kinds := []QueueKind{QueueBinary, astar, QueueFibonacci, QueueLinear, QueueBucket}
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		seeds := []int{rng.Intn(60), rng.Intn(60)}
		goals := []int{rng.Intn(60), rng.Intn(60), rng.Intn(60)}
		full, err := DijkstraSeedsUntil(g, seeds, nil, QueueBinary)
		if err != nil {
			t.Fatal(err)
		}
		for _, kind := range kinds {
			var pot func(int) float64
			if kind == astar {
				pot = exactPotential(t, g, goals)
			}
			want, err := DijkstraSeedsUntilScratch(g, seeds, goals, kind, nil, nil, pot, Inf)
			if err != nil {
				t.Fatal(err)
			}
			got, err := DijkstraSeedsUntilScratch(g, seeds, goals, kind, sc, nil, pot, Inf)
			if err != nil {
				t.Fatal(err)
			}
			if got.Settled != want.Settled || got.Relaxed != want.Relaxed {
				t.Fatalf("trial %d %v: scratch settled/relaxed %d/%d, allocating %d/%d",
					trial, kind, got.Settled, got.Relaxed, want.Settled, want.Relaxed)
			}
			gotAt, wantAt, fullAt := argminGoal(got, goals), argminGoal(want, goals), argminGoal(full, goals)
			if gotAt != wantAt || gotAt != fullAt {
				t.Fatalf("trial %d %v: best goal scratch %d, allocating %d, exhaustive %d", trial, kind, gotAt, wantAt, fullAt)
			}
			if gotAt >= 0 && (got.Dist[gotAt] != want.Dist[gotAt] || got.Dist[gotAt] != full.Dist[gotAt]) {
				t.Fatalf("trial %d %v: dist[%d] scratch %v, allocating %v, exhaustive %v",
					trial, kind, gotAt, got.Dist[gotAt], want.Dist[gotAt], full.Dist[gotAt])
			}
		}
		for _, m := range sc.goalMark {
			if m {
				t.Fatalf("trial %d: goal mark left set after the query", trial)
			}
		}
	}
}

func TestScratchWrongSizeFallsBack(t *testing.T) {
	g := buildRandom(t, 10, 30, 6)
	sc := NewScratch(5) // wrong size: must fall back, not fail
	got, err := DijkstraSeedsUntilScratch(g, []int{0}, []int{9}, QueueBinary, sc, nil, nil, Inf)
	if err != nil {
		t.Fatal(err)
	}
	want, err := DijkstraSeedsUntil(g, []int{0}, []int{9}, QueueBinary)
	if err != nil {
		t.Fatal(err)
	}
	if got.Dist[9] != want.Dist[9] {
		t.Fatalf("fallback dist = %v, want %v", got.Dist[9], want.Dist[9])
	}
	if &got.Dist[0] == &sc.dist[0] {
		t.Fatal("fallback tree aliases the wrong-sized scratch")
	}
}

// TestScratchSearchAllocationFree: the binary-queue search through a
// warm scratch performs zero heap allocations — the contract the pooled
// query hot path is built on.
func TestScratchSearchAllocationFree(t *testing.T) {
	g := buildRandom(t, 200, 1000, 7)
	sc := NewScratch(g.NumNodes())
	seeds := []int{0, 1}
	goals := []int{150, 160, 170}
	if _, err := DijkstraSeedsUntilScratch(g, seeds, goals, QueueBinary, sc, nil, nil, Inf); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := DijkstraSeedsUntilScratch(g, seeds, goals, QueueBinary, sc, nil, nil, Inf); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("scratch search allocates %v objects per run, want 0", allocs)
	}
}

// snapshotArcs deep-copies every out-segment of g.
func snapshotArcs(g *Digraph) [][]Arc {
	out := make([][]Arc, g.NumNodes())
	for u := range out {
		out[u] = append([]Arc(nil), g.Out(u)...)
	}
	return out
}

func mustMatch(t *testing.T, what string, g *Digraph, want [][]Arc) {
	t.Helper()
	if g.NumNodes() != len(want) {
		t.Fatalf("%s: %d nodes, want %d", what, g.NumNodes(), len(want))
	}
	arcs := 0
	for u := range want {
		if !sameArcs(g.Out(u), want[u]) {
			t.Fatalf("%s: node %d = %v, want %v", what, u, g.Out(u), want[u])
		}
		arcs += len(want[u])
	}
	if g.NumArcs() != arcs {
		t.Fatalf("%s: NumArcs = %d, segments hold %d", what, g.NumArcs(), arcs)
	}
}

// deepCopy is the reference a copy-on-write clone is compared with: a
// fresh graph holding a copy of every segment.
func deepCopy(t *testing.T, g *Digraph) *Digraph {
	t.Helper()
	c := New(g.NumNodes())
	for u := 0; u < g.NumNodes(); u++ {
		for _, a := range g.Out(u) {
			if err := c.AddArc(u, int(a.To), a.Weight, a.Tag); err != nil {
				t.Fatal(err)
			}
		}
	}
	return c
}

// TestCOWAcrossPageEdges runs every writer on clones of graphs whose node
// count sits one short of a page, on it and one past it, so the first
// slot, the last slot, a full last page and a one-slot last page are all
// written through a shared page: the parent never moves, the clone ends up
// as a deep copy given the same writes would.
func TestCOWAcrossPageEdges(t *testing.T) {
	for _, n := range []int{pageSize - 1, pageSize, pageSize + 1, 2*pageSize - 1, 2 * pageSize, 2*pageSize + 1} {
		g := buildRandom(t, n, 4*n, int64(n))
		parent := snapshotArcs(g)
		last := n - 1

		c := g.CloneCOW()
		deep := deepCopy(t, g)
		for _, w := range []*Digraph{c, deep} {
			// Twice on one shared page, then the far edge.
			for _, u := range []int{0, 1, last} {
				if err := w.ReplaceOut(u, []Arc{{To: int32(last), Weight: float64(u), Tag: 7}}); err != nil {
					t.Fatal(err)
				}
			}
			w.ClearOut(pageSize - 2)
			if err := w.AddArc(pageSize-3, 0, 2.5, 8); err != nil {
				t.Fatal(err)
			}
			// Grow past the shared last page: the fresh nodes start empty
			// and take arcs.
			first := w.AddNodes(pageSize + 1)
			if first != n {
				t.Fatalf("n=%d: AddNodes returned %d", n, first)
			}
			if err := w.AddArc(first, last, 1, 9); err != nil {
				t.Fatal(err)
			}
			if err := w.AddArc(last, first+pageSize, 1, 10); err != nil {
				t.Fatal(err)
			}
		}
		mustMatch(t, "parent after clone writes", g, parent)
		mustMatch(t, "clone vs deep copy", c, snapshotArcs(deep))

		// A page is copied by its first write only: the second write to
		// page 0 landed in the clone's own copy.
		if c.pages[0] == g.pages[0] || !c.owned[0] {
			t.Fatalf("n=%d: written page 0 still shared", n)
		}
		if n > 2*pageSize && (c.pages[1] != g.pages[1] || c.owned[1]) {
			t.Fatalf("n=%d: untouched page 1 was copied", n)
		}

		// Rewriting every segment of a clone of the clone copies every page
		// it holds and writes neither ancestor.
		want := snapshotArcs(c)
		cc := c.CloneCOW()
		for u := 0; u < cc.NumNodes(); u++ {
			if err := cc.ReplaceOut(u, append([]Arc(nil), cc.Out(u)...)); err != nil {
				t.Fatal(err)
			}
		}
		mustMatch(t, "rewritten grandchild", cc, want)
		mustMatch(t, "clone after grandchild rewrite", c, want)
		mustMatch(t, "parent after grandchild rewrite", g, parent)
		if err := cc.AddArc(0, 1, 1, 11); err != nil {
			t.Fatal(err)
		}
		mustMatch(t, "clone after grandchild AddArc", c, want)
	}
}

// TestZeroAndTinyGraphs: the zero value and graphs smaller than a page.
func TestZeroAndTinyGraphs(t *testing.T) {
	var z Digraph
	if z.NumNodes() != 0 || z.CloneCOW().NumNodes() != 0 {
		t.Fatal("zero graph has nodes")
	}
	if id := z.AddNode(); id != 0 || z.NumNodes() != 1 {
		t.Fatalf("AddNode on zero graph: id %d, %d nodes", id, z.NumNodes())
	}
	if err := z.AddArc(0, 0, 1, 0); err != nil {
		t.Fatal(err)
	}
	if err := z.AddArc(0, 1, 1, 0); !errors.Is(err, ErrNodeRange) {
		t.Fatalf("arc into an unused slot of the page: %v", err)
	}
	if err := z.ReplaceOut(1, nil); !errors.Is(err, ErrNodeRange) {
		t.Fatalf("ReplaceOut on an unused slot of the page: %v", err)
	}
}
