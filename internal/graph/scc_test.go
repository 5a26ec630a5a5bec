package graph

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestSCCEmptyAndSingle(t *testing.T) {
	if !IsStronglyConnected(New(0)) || !IsStronglyConnected(New(1)) {
		t.Fatal("trivial graphs are strongly connected by convention")
	}
	comps := StronglyConnectedComponents(New(3))
	if len(comps) != 3 {
		t.Fatalf("3 isolated nodes → 3 components, got %d", len(comps))
	}
}

func TestSCCCycle(t *testing.T) {
	g := New(4)
	for i := 0; i < 4; i++ {
		mustArc(t, g, i, (i+1)%4, 1)
	}
	comps := StronglyConnectedComponents(g)
	if len(comps) != 1 || len(comps[0]) != 4 {
		t.Fatalf("cycle should be one SCC: %v", comps)
	}
	if !IsStronglyConnected(g) {
		t.Fatal("cycle is strongly connected")
	}
}

func TestSCCTwoComponents(t *testing.T) {
	// 0↔1 and 2↔3 with a one-way bridge 1→2.
	g := New(4)
	mustArc(t, g, 0, 1, 1)
	mustArc(t, g, 1, 0, 1)
	mustArc(t, g, 2, 3, 1)
	mustArc(t, g, 3, 2, 1)
	mustArc(t, g, 1, 2, 1)
	comps := StronglyConnectedComponents(g)
	if len(comps) != 2 {
		t.Fatalf("want 2 components, got %v", comps)
	}
	// Reverse topological order: the sink component {2,3} comes first.
	first := append([]int{}, comps[0]...)
	sort.Ints(first)
	if first[0] != 2 || first[1] != 3 {
		t.Fatalf("sink component should be emitted first: %v", comps)
	}
	if IsStronglyConnected(g) {
		t.Fatal("graph is not strongly connected")
	}
}

func TestSCCLine(t *testing.T) {
	g := lineGraph(t, 5) // one-directional line: 5 singleton components
	comps := StronglyConnectedComponents(g)
	if len(comps) != 5 {
		t.Fatalf("line should decompose into singletons: %v", comps)
	}
}

func TestSCCDeepGraphNoOverflow(t *testing.T) {
	// 200k-node directed cycle: the iterative implementation must not
	// blow the stack.
	const n = 200_000
	g := New(n)
	for i := 0; i < n; i++ {
		if err := g.AddArc(i, (i+1)%n, 1, 0); err != nil {
			t.Fatal(err)
		}
	}
	if !IsStronglyConnected(g) {
		t.Fatal("big cycle should be one SCC")
	}
}

// TestQuickSCCPartition property: components partition the node set, and
// within a component every node reaches every other.
func TestQuickSCCPartition(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(30)
		g := randomDigraph(rng, n, 0.15)
		comps := StronglyConnectedComponents(g)
		seen := make([]bool, n)
		total := 0
		for _, comp := range comps {
			for _, v := range comp {
				if seen[v] {
					return false // duplicate
				}
				seen[v] = true
				total++
			}
			// Mutual reachability inside the component.
			if len(comp) > 1 {
				inComp := make(map[int]bool, len(comp))
				for _, v := range comp {
					inComp[v] = true
				}
				reach := reachableFrom(g, comp[0])
				for _, v := range comp {
					if !reach[v] {
						return false
					}
				}
				// And back: every member reaches comp[0].
				for _, v := range comp[1:] {
					if !reachableFrom(g, v)[comp[0]] {
						return false
					}
				}
			}
		}
		return total == n
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// reachableFrom returns the set of nodes reachable from src (src
// included), by a search over arcs of any weight.
func reachableFrom(g *Digraph, src int) []bool {
	seen := make([]bool, g.NumNodes())
	seen[src] = true
	stack := []int{src}
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, a := range g.Out(u) {
			if !seen[a.To] {
				seen[a.To] = true
				stack = append(stack, int(a.To))
			}
		}
	}
	return seen
}
