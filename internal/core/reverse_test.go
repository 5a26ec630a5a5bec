package core

import (
	"math/rand"
	"testing"

	"lightpath/internal/graph"
)

// checkSameArcs demands got and want hold the same arcs in the same
// per-node order.
func checkSameArcs(t *testing.T, got, want *graph.Digraph) {
	t.Helper()
	if got.NumNodes() != want.NumNodes() || got.NumArcs() != want.NumArcs() {
		t.Fatalf("shape %d/%d, want %d/%d", got.NumNodes(), got.NumArcs(), want.NumNodes(), want.NumArcs())
	}
	for v := 0; v < want.NumNodes(); v++ {
		ga, wa := got.Out(v), want.Out(v)
		if len(ga) != len(wa) {
			t.Fatalf("node %d reverse degree %d, want %d", v, len(ga), len(wa))
		}
		for i := range ga {
			if ga[i] != wa[i] {
				t.Fatalf("node %d reverse arc %d: %+v vs %+v", v, i, ga[i], wa[i])
			}
		}
	}
}

func TestReverseGraphMatchesFresh(t *testing.T) {
	a, err := NewAux(deltaNetwork(t, 11))
	if err != nil {
		t.Fatal(err)
	}
	checkSameArcs(t, a.ReverseGraph(), a.g.Reverse())
}

// TestReverseGraphOfDeltaChild: a delta child's reverse is the transpose
// of the child's own patched forward graph, not of its parent's.
func TestReverseGraphOfDeltaChild(t *testing.T) {
	nw := deltaNetwork(t, 15)
	rng := rand.New(rand.NewSource(16))
	parent, err := NewAux(nw)
	if err != nil {
		t.Fatal(err)
	}
	res, changed := occupyResidual(t, nw, 8, rng)
	child, err := parent.ApplyDelta(res, changed)
	if err != nil {
		t.Fatal(err)
	}
	checkSameArcs(t, child.ReverseGraph(), child.g.Reverse())
}
