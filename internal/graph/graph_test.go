package graph

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"unsafe"
)

// TestArcSize pins Arc's layout: 16 bytes of data in 16 bytes. A field
// reorder that reintroduces padding grows every compiled auxiliary
// graph's arc arena by half.
func TestArcSize(t *testing.T) {
	if got := unsafe.Sizeof(Arc{}); got != 16 {
		t.Fatalf("unsafe.Sizeof(Arc{}) = %d, want 16", got)
	}
}

func TestNewAndAddNode(t *testing.T) {
	g := New(3)
	if g.NumNodes() != 3 || g.NumArcs() != 0 {
		t.Fatalf("got %d nodes %d arcs, want 3/0", g.NumNodes(), g.NumArcs())
	}
	if first := g.AddNodes(5); first != 3 {
		t.Fatalf("AddNodes = %d, want 3", first)
	}
	if g.NumNodes() != 8 {
		t.Fatalf("NumNodes = %d, want 8", g.NumNodes())
	}
}

func TestAddArc(t *testing.T) {
	g := New(2)
	if err := g.AddArc(0, 1, 2.5, 7); err != nil {
		t.Fatalf("AddArc: %v", err)
	}
	if g.NumArcs() != 1 {
		t.Fatalf("NumArcs = %d, want 1", g.NumArcs())
	}
	out := g.Out(0)
	if len(out) != 1 || out[0].To != 1 || out[0].Weight != 2.5 || out[0].Tag != 7 {
		t.Fatalf("Out(0) = %+v", out)
	}
}

func TestAddArcErrors(t *testing.T) {
	g := New(2)
	if err := g.AddArc(0, 2, 1, 0); !errors.Is(err, ErrNodeRange) {
		t.Fatalf("out-of-range arc: %v", err)
	}
	if err := g.AddArc(-1, 0, 1, 0); !errors.Is(err, ErrNodeRange) {
		t.Fatalf("negative node: %v", err)
	}
	if err := g.AddArc(0, 1, -1, 0); !errors.Is(err, ErrNegativeWeight) {
		t.Fatalf("negative weight: %v", err)
	}
	if err := g.AddArc(0, 1, math.NaN(), 0); !errors.Is(err, ErrNegativeWeight) {
		t.Fatalf("NaN weight: %v", err)
	}
	// Infinite weight is "unavailable": accepted but not stored.
	if err := g.AddArc(0, 1, math.Inf(1), 0); err != nil {
		t.Fatalf("inf weight should be a silent no-op: %v", err)
	}
	if g.NumArcs() != 0 {
		t.Fatal("inf-weight arc must not be stored")
	}
}

func TestParallelArcs(t *testing.T) {
	g := New(2)
	for i := 0; i < 3; i++ {
		if err := g.AddArc(0, 1, float64(i+1), int32(i)); err != nil {
			t.Fatal(err)
		}
	}
	if g.NumArcs() != 3 || g.OutDegree(0) != 3 {
		t.Fatalf("parallel arcs not stored: arcs=%d deg=%d", g.NumArcs(), g.OutDegree(0))
	}
}

func TestDegrees(t *testing.T) {
	g := New(4)
	mustArc(t, g, 0, 1, 1)
	mustArc(t, g, 0, 2, 1)
	mustArc(t, g, 0, 3, 1)
	mustArc(t, g, 1, 3, 1)
	mustArc(t, g, 2, 3, 1)
	want := []int{3, 1, 1, 0}
	for u := range want {
		if d := g.OutDegree(u); d != want[u] {
			t.Fatalf("OutDegree(%d) = %d, want %d", u, d, want[u])
		}
	}
	g.ClearOut(0)
	if d := g.OutDegree(0); d != 0 {
		t.Fatalf("OutDegree(0) after ClearOut = %d, want 0", d)
	}
}

func TestReverse(t *testing.T) {
	g := New(3)
	mustArc(t, g, 0, 1, 5)
	mustArc(t, g, 1, 2, 7)
	r := g.Reverse()
	if r.NumArcs() != 2 {
		t.Fatalf("reverse arcs = %d, want 2", r.NumArcs())
	}
	if out := r.Out(1); len(out) != 1 || out[0].To != 0 || out[0].Weight != 5 {
		t.Fatalf("Reverse Out(1) = %+v", out)
	}
	if out := r.Out(2); len(out) != 1 || out[0].To != 1 || out[0].Weight != 7 {
		t.Fatalf("Reverse Out(2) = %+v", out)
	}
}

func TestClone(t *testing.T) {
	g := New(2)
	mustArc(t, g, 0, 1, 1)
	c := g.CloneCOW()
	mustArc(t, c, 1, 0, 2)
	if g.NumArcs() != 1 || c.NumArcs() != 2 || len(g.Out(1)) != 0 {
		t.Fatalf("clone not independent: g=%d c=%d", g.NumArcs(), c.NumArcs())
	}
}

// TestReverseFidelity pins what core.Aux.ReverseGraph hands out:
// Reverse() preserves every arc's weight AND tag exactly, keeps parallel
// arcs distinct, and orders each reverse adjacency list by ascending
// source node, so the transpose is deterministic.
func TestReverseFidelity(t *testing.T) {
	g := New(4)
	mustTaggedArc(t, g, 0, 2, 1.5, 7)
	mustTaggedArc(t, g, 1, 2, 2.5, 8)
	mustTaggedArc(t, g, 3, 2, 0.5, 9)
	mustTaggedArc(t, g, 0, 2, 1.5, 10) // parallel to the first, distinct tag
	mustTaggedArc(t, g, 2, 0, 4.0, 11)
	r := g.Reverse()
	if r.NumNodes() != g.NumNodes() || r.NumArcs() != g.NumArcs() {
		t.Fatalf("reverse shape %d/%d, want %d/%d", r.NumNodes(), r.NumArcs(), g.NumNodes(), g.NumArcs())
	}
	// Arc multiset must be the exact transpose: collect (from,to,w,tag).
	type key struct {
		from, to int
		w        float64
		tag      int32
	}
	fwd := make(map[key]int)
	for u := 0; u < g.NumNodes(); u++ {
		for _, a := range g.Out(u) {
			fwd[key{u, int(a.To), a.Weight, a.Tag}]++
		}
	}
	for v := 0; v < r.NumNodes(); v++ {
		for _, a := range r.Out(v) {
			k := key{int(a.To), v, a.Weight, a.Tag}
			if fwd[k] == 0 {
				t.Fatalf("reverse arc %d->%d (w=%v tag=%d) has no forward original", v, a.To, a.Weight, a.Tag)
			}
			fwd[k]--
		}
	}
	// Reverse adjacency of node 2 must list sources in ascending order
	// (0, 0, 1, 3) — Reverse() appends scanning forward nodes ascending.
	in2 := r.Out(2)
	wantSrc := []int32{0, 0, 1, 3}
	if len(in2) != len(wantSrc) {
		t.Fatalf("in(2) = %d arcs, want %d", len(in2), len(wantSrc))
	}
	for i, a := range in2 {
		if a.To != wantSrc[i] {
			t.Fatalf("in(2)[%d].To = %d, want %d (ascending-source order)", i, a.To, wantSrc[i])
		}
	}
	// Both parallel 0→2 arcs survive with their distinct tags.
	tags := map[int32]bool{}
	for _, a := range in2 {
		if a.To == 0 {
			tags[a.Tag] = true
		}
	}
	if !tags[7] || !tags[10] {
		t.Fatalf("parallel arcs lost in reverse: tags %v", tags)
	}
}

func mustArc(t *testing.T, g *Digraph, u, v int, w float64) {
	t.Helper()
	if err := g.AddArc(u, v, w, 0); err != nil {
		t.Fatalf("AddArc(%d,%d,%v): %v", u, v, w, err)
	}
}

// randomDigraph builds a random digraph with n nodes and ~density*n*(n-1)
// arcs with weights in [0, 100).
func randomDigraph(rng *rand.Rand, n int, density float64) *Digraph {
	g := New(n)
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if u != v && rng.Float64() < density {
				_ = g.AddArc(u, v, rng.Float64()*100, 0)
			}
		}
	}
	return g
}
