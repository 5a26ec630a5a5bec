// Package topo generates the physical topologies the experiments run on:
// classical synthetic families (ring, grid, bounded-degree sparse random,
// Waxman geometric), two reference WAN topologies (NSFNET, ARPANET-like),
// and the exact 7-node example network of the paper's Fig. 1.
//
// Generators produce a Topology — a plain directed edge list — which
// package workload then dresses with wavelength availability, link
// weights, and conversion functions to obtain a wdm.Network.
package topo

import (
	"fmt"
	"math"
	"math/rand"
)

// Topology is a directed graph given as an edge list over nodes 0..N-1.
type Topology struct {
	Name  string
	N     int
	Edges [][2]int
}

// M reports the number of directed edges.
func (t *Topology) M() int { return len(t.Edges) }

// Validate checks that every edge endpoint is in range and no self-loops
// exist.
func (t *Topology) Validate() error {
	for i, e := range t.Edges {
		if e[0] < 0 || e[0] >= t.N || e[1] < 0 || e[1] >= t.N {
			return fmt.Errorf("topo: edge %d (%d->%d) out of range for n=%d", i, e[0], e[1], t.N)
		}
		if e[0] == e[1] {
			return fmt.Errorf("topo: edge %d is a self-loop at %d", i, e[0])
		}
	}
	return nil
}

// addBoth appends both directions of an undirected edge.
func addBoth(edges [][2]int, u, v int) [][2]int {
	return append(edges, [2]int{u, v}, [2]int{v, u})
}

// Ring returns the bidirectional ring on n nodes (m = 2n directed links),
// the classic metro-WDM topology.
func Ring(n int) *Topology {
	t := &Topology{Name: fmt.Sprintf("ring-%d", n), N: n}
	for i := 0; i < n; i++ {
		t.Edges = addBoth(t.Edges, i, (i+1)%n)
	}
	return t
}

// Line returns the bidirectional path graph on n nodes.
func Line(n int) *Topology {
	t := &Topology{Name: fmt.Sprintf("line-%d", n), N: n}
	for i := 0; i+1 < n; i++ {
		t.Edges = addBoth(t.Edges, i, i+1)
	}
	return t
}

// Grid returns the bidirectional rows×cols mesh — a planar sparse WAN
// stand-in with d ≤ 4, the regime (m = O(n), constant d) the paper's
// comparison section targets.
func Grid(rows, cols int) *Topology {
	t := &Topology{Name: fmt.Sprintf("grid-%dx%d", rows, cols), N: rows * cols}
	id := func(r, c int) int { return r*cols + c }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				t.Edges = addBoth(t.Edges, id(r, c), id(r, c+1))
			}
			if r+1 < rows {
				t.Edges = addBoth(t.Edges, id(r, c), id(r+1, c))
			}
		}
	}
	return t
}

// RandomSparse returns a connected random topology on n nodes whose
// maximum degree is bounded by maxDeg: a Hamiltonian-cycle backbone
// (guaranteeing strong connectivity) plus random chords up to the target
// average degree avgDeg. This is the "large sparse wide area network"
// workload: m = O(n) with d constant.
func RandomSparse(n, avgDeg, maxDeg int, rng *rand.Rand) *Topology {
	if maxDeg < 2 {
		maxDeg = 2
	}
	if avgDeg < 2 {
		avgDeg = 2
	}
	t := &Topology{Name: fmt.Sprintf("sparse-%d", n), N: n}
	deg := make([]int, n) // undirected degree
	perm := rng.Perm(n)
	for i := 0; i < n; i++ {
		u, v := perm[i], perm[(i+1)%n]
		t.Edges = addBoth(t.Edges, u, v)
		deg[u]++
		deg[v]++
	}
	have := make(map[[2]int]bool, n*avgDeg)
	for _, e := range t.Edges {
		have[e] = true
	}
	wantUndirected := n * avgDeg / 2
	for tries := 0; len(t.Edges)/2 < wantUndirected && tries < 20*n*avgDeg; tries++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v || deg[u] >= maxDeg || deg[v] >= maxDeg || have[[2]int{u, v}] {
			continue
		}
		t.Edges = addBoth(t.Edges, u, v)
		have[[2]int{u, v}] = true
		have[[2]int{v, u}] = true
		deg[u]++
		deg[v]++
	}
	return t
}

// Waxman returns a Waxman random geometric graph on n nodes scattered on
// the unit square: nodes u,v are joined with probability
// alpha·exp(−dist(u,v)/(beta·L)) where L = √2, then patched into
// connectivity with a cycle over any isolated fragments via nearest
// neighbours. Classic WAN synthesizer (Waxman, JSAC 1988).
func Waxman(n int, alpha, beta float64, rng *rand.Rand) *Topology {
	t := &Topology{Name: fmt.Sprintf("waxman-%d", n), N: n}
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := 0; i < n; i++ {
		xs[i], ys[i] = rng.Float64(), rng.Float64()
	}
	const maxDist = math.Sqrt2
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			d := math.Hypot(xs[u]-xs[v], ys[u]-ys[v])
			p := alpha * math.Exp(-d/(beta*maxDist))
			if rng.Float64() < p {
				t.Edges = addBoth(t.Edges, u, v)
			}
		}
	}
	// Connectivity patch: union-find over undirected components, then
	// join consecutive component representatives.
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for _, e := range t.Edges {
		ra, rb := find(e[0]), find(e[1])
		if ra != rb {
			parent[ra] = rb
		}
	}
	var reps []int
	seen := make(map[int]bool)
	for v := 0; v < n; v++ {
		r := find(v)
		if !seen[r] {
			seen[r] = true
			reps = append(reps, v)
		}
	}
	for i := 0; i+1 < len(reps); i++ {
		t.Edges = addBoth(t.Edges, reps[i], reps[i+1])
		parent[find(reps[i])] = find(reps[i+1])
	}
	return t
}

// Complete returns the complete directed graph on n nodes — the dense
// corner where CFZ's algorithm is optimal (their m = Θ(n²) regime).
func Complete(n int) *Topology {
	t := &Topology{Name: fmt.Sprintf("complete-%d", n), N: n}
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if u != v {
				t.Edges = append(t.Edges, [2]int{u, v})
			}
		}
	}
	return t
}

// Torus returns the rows×cols wraparound mesh: like Grid but with the
// boundary links closed, giving a vertex-transitive degree-4 (degree-2
// per dimension when a side has length 2) topology popular in regular
// WDM interconnect studies.
func Torus(rows, cols int) *Topology {
	t := &Topology{Name: fmt.Sprintf("torus-%dx%d", rows, cols), N: rows * cols}
	id := func(r, c int) int { return r*cols + c }
	seen := make(map[[2]int]bool)
	add := func(u, v int) {
		if u == v || seen[[2]int{u, v}] {
			return
		}
		seen[[2]int{u, v}] = true
		seen[[2]int{v, u}] = true
		t.Edges = addBoth(t.Edges, u, v)
	}
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			add(id(r, c), id(r, (c+1)%cols))
			add(id(r, c), id((r+1)%rows, c))
		}
	}
	return t
}

// Hypercube returns the dim-dimensional binary hypercube on 2^dim nodes:
// nodes are joined when their IDs differ in exactly one bit. Degree =
// dim = log2 n, the canonical "d = O(log n)" topology of the paper's
// comparison discussion.
func Hypercube(dim int) *Topology {
	n := 1 << dim
	t := &Topology{Name: fmt.Sprintf("hypercube-%d", dim), N: n}
	for u := 0; u < n; u++ {
		for b := 0; b < dim; b++ {
			v := u ^ (1 << b)
			if u < v {
				t.Edges = addBoth(t.Edges, u, v)
			}
		}
	}
	return t
}

// ShuffleNet returns the (p, stages) ShuffleNet — the classic WDM
// multihop logical topology (Acampora & Karol): stages columns of p^stages
// nodes each, column c node i linking to the p perfect-shuffle successors
// in column (c+1) mod stages. All links are unidirectional, giving a
// regular digraph with out-degree p and n = stages·p^stages nodes.
func ShuffleNet(p, stages int) *Topology {
	if p < 1 {
		p = 1
	}
	if stages < 1 {
		stages = 1
	}
	col := 1
	for i := 0; i < stages; i++ {
		col *= p
	}
	t := &Topology{Name: fmt.Sprintf("shufflenet-%d-%d", p, stages), N: stages * col}
	id := func(c, i int) int { return c*col + i }
	for c := 0; c < stages; c++ {
		next := (c + 1) % stages
		for i := 0; i < col; i++ {
			// Perfect shuffle: node i connects to (i*p + j) mod col.
			// Degenerate single-stage nets would self-loop; skip those.
			for j := 0; j < p; j++ {
				u, v := id(c, i), id(next, (i*p+j)%col)
				if u != v {
					t.Edges = append(t.Edges, [2]int{u, v})
				}
			}
		}
	}
	return t
}
