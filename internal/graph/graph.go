// Package graph provides the directed-graph substrate shared by every
// algorithm in this repository: a compact adjacency-list digraph with
// non-negative float64 arc weights, plus single-source shortest-path
// engines backed by three interchangeable priority structures (Fibonacci
// heap, binary heap, linear scan).
//
// The auxiliary graphs the reproduction builds (G', G_{s,t}, G_all and
// the CFZ wavelength graph WG) are instances of Digraph; the engines
// here are what realize Theorem 1's O(m' + n'·log n') shortest-path step.
package graph

import (
	"errors"
	"fmt"
	"math"
)

// Inf is the weight used for "no connection". Arcs are never stored with
// weight Inf; it only appears in distance vectors.
var Inf = math.Inf(1)

// IsInf reports whether a cost or distance is the +Inf sentinel —
// "unreachable"/"unavailable", not a number. It and Finite are the only
// blessed ways to test against the sentinel (enforced by wdmlint's
// infcost analyzer): direct comparisons silently accept NaN and invite
// arithmetic on ∞.
func IsInf(w float64) bool { return math.IsInf(w, 1) }

// Finite reports whether a cost or distance is a real value rather than
// the +Inf sentinel.
func Finite(w float64) bool { return !math.IsInf(w, 1) }

// Errors returned by graph operations.
var (
	// ErrNodeRange is returned when a node ID is out of range.
	ErrNodeRange = errors.New("graph: node out of range")
	// ErrNegativeWeight is returned when adding an arc with negative weight.
	ErrNegativeWeight = errors.New("graph: negative arc weight")
	// ErrNoPath is returned when no path exists between the requested nodes.
	ErrNoPath = errors.New("graph: no path")
)

// Arc is a directed edge with a weight and an opaque payload Tag that
// callers use to map auxiliary-graph arcs back to their origin (a physical
// link + wavelength, or a conversion at a node). The 8-byte field leads
// so the two int32s pack behind it: 16 bytes, not 24 (pinned by
// TestArcSize) — four arcs per cache line in the relaxation loops.
type Arc struct {
	Weight float64
	To     int32
	Tag    int32
}

// The per-node spine is a persistent paged array: fixed pages of
// pageSize adjacency-list headers behind a page table. A copy-on-write
// clone copies the table only, and a write copies the one page it lands
// in, so patching a handful of nodes costs a few pages — not a spine of
// |V| slice headers. 32 headers are 768 bytes.
const (
	pageShift = 5
	pageSize  = 1 << pageShift
	pageMask  = pageSize - 1
)

type page [pageSize][]Arc

// Digraph is a directed graph over nodes 0..N-1 with weighted arcs stored
// in per-node adjacency lists. The zero value is an empty graph; use New
// to preallocate. Digraph is not safe for concurrent mutation, but any
// number of concurrent readers may share one.
type Digraph struct {
	pages []*page
	// owned[p] reports that pages[p] was allocated by this graph and may
	// be written in place. Every other page is shared with the graph this
	// one was cloned from and is copied on first write, so a page is only
	// ever written by the graph that copied it.
	owned []bool
	n     int
	arcs  int
}

// New returns a graph with n nodes and no arcs.
func New(n int) *Digraph {
	g := &Digraph{}
	g.AddNodes(n)
	return g
}

// NumNodes reports the number of nodes.
func (g *Digraph) NumNodes() int { return g.n }

// NumArcs reports the number of arcs.
func (g *Digraph) NumArcs() int { return g.arcs }

// AddNodes appends count fresh nodes and returns the ID of the first.
func (g *Digraph) AddNodes(count int) int {
	first := g.n
	g.n += count
	for len(g.pages)<<pageShift < g.n {
		g.pages = append(g.pages, new(page))
		g.owned = append(g.owned, true)
	}
	return first
}

// slot returns the writable adjacency header of u, copying u's page
// first when it is still shared with the graph this one was cloned from.
func (g *Digraph) slot(u int) *[]Arc {
	p := u >> pageShift
	if !g.owned[p] {
		cp := *g.pages[p]
		g.pages[p], g.owned[p] = &cp, true
	}
	return &g.pages[p][u&pageMask]
}

// AddArc inserts a directed arc from u to v with the given weight and tag.
// Parallel arcs are permitted: two links between one pair of nodes that
// share a wavelength give parallel arcs.
func (g *Digraph) AddArc(u, v int, weight float64, tag int32) error {
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		return fmt.Errorf("%w: arc %d->%d in graph of %d nodes", ErrNodeRange, u, v, g.n)
	}
	if weight < 0 || math.IsNaN(weight) {
		return fmt.Errorf("%w: arc %d->%d weight %v", ErrNegativeWeight, u, v, weight)
	}
	if math.IsInf(weight, 1) {
		// Infinite weight means "unavailable"; by convention we simply do
		// not store the arc, matching the paper's treatment of w = ∞.
		return nil
	}
	s := g.slot(u)
	*s = append(*s, Arc{To: int32(v), Weight: weight, Tag: tag})
	g.arcs++
	return nil
}

// Out returns the adjacency list of u. The returned slice is owned by the
// graph and must not be modified.
func (g *Digraph) Out(u int) []Arc { return g.pages[u>>pageShift][u&pageMask] }

// ClearOut removes every arc leaving u, retaining capacity. It exists so
// a reserved super-source node can be re-wired between routing queries.
func (g *Digraph) ClearOut(u int) {
	s := g.slot(u)
	g.arcs -= len(*s)
	*s = (*s)[:0]
}

// OutDegree reports the number of arcs leaving u.
func (g *Digraph) OutDegree(u int) int { return len(g.Out(u)) }

// CloneCOW returns a copy-on-write clone: the page table is copied and
// every page — hence every adjacency segment — is shared with g. The
// clone costs O(n/pageSize) pointers regardless of arc count; afterwards
// each write to the clone (ReplaceOut, AddArc, ClearOut) copies
// the page it lands in once and leaves g undisturbed. This is the
// structural-sharing primitive behind incremental auxiliary-graph
// maintenance — a chain of clones shares every untouched page with the
// compile that produced it.
//
// g must not be written after it has been cloned (its own pages are now
// shared), and pages are what is copied, not segments: AddArc on the
// clone appends into whatever spare capacity a shared segment has. The
// intended protocol is clone → patch via ReplaceOut → publish immutably.
func (g *Digraph) CloneCOW() *Digraph {
	return &Digraph{
		pages: append([]*page(nil), g.pages...),
		owned: make([]bool, len(g.pages)),
		n:     g.n,
		arcs:  g.arcs,
	}
}

// ReplaceOut swaps node u's entire adjacency segment for arcs, which the
// graph takes ownership of (the caller must not retain or mutate it).
// Arc weights and targets are validated like AddArc; infinite weights
// are rejected here rather than skipped, because the caller assembles
// the segment explicitly. Used with CloneCOW to patch a shared graph.
func (g *Digraph) ReplaceOut(u int, arcs []Arc) error {
	if u < 0 || u >= g.n {
		return fmt.Errorf("%w: replace out-arcs of %d in graph of %d nodes", ErrNodeRange, u, g.n)
	}
	if err := checkSegment(u, arcs, g.n); err != nil {
		return err
	}
	s := g.slot(u)
	g.arcs += len(arcs) - len(*s)
	*s = arcs
	return nil
}

// checkSegment validates node u's arcs in a graph of n nodes as an
// explicitly assembled segment must be: targets in range, weights
// non-negative and finite.
func checkSegment(u int, arcs []Arc, n int) error {
	for _, a := range arcs {
		if a.To < 0 || int(a.To) >= n {
			return fmt.Errorf("%w: arc %d->%d in graph of %d nodes", ErrNodeRange, u, a.To, n)
		}
		if a.Weight < 0 || math.IsNaN(a.Weight) || math.IsInf(a.Weight, 1) {
			return fmt.Errorf("%w: arc %d->%d weight %v", ErrNegativeWeight, u, a.To, a.Weight)
		}
	}
	return nil
}

// FromCSR returns a graph of len(ends) nodes whose adjacency lists are
// cut from one arc arena — the CSR (compressed sparse row) form the
// Dijkstra hot loop walks: node u's arcs are arena[ends[u-1]:ends[u]]
// (from 0 for u = 0), segments sit back to back in node order, and the
// last end is len(arena). Each segment is stored at full capacity, so an
// AddArc on the result reallocates that segment rather than bleeding
// into its neighbour, and the page table is one slab of pages. The graph
// takes ownership of arena; arcs are validated as ReplaceOut validates
// them, so an infinite weight is an error here too.
func FromCSR(arena []Arc, ends []int32) (*Digraph, error) {
	start := int32(0)
	for u, end := range ends {
		if end < start || int(end) > len(arena) {
			return nil, fmt.Errorf("%w: segment %d is [%d, %d) of %d arcs", ErrNodeRange, u, start, end, len(arena))
		}
		if err := checkSegment(u, arena[start:end], len(ends)); err != nil {
			return nil, err
		}
		start = end
	}
	if int(start) != len(arena) {
		return nil, fmt.Errorf("%w: segments cover %d of %d arcs", ErrNodeRange, start, len(arena))
	}
	return fromCSR(arena, ends), nil
}

// fromCSR is FromCSR on input known to be valid.
func fromCSR(arena []Arc, ends []int32) *Digraph {
	n := len(ends)
	np := (n + pageSize - 1) >> pageShift
	g := &Digraph{pages: make([]*page, np), owned: make([]bool, np), n: n, arcs: len(arena)}
	slab := make([]page, np)
	start := int32(0)
	for u, end := range ends {
		slab[u>>pageShift][u&pageMask] = arena[start:end:end]
		start = end
	}
	for p := range slab {
		g.pages[p], g.owned[p] = &slab[p], true
	}
	return g
}

// Reverse returns a new graph with every arc direction flipped, in CSR
// form (FromCSR): node v's arcs are the arcs into v in g, ordered by
// their source, then by their position in the source's list.
func (g *Digraph) Reverse() *Digraph {
	ends := make([]int32, g.n)
	for u := 0; u < g.n; u++ {
		for _, a := range g.Out(u) {
			ends[a.To]++
		}
	}
	// Exclusive prefix sums: ends[v] is where v's segment starts, and the
	// fill below advances it to where the segment ends.
	sum := int32(0)
	for v, c := range ends {
		ends[v], sum = sum, sum+c
	}
	arena := make([]Arc, sum)
	for u := 0; u < g.n; u++ {
		for _, a := range g.Out(u) {
			arena[ends[a.To]] = Arc{To: int32(u), Weight: a.Weight, Tag: a.Tag}
			ends[a.To]++
		}
	}
	return fromCSR(arena, ends)
}
