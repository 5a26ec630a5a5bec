package graph

import (
	"fmt"

	"lightpath/internal/heap/fibheap"
)

// QueueKind selects the priority structure driving Dijkstra's algorithm.
// The choice changes the time bound, not the result. The zero value is
// the served policy; the other kinds are ablation and reference subjects.
//
//	QueueBucket     O(m + n + D/W)   — cyclic bucket array of width W ≤ the
//	                                   lightest hop, D the largest distance;
//	                                   goal-less searches only (bucket.go) —
//	                                   with goals it is QueueBinary
//	QueueFibonacci  O(m + n·log n)   — the bound Theorem 1 cites
//	QueueBinary     O((m+n)·log n)   — what every search with a goal runs on
//	QueueLinear     O(n² + m)        — the CFZ-era baseline structure
type QueueKind int

// Supported queue kinds.
const (
	QueueBucket QueueKind = iota
	QueueFibonacci
	QueueBinary
	QueueLinear
)

// String implements fmt.Stringer.
func (k QueueKind) String() string {
	switch k {
	case QueueBucket:
		return "bucket"
	case QueueFibonacci:
		return "fibonacci"
	case QueueBinary:
		return "binary"
	case QueueLinear:
		return "linear"
	default:
		return fmt.Sprintf("QueueKind(%d)", int(k))
	}
}

// ShortestPathTree holds the result of a single-source run: per-node
// distances, the predecessor node, and the index of the arc used to enter
// each node (into Out(parent)), so callers can recover arc tags.
type ShortestPathTree struct {
	Source  int // the single source, or -1 for a multi-seed tree
	Dist    []float64
	Parent  []int32 // -1 when unreached or a seed
	ViaArc  []int32 // index into Out(Parent[v]); -1 when unreached
	Settled int     // queue pops, including the equal-key (A*: equal-f) drain of a goal stop (QueueBucket: scans); pass-through nodes are never popped
	Relaxed int     // number of arc relaxations attempted
	Queued  int     // queue writes: insertions and key decreases (QueueBucket: pushes); pass-through nodes are never queued

	seeds []int
}

// Reached reports whether v was reached from the source.
func (t *ShortestPathTree) Reached(v int) bool {
	return v >= 0 && v < len(t.Dist) && Finite(t.Dist[v])
}

// ArcsTo reconstructs the sequence of (node, arc-index) hops from the
// source to v; each entry identifies the arc Out(node)[idx] taken.
func (t *ShortestPathTree) ArcsTo(v int) ([]HopRef, error) {
	if !t.Reached(v) {
		return nil, fmt.Errorf("%w: to node %d", ErrNoPath, v)
	}
	return HopsTo(t.Parent, t.ViaArc, v), nil
}

// HopsTo walks a search tree's parent and via-arc arrays from v back to
// its seed (the first node with parent < 0) and returns the hops seed..v
// in forward order. It is the one reconstruction behind ArcsTo and behind
// callers that retain only these two arrays of a tree; v must have been
// reached by the search that filled them.
func HopsTo(parent, via []int32, v int) []HopRef {
	n := 0
	for u := v; parent[u] >= 0; u = int(parent[u]) {
		n++
	}
	hops := make([]HopRef, n)
	for u := v; parent[u] >= 0; u = int(parent[u]) {
		n--
		hops[n] = HopRef{From: int(parent[u]), ArcIndex: int(via[u])}
	}
	return hops
}

// HopRef identifies one arc on a reconstructed path: the arc
// Out(From)[ArcIndex].
type HopRef struct {
	From     int
	ArcIndex int
}

// Dijkstra computes single-source shortest paths from src on the given
// queue kind, on a fresh scratch, so the caller may retain the tree
// (AddArc rejects negative weights, which Dijkstra requires). A goal >= 0
// stops it under DijkstraSeedsUntilScratch's rule; goal < 0 runs it out.
func Dijkstra(g *Digraph, src int, goal int, kind QueueKind) (*ShortestPathTree, error) {
	var goals []int
	if goal >= 0 {
		goals = []int{goal}
	}
	return searchScratch(g, []int{src}, goals, kind, -1, nil, nil, nil, Inf)
}

// goalStop is the stopping rule of DijkstraSeedsUntilScratch, shared by
// every queue kind and by A* (keyed on f): each engine asks past before
// settling a popped node and calls settle once it has.
type goalStop struct {
	mark  []bool  // mark[v] reports v is a goal; nil runs to exhaustion
	hit   bool    // a goal has been settled
	dstar float64 // its key
}

// past reports whether a node popped at key k lies beyond the search:
// a goal is settled and k has left its key's plateau (keys pop in
// non-decreasing order, so k != d* means k > d*).
func (gs *goalStop) past(k float64) bool { return gs.hit && k != gs.dstar }

// settle notes that u was settled at key k.
func (gs *goalStop) settle(u int, k float64) {
	if !gs.hit && gs.mark != nil && gs.mark[u] {
		gs.hit, gs.dstar = true, k
	}
}

// dijkstraBinInto is the binary-heap engine over the scratch's heap and
// settled set (seedTree cleared both), so pooled callers drive it
// without per-query allocation. With goals — a point query, plain or
// A* — it lists every node whose tree entry it first writes in
// sc.touched, so the next query on sc resets those alone; a goal-less
// tree writes most of the graph and leaves sc to be cleared whole.
//
// pass, when non-nil, is the pass-through mask (one entry per node): a
// node in it never enters the heap. When a relaxation improves it, its
// Dist/Parent/ViaArc are written as for any node and its own out-arcs
// are relaxed at once with the new distance; masked seeds are expanded
// up front. That is Dijkstra on the graph with the masked nodes
// contracted away (u → m → v at weight (d + w(u,m)) + w(m,v), the
// association an uncontracted run sums in), so every distance is
// bit-identical to a nil-mask run; only the choice among equal-cost
// parents may differ, because the heap breaks ties over a different push
// sequence. Settled counts heap pops, so never a masked node; Relaxed
// counts a masked node's out-arcs once per improvement.
//
// pot, when non-nil, makes the search A*: a queued node's key is
// f(v) = Dist[v] + pot(v), relaxation reads Dist[u] and the goal stop
// the popped f. pot must be a consistent lower bound on the distance to
// the goal set (pot(u) ≤ w(u,v) + pot(v) on every arc) and 0 on every
// goal; then A* is Dijkstra on the reduced weights w(u,v) + pot(v) −
// pot(u) ≥ 0, the contraction above is that Dijkstra's, and a goal's f is
// its distance, so the stopping rule and its exactness carry over with f
// for the key. A node whose potential is +Inf provably cannot reach a
// goal and is never written, masked or not. DESIGN.md §14 has the proof.
//
// ceiling (+Inf for none) caps the keys: a write whose f = nd + pot(v)
// (nd alone without a potential) exceeds it is skipped, masked or not,
// and so is a seed whose f does. A goal stop pops no key above d*, and
// along a consistent potential f never falls, so a ceiling at or above
// every key the search pops — the caller's price of one real path to a
// goal, with a margin for the rounding of f — leaves every popped node,
// its distance and the goal's the same and only queues fewer nodes. A
// ceiling below d* reaches no goal. DESIGN.md §14 has this proof too.
func dijkstraBinInto(g *Digraph, t *ShortestPathTree, gs *goalStop, sc *Scratch, pass []bool, pot func(int) float64, ceiling float64) error {
	b := binSearch{g: g, t: t, sc: sc, pass: pass, pot: pot, ceiling: ceiling, list: gs.mark != nil}
	h := sc.heap
	h.Reset()
	sc.sparse = b.list // seedTree listed the seeds; relax lists the rest
	for _, s := range t.seeds {
		f := 0.0
		if pot != nil {
			if f = pot(s); IsInf(f) {
				continue // s provably cannot reach a goal
			}
		}
		if f > ceiling {
			continue
		}
		if pass != nil && pass[s] {
			if err := b.relax(s, 0); err != nil {
				return err
			}
			continue
		}
		t.Queued++
		if _, err := h.PushOrDecrease(s, f); err != nil {
			return err
		}
	}
	for !h.Empty() {
		u, fu, err := h.Pop()
		if err != nil {
			return err
		}
		if gs.past(fu) {
			return nil
		}
		sc.done[u] = true
		t.Settled++
		gs.settle(u, fu)
		if err := b.relax(u, t.Dist[u]); err != nil {
			return err
		}
	}
	return nil
}

// binSearch is what dijkstraBinInto's relaxation reads: one search's
// graph, tree, scratch, mask, potential and ceiling, and whether it lists
// its first writes.
type binSearch struct {
	g       *Digraph
	t       *ShortestPathTree
	sc      *Scratch
	pass    []bool
	pot     func(int) float64
	ceiling float64
	list    bool
}

// relax scans u's out-arcs at distance du. It recurses through masked
// nodes only, and that ends because each step is a strict improvement.
func (b *binSearch) relax(u int, du float64) error {
	t, sc := b.t, b.sc
	for i, a := range b.g.Out(u) {
		v := int(a.To)
		if sc.done[v] {
			continue
		}
		t.Relaxed++
		nd := du + a.Weight
		if !(nd < t.Dist[v]) {
			continue
		}
		hv := 0.0
		if b.pot != nil {
			if hv = b.pot(v); IsInf(hv) {
				continue // v provably cannot reach a goal
			}
		}
		f := nd + hv
		if f > b.ceiling {
			continue // v could never pop: its key is above every key the search pops
		}
		if b.list && IsInf(t.Dist[v]) {
			sc.touched = append(sc.touched, int32(v))
		}
		t.Dist[v] = nd
		t.Parent[v] = int32(u)
		t.ViaArc[v] = int32(i)
		if b.pass != nil && b.pass[v] {
			if err := b.relax(v, nd); err != nil {
				return err
			}
			continue
		}
		t.Queued++
		if _, err := sc.heap.PushOrDecrease(v, f); err != nil {
			return err
		}
	}
	return nil
}

// ablationQueue is what ablationTree asks of its priority queue — the
// shape of arrayq, which fibQueue gives the Fibonacci heap.
type ablationQueue interface {
	PushOrDecrease(v int, key float64) bool
	Pop() (v int, key float64, err error)
	Empty() bool
}

// ablationTree is Dijkstra on one of the two queues the paper's bounds
// are stated for — QueueFibonacci (Theorem 1) and QueueLinear (the CFZ
// baseline) — into t, with done the cleared settled set. It takes no
// pass-through mask: every node reached is queued and popped.
func ablationTree(g *Digraph, t *ShortestPathTree, gs *goalStop, q ablationQueue, done []bool) error {
	for _, s := range t.seeds {
		t.Queued++
		q.PushOrDecrease(s, 0)
	}
	for !q.Empty() {
		u, du, err := q.Pop()
		if err != nil {
			return err
		}
		if gs.past(du) {
			return nil
		}
		done[u] = true
		t.Settled++
		gs.settle(u, du)
		for i, a := range g.Out(u) {
			v := int(a.To)
			if done[v] {
				continue
			}
			t.Relaxed++
			nd := du + a.Weight
			if nd < t.Dist[v] {
				t.Dist[v] = nd
				t.Parent[v] = int32(u)
				t.ViaArc[v] = int32(i)
				t.Queued++
				q.PushOrDecrease(v, nd)
			}
		}
	}
	return nil
}

// fibQueue is the Fibonacci heap behind ablationQueue: node holds the
// handle of every queued node, so a lower key is a DecreaseKey.
type fibQueue struct {
	*fibheap.Heap
	node []*fibheap.Node
}

func (q *fibQueue) PushOrDecrease(v int, key float64) bool {
	if x := q.node[v]; x != nil {
		// x is queued (Pop drops its handle) and the key is lower, so
		// DecreaseKey has no error to return.
		return key < x.Key() && q.DecreaseKey(x, key) == nil
	}
	q.node[v] = q.Insert(key, int64(v))
	return true
}

func (q *fibQueue) Pop() (int, float64, error) {
	x, err := q.ExtractMin()
	if err != nil {
		return 0, 0, err
	}
	q.node[x.Value()] = nil
	return int(x.Value()), x.Key(), nil
}

// BellmanFord computes single-source shortest paths by edge relaxation in
// rounds. It is the reference oracle in tests (no priority queue to get
// wrong) and mirrors the synchronous message-passing algorithm the
// distributed implementation executes. Returns the tree and the number of
// rounds until quiescence.
func BellmanFord(g *Digraph, src int) (*ShortestPathTree, int, error) {
	n := g.NumNodes()
	if src < 0 || src >= n {
		return nil, 0, fmt.Errorf("%w: source %d", ErrNodeRange, src)
	}
	t := &ShortestPathTree{
		Source: src,
		Dist:   make([]float64, n),
		Parent: make([]int32, n),
		ViaArc: make([]int32, n),
	}
	for i := range t.Dist {
		t.Dist[i] = Inf
		t.Parent[i] = -1
		t.ViaArc[i] = -1
	}
	t.Dist[src] = 0
	rounds := 0
	for changed := true; changed; {
		changed = false
		rounds++
		if rounds > n+1 {
			return nil, rounds, fmt.Errorf("graph: negative cycle detected (impossible with non-negative weights)")
		}
		for u := 0; u < n; u++ {
			du := t.Dist[u]
			if IsInf(du) {
				continue
			}
			for i, a := range g.Out(u) {
				t.Relaxed++
				if nd := du + a.Weight; nd < t.Dist[a.To] {
					t.Dist[a.To] = nd
					t.Parent[a.To] = int32(u)
					t.ViaArc[a.To] = int32(i)
					changed = true
				}
			}
		}
	}
	t.Settled = n
	return t, rounds, nil
}
