package graph

import (
	"fmt"

	"lightpath/internal/heap/binheap"
	"lightpath/internal/heap/fibheap"
)

// QueueKind selects the priority structure driving Dijkstra's algorithm.
// The choice changes the time bound, not the result:
//
//	QueueFibonacci  O(m + n·log n)   — the bound Theorem 1 cites
//	QueueBinary     O((m+n)·log n)   — what every search with a goal runs on
//	QueueLinear     O(n² + m)        — the CFZ-era baseline structure
//	QueueBucket     O(m + n + D/W)   — cyclic bucket array of width W ≤ the
//	                                   lightest hop, D the largest distance;
//	                                   goal-less searches only (bucket.go) —
//	                                   with goals it is QueueBinary
type QueueKind int

// Supported queue kinds.
const (
	QueueFibonacci QueueKind = iota + 1
	QueueBinary
	QueueLinear
	QueueBucket
)

// String implements fmt.Stringer.
func (k QueueKind) String() string {
	switch k {
	case QueueFibonacci:
		return "fibonacci"
	case QueueBinary:
		return "binary"
	case QueueLinear:
		return "linear"
	case QueueBucket:
		return "bucket"
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
	Settled int     // queue pops, including the equal-key drain of a goal stop (QueueBucket: scans); pass-through nodes are never popped
	Relaxed int     // number of arc relaxations attempted

	seeds []int
}

// Reached reports whether v was reached from the source.
func (t *ShortestPathTree) Reached(v int) bool {
	return v >= 0 && v < len(t.Dist) && Finite(t.Dist[v])
}

// PathTo reconstructs the node sequence seed..v, or ErrNoPath. For a
// single-source tree the path starts at Source; for a multi-seed tree it
// starts at whichever seed the parent chain reaches.
func (t *ShortestPathTree) PathTo(v int) ([]int, error) {
	if !t.Reached(v) {
		return nil, fmt.Errorf("%w: to node %d", ErrNoPath, v)
	}
	var rev []int
	for u := v; ; u = int(t.Parent[u]) {
		rev = append(rev, u)
		if t.Parent[u] < 0 {
			// Must be a seed (distance 0); anything else is corruption.
			if t.Dist[u] != 0 {
				return nil, fmt.Errorf("graph: broken parent chain at node %d", u)
			}
			break
		}
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev, nil
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

// Dijkstra computes single-source shortest paths from src using the given
// queue kind. Arc weights are guaranteed non-negative by construction
// (AddArc rejects negatives), which Dijkstra requires.
//
// If goal >= 0 the search stops once goal is settled, under the rule of
// DijkstraSeedsUntil with the one goal — distances of nodes not settled
// by then are not final. Pass goal < 0 for a full tree.
func Dijkstra(g *Digraph, src int, goal int, kind QueueKind) (*ShortestPathTree, error) {
	return DijkstraSeeds(g, []int{src}, goal, kind)
}

// DijkstraSeeds computes shortest paths from a *set* of seed nodes, all
// at distance 0 — equivalent to Dijkstra from a virtual super source
// wired to every seed with weight-0 arcs, without materializing it.
// The routing layer uses this to query the immutable auxiliary graph
// concurrently: the seeds are the Y_s shore of the query's source.
//
// The returned tree has Source set to the first seed when there is
// exactly one, and -1 otherwise; PathTo walks parents until it reaches
// any seed.
func DijkstraSeeds(g *Digraph, seeds []int, goal int, kind QueueKind) (*ShortestPathTree, error) {
	if goal < 0 {
		return DijkstraSeedsUntil(g, seeds, nil, kind)
	}
	return DijkstraSeedsUntil(g, seeds, []int{goal}, kind)
}

// DijkstraSeedsUntil is DijkstraSeeds with goal-SET early termination:
// the search is Dijkstra to a virtual super sink wired from every goal
// with weight-0 arcs, and that sink is settled the moment the first goal
// is. So the search notes the key d* of the first goal it settles, keeps
// settling while the queue minimum equals d*, and stops. On return every
// node at distance ≤ d* is settled with the distance and parent an
// exhaustive run would give it (nodes settled later pop at keys > d* and
// cannot improve either), so the minimum over the goals and the
// lowest-index goal attaining it are exact; every other distance is
// tentative or Inf. With no goals, or none reachable, the search runs to
// exhaustion. The routing layer uses it for point queries, where the
// goals are the X_t shore of the destination.
func DijkstraSeedsUntil(g *Digraph, seeds, goals []int, kind QueueKind) (*ShortestPathTree, error) {
	// The scratch is this call's alone, so the tree it returns is retainable.
	return searchScratch(g, seeds, goals, kind, -1, nil, nil)
}

// goalStop is the stopping rule of DijkstraSeedsUntil, shared by every
// queue kind and by A*: each engine asks past before settling a popped
// node and calls settle once it has.
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

// dijkstraBinInto is the binary-heap engine over caller-provided heap
// and settled-set storage (empty/cleared on entry), so pooled scratch
// can drive it without per-query allocation.
//
// pass, when non-nil, is the pass-through mask (one entry per node): a
// node in it never enters the heap. When a relaxation improves it, its
// Dist/Parent/ViaArc are written as for any node and its own out-arcs
// are relaxed at once with the new key; masked seeds are expanded up
// front. That is Dijkstra on the graph with the masked nodes contracted
// away (u → m → v at weight (d + w(u,m)) + w(m,v), the association an
// uncontracted run sums in), so every distance is bit-identical to a
// nil-mask run; only the choice among equal-cost parents may differ,
// because the heap breaks ties over a different push sequence. Settled
// counts heap pops, so never a masked node; Relaxed counts a masked
// node's out-arcs once per improvement.
func dijkstraBinInto(g *Digraph, t *ShortestPathTree, gs *goalStop, h *binheap.Heap, done, pass []bool) error {
	for _, s := range t.seeds {
		if pass != nil && pass[s] {
			if err := relaxBin(g, t, h, done, pass, s, 0); err != nil {
				return err
			}
		} else if _, err := h.PushOrDecrease(s, 0); err != nil {
			return err
		}
	}
	for !h.Empty() {
		u, du, err := h.Pop()
		if err != nil {
			return err
		}
		if gs.past(du) {
			return nil
		}
		done[u] = true
		t.Settled++
		gs.settle(u, du)
		if err := relaxBin(g, t, h, done, pass, u, du); err != nil {
			return err
		}
	}
	return nil
}

// relaxBin scans u's out-arcs at key du. It recurses through masked
// nodes only, and that ends because each step is a strict improvement.
func relaxBin(g *Digraph, t *ShortestPathTree, h *binheap.Heap, done, pass []bool, u int, du float64) error {
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
			if pass != nil && pass[v] {
				if err := relaxBin(g, t, h, done, pass, v, nd); err != nil {
					return err
				}
			} else if _, err := h.PushOrDecrease(v, nd); err != nil {
				return err
			}
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
