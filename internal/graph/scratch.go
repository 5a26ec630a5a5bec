package graph

import (
	"fmt"

	"lightpath/internal/heap/arrayq"
	"lightpath/internal/heap/binheap"
	"lightpath/internal/heap/fibheap"
)

// Scratch is the reusable state of one Dijkstra pass over a graph of a
// fixed node count: the distance/parent/via arrays of the result tree,
// the settled set, the binary-heap backing store and the goal-set
// bookkeeping. Query layers pool Scratch values (one pool per graph
// size) so a steady stream of point queries performs zero heap
// allocation inside the search.
//
// A Scratch serves one query at a time; the tree returned by
// DijkstraSeedsUntilScratch aliases the scratch and is invalidated by
// the next query on the same scratch. It is not safe for concurrent
// use — concurrency comes from pooling, not sharing.
type Scratch struct {
	n      int
	dist   []float64
	parent []int32
	via    []int32
	done   []bool
	heap   *binheap.Heap
	bucket *BucketQueue // built by the first QueueBucket search

	goalMark []bool // all false between queries

	// While sparse is set, touched lists every node whose dist, parent,
	// via or done entry differs from its initial value, and the next
	// seedTree resets those alone. The binary engine earns that on a
	// search with goals by recording each node it first writes (a point
	// query, plain or A*, writes a few hundred of |V′| entries); after
	// any other search the next query clears all n.
	touched []int32
	sparse  bool

	tree ShortestPathTree
}

// NewScratch returns scratch state for graphs of exactly n nodes.
func NewScratch(n int) *Scratch {
	return &Scratch{
		n:        n,
		dist:     make([]float64, n),
		parent:   make([]int32, n),
		via:      make([]int32, n),
		done:     make([]bool, n),
		heap:     binheap.New(n),
		goalMark: make([]bool, n),
	}
}

// seedTree validates seeds and initializes the scratch-backed tree and
// settled set with every seed at distance 0.
func (sc *Scratch) seedTree(seeds []int) (*ShortestPathTree, error) {
	if len(seeds) == 0 {
		return nil, fmt.Errorf("%w: no seeds", ErrNodeRange)
	}
	for _, s := range seeds {
		if s < 0 || s >= sc.n {
			return nil, fmt.Errorf("%w: seed %d", ErrNodeRange, s)
		}
	}
	t := &sc.tree
	t.Source = -1
	if len(seeds) == 1 {
		t.Source = seeds[0]
	}
	t.Dist, t.Parent, t.ViaArc = sc.dist, sc.parent, sc.via
	t.Settled, t.Relaxed, t.Queued = 0, 0, 0
	t.seeds = seeds
	if sc.sparse {
		for _, v := range sc.touched {
			sc.dist[v], sc.parent[v], sc.via[v], sc.done[v] = Inf, -1, -1, false
		}
	} else {
		for i := range sc.dist {
			sc.dist[i], sc.parent[i], sc.via[i], sc.done[i] = Inf, -1, -1, false
		}
	}
	sc.touched, sc.sparse = sc.touched[:0], false
	for _, s := range seeds {
		sc.dist[s] = 0
		sc.touched = append(sc.touched, int32(s))
	}
	return t, nil
}

// DijkstraSeedsUntilScratch computes shortest paths from a set of seed
// nodes, all at distance 0 (a virtual super source), into sc. The tree's
// Source is the seed when there is exactly one, and -1 otherwise.
//
// With goals the search stops once a goal is settled and the queue
// minimum has left that goal's key d*: every node at distance ≤ d* then
// has an exhaustive run's distance and parent, so the best goal is exact
// and every other distance is tentative or Inf (DESIGN.md §14 has the
// proof). With no goals, or none reachable, it runs to exhaustion.
//
// The tree aliases sc until the next query on it. A nil or wrong-sized
// scratch is replaced by a fresh one, so callers pass whatever their
// pool handed them, and a nil one yields a tree the caller may retain.
//
// The binary queue reuses the scratch's heap and settled set, the bucket
// queue its entry array; the two ablation queues reuse the tree arrays and
// the settled set but build their own queue per call (the Fibonacci
// heap's handle graph cannot be recycled flatly). QueueBucket with goals
// runs the binary queue, and without them sizes its buckets from g's arc
// weights on every call — a caller that knows its weight range uses
// BucketTreeScratch.
//
// pass is the binary and bucket queues' optional pass-through mask (see
// dijkstraBinInto): one entry per node, true for nodes that forward an
// improved distance along their out-arcs instead of being queued. No
// goal may be masked — a masked node is never settled, so the stopping
// rule would not see it. The ablation queues search unmasked whatever
// pass holds; distances are the same either way.
//
// pot, when non-nil, is A*'s potential (see dijkstraBinInto): a
// consistent lower bound on the distance to the goal set, 0 on every
// goal, +Inf on nodes that cannot reach one. It returns the distances a
// nil pot does at every goal it stops on, settling fewer nodes, and
// runs on the binary engine whatever kind says; nil is plain Dijkstra.
//
// ceiling caps the keys the search writes (see dijkstraBinInto): +Inf
// for none. A finite ceiling runs the binary engine whatever kind says;
// one at or above d*, widened by a margin for the rounding of keys
// (exact sums need none), changes no distance the search stops on, nor
// Settled, and only queues fewer nodes.
func DijkstraSeedsUntilScratch(g *Digraph, seeds, goals []int, kind QueueKind, sc *Scratch, pass []bool, pot func(int) float64, ceiling float64) (*ShortestPathTree, error) {
	return searchScratch(g, seeds, goals, kind, -1, sc, pass, pot, ceiling)
}

// BucketTreeScratch is the goal-less search of QueueBucket computing into
// sc, with the bucket width given by the caller (BucketWidth of its hop
// bounds). The width is a performance hint only: any value returns the
// distances DijkstraSeedsUntilScratch returns, bit for bit, and a wrong
// one shows as Settled — scans — above the number of nodes reached. The
// returned tree aliases sc; a nil or wrong-sized scratch is replaced by a
// fresh one.
func BucketTreeScratch(g *Digraph, seeds []int, width float64, sc *Scratch, pass []bool) (*ShortestPathTree, error) {
	return searchScratch(g, seeds, nil, QueueBucket, width, sc, pass, nil, Inf)
}

// searchScratch is the body of every Dijkstra entry point and the one
// dispatch on QueueKind: width is the bucket queue's, and a negative one
// is replaced by arcWidth(g).
func searchScratch(g *Digraph, seeds, goals []int, kind QueueKind, width float64, sc *Scratch, pass []bool, pot func(int) float64, ceiling float64) (*ShortestPathTree, error) {
	n := g.NumNodes()
	if pass != nil && len(pass) != n {
		return nil, fmt.Errorf("graph: pass-through mask covers %d nodes of %d", len(pass), n)
	}
	for _, gl := range goals {
		if gl < 0 || gl >= n {
			return nil, fmt.Errorf("%w: goal %d", ErrNodeRange, gl)
		}
		if pass != nil && pass[gl] {
			return nil, fmt.Errorf("graph: goal %d is in the pass-through mask", gl)
		}
	}
	if sc == nil || sc.n != n {
		sc = NewScratch(n)
	}
	t, err := sc.seedTree(seeds)
	if err != nil {
		return nil, err
	}
	gs := sc.goalStop(goals)
	keyed := pot != nil || !IsInf(ceiling) // the search needs the binary engine's keys
	switch {
	case kind == QueueBucket && len(goals) == 0 && !keyed:
		if sc.bucket == nil {
			sc.bucket = NewBucketQueue()
		}
		if width < 0 {
			width = arcWidth(g)
		}
		bucketTree(g, t, sc.bucket, width, sc.done, pass)
	case kind == QueueBinary || kind == QueueBucket || keyed: // a goal stop needs the pop order, a potential or a ceiling the heap's keys
		err = dijkstraBinInto(g, t, &gs, sc, pass, pot, ceiling)
	case kind == QueueFibonacci:
		err = ablationTree(g, t, &gs, &fibQueue{fibheap.New(), make([]*fibheap.Node, n)}, sc.done)
	case kind == QueueLinear:
		err = ablationTree(g, t, &gs, arrayq.New(n), sc.done)
	default:
		err = fmt.Errorf("graph: unknown queue kind %d", int(kind))
	}
	sc.clearGoals(goals)
	return t, err
}

// goalStop marks goals (validated by the caller) in the scratch's goal
// set and returns the stopping rule over it; clearGoals undoes the marks.
func (sc *Scratch) goalStop(goals []int) goalStop {
	if len(goals) == 0 {
		return goalStop{}
	}
	for _, gl := range goals {
		sc.goalMark[gl] = true
	}
	return goalStop{mark: sc.goalMark}
}

func (sc *Scratch) clearGoals(goals []int) {
	for _, gl := range goals {
		sc.goalMark[gl] = false
	}
}
