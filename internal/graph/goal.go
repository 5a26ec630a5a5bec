package graph

import (
	"fmt"

	"lightpath/internal/heap/binheap"
)

// This file implements the goal-directed single-pair search kernels:
// bidirectional Dijkstra (meet-in-the-middle over the graph and its
// reverse) and A* (potential-shifted Dijkstra under a caller-supplied
// lower bound). Both return exactly the costs plain Dijkstra computes —
// they only settle fewer nodes getting there. DESIGN.md §14 carries the
// stopping-rule and admissibility arguments.
//
// Both kernels run on the binary-heap engine regardless of the caller's
// configured QueueKind: the alternation loop (bidirectional) and the
// shifted keys (A*) are built against the indexed binheap, whose flat
// backing store is what the zero-allocation Scratch reuse relies on, and
// both stop on a rule that reads the pop order — which is also why a
// plain search with goals runs the heap under QueueBucket. QueueKind
// remains the asymptotics knob for the full-tree engines.

// BidiTree is the result of one bidirectional run: the forward tree from
// the seed set over g, the backward tree from the goal set over g's
// reverse, and the node the optimal path was stitched at. When the trees
// are scratch-backed they alias the scratch and are invalidated by its
// next query, so extract the path before releasing the scratch.
type BidiTree struct {
	Fwd  *ShortestPathTree // forward distances in g (seeds at 0)
	Bwd  *ShortestPathTree // backward distances in rev (goals at 0)
	Meet int               // stitch node of an optimal path, -1 if none

	Settled int // pops, both frontiers combined
	Relaxed int // arc relaxations, both frontiers combined
}

// Reached reports whether any seed→goal path was found.
func (bt *BidiTree) Reached() bool { return bt.Meet >= 0 }

// Cost returns the optimal seed→goal distance (+Inf when disconnected).
// The value is df(meet)+db(meet); callers that must match plain
// Dijkstra's floating-point accumulation bit-for-bit should re-sum the
// extracted path in forward order with PathCost instead.
func (bt *BidiTree) Cost() float64 {
	if bt.Meet < 0 {
		return Inf
	}
	return bt.Fwd.Dist[bt.Meet] + bt.Bwd.Dist[bt.Meet]
}

// Path reconstructs the optimal seed→goal path as forward-graph hop
// references: the forward tree's chain into Meet, then the backward
// chain out of Meet mapped back onto g's arcs. Each backward tree arc
// rev.Out(u)[i] (u→v in rev) is some arc v→u of g with identical weight
// and tag; with parallel arcs any matching one is cost-identical, and
// the first match is taken deterministically.
func (bt *BidiTree) Path(g, rev *Digraph) ([]HopRef, error) {
	if bt.Meet < 0 {
		return nil, fmt.Errorf("%w: bidirectional search found no meet", ErrNoPath)
	}
	hops, err := bt.Fwd.ArcsTo(bt.Meet)
	if err != nil {
		return nil, err
	}
	for v := bt.Meet; bt.Bwd.Parent[v] >= 0; {
		u := int(bt.Bwd.Parent[v])
		ra := rev.Out(u)[bt.Bwd.ViaArc[v]]
		idx := -1
		for i, a := range g.Out(v) {
			if int(a.To) == u && a.Weight == ra.Weight && a.Tag == ra.Tag {
				idx = i
				break
			}
		}
		if idx < 0 {
			return nil, fmt.Errorf("graph: reverse arc %d->%d (w=%v tag=%d) missing from forward graph", v, u, ra.Weight, ra.Tag)
		}
		hops = append(hops, HopRef{From: v, ArcIndex: idx})
		v = u
	}
	return hops, nil
}

// PathCost sums the weights of a hop sequence in forward order — the
// same left-to-right accumulation plain Dijkstra performs along the
// path, so equal paths produce bit-identical costs.
func PathCost(g *Digraph, hops []HopRef) float64 {
	cost := 0.0
	for _, h := range hops {
		cost += g.Out(h.From)[h.ArcIndex].Weight
	}
	return cost
}

// BidirectionalDijkstra finds a shortest path from the seed set (all at
// distance 0 in g) to the goal set (all at distance 0 in rev, g's
// reverse) by running the two frontiers against each other and stopping
// when the best stitched path provably cannot improve: topF + topB ≥ µ,
// where topF/topB are the frontiers' minimum keys and µ the best
// df(v)+db(v) seen so far. On large graphs this settles a fraction of
// what a single-source pass settles while returning equal costs.
//
// rev must be the exact reverse of g (Digraph.Reverse); the caller owns
// keeping the pair coherent (core caches the reverse per epoch).
func BidirectionalDijkstra(g, rev *Digraph, seeds, goals []int) (*BidiTree, error) {
	return BidirectionalDijkstraScratch(g, rev, seeds, goals, nil, nil)
}

// BidirectionalDijkstraScratch is BidirectionalDijkstra computing into
// caller-pooled scratch (forward into scF, backward into scB) so
// steady-state point queries allocate only the small BidiTree shell.
// Nil or wrong-sized scratches fall back to fresh allocation. The
// returned trees alias the scratches when provided.
func BidirectionalDijkstraScratch(g, rev *Digraph, seeds, goals []int, scF, scB *Scratch) (*BidiTree, error) {
	n := g.NumNodes()
	if rev == nil || rev.NumNodes() != n {
		return nil, fmt.Errorf("%w: reverse graph size mismatch", ErrNodeRange)
	}
	tf, hf, doneF, err := bidiSide(g, seeds, scF)
	if err != nil {
		return nil, err
	}
	tb, hb, doneB, err := bidiSide(rev, goals, scB)
	if err != nil {
		return nil, err
	}
	bt := &BidiTree{Fwd: tf, Bwd: tb, Meet: -1}

	// µ tracking: any node with finite tentative distance on both sides
	// witnesses a real seed→goal path of cost df(v)+db(v). Seeds and
	// goals start at 0, so a seed∩goal node yields µ=0 immediately.
	mu := Inf
	for _, gl := range goals {
		if Finite(tf.Dist[gl]) {
			if cand := tf.Dist[gl] + tb.Dist[gl]; cand < mu {
				mu, bt.Meet = cand, gl
			}
		}
	}

	for {
		_, topF, okF := hf.Min()
		_, topB, okB := hb.Min()
		if !okF && !okB {
			break
		}
		if Finite(mu) {
			// Stopping rule: every undiscovered seed→goal path costs at
			// least topF+topB (DESIGN.md §14), so once that bound reaches
			// µ the best stitched path is final. An exhausted frontier
			// contributes 0, not +Inf: its distances are final, so the
			// remaining bound is just the live side's top key.
			lb := 0.0
			if okF {
				lb += topF
			}
			if okB {
				lb += topB
			}
			if lb >= mu {
				break
			}
		}
		// Expand the cheaper frontier; ties and single-sided progress
		// default forward.
		if okF && (!okB || topF <= topB) {
			mu = bidiExpand(g, tf, tb, hf, doneF, bt, mu)
		} else {
			mu = bidiExpand(rev, tb, tf, hb, doneB, bt, mu)
		}
	}
	bt.Settled = tf.Settled + tb.Settled
	bt.Relaxed = tf.Relaxed + tb.Relaxed
	return bt, nil
}

// bidiSide prepares one frontier: a seed tree backed by sc (or by fresh
// scratch when sc is nil or wrong-sized) plus its heap and settled set,
// with every seed pushed at 0.
func bidiSide(g *Digraph, seeds []int, sc *Scratch) (*ShortestPathTree, *binheap.Heap, []bool, error) {
	if sc == nil || sc.n != g.NumNodes() {
		sc = NewScratch(g.NumNodes())
	}
	t, err := sc.seedTree(seeds)
	if err != nil {
		return nil, nil, nil, err
	}
	h, done := sc.queue()
	for _, s := range t.seeds {
		if _, err := h.PushOrDecrease(s, 0); err != nil {
			return nil, nil, nil, err
		}
	}
	return t, h, done, nil
}

// bidiExpand settles one node of the `mine` frontier and relaxes its
// arcs, updating µ whenever a relaxation lands on a node the `other`
// frontier has reached. Returns the (possibly improved) µ.
func bidiExpand(g *Digraph, mine, other *ShortestPathTree, h *binheap.Heap, done []bool, bt *BidiTree, mu float64) float64 {
	u, du, err := h.Pop()
	if err != nil {
		return mu // unreachable: caller checked Min
	}
	done[u] = true
	mine.Settled++
	for i, a := range g.Out(u) {
		v := int(a.To)
		if done[v] {
			continue
		}
		mine.Relaxed++
		nd := du + a.Weight
		if nd < mine.Dist[v] {
			mine.Dist[v] = nd
			mine.Parent[v] = int32(u)
			mine.ViaArc[v] = int32(i)
			if _, err := h.PushOrDecrease(v, nd); err != nil {
				return mu
			}
			if od := other.Dist[v]; Finite(od) && nd+od < mu {
				mu = nd + od
				bt.Meet = v
			}
		}
	}
	return mu
}

// AStarSeedsUntil is DijkstraSeedsUntil driven by a potential function:
// the heap is keyed on f(v) = dist(v) + pot(v), where pot must be an
// admissible and consistent lower bound on the distance from v to the
// goal set (pot(u) ≤ w(u,v) + pot(v) on every arc) and exactly 0 on
// every goal. Under those conditions every settled node's distance is
// exact, f never decreases along a shortest path, and a goal's f is its
// distance — so DijkstraSeedsUntil's stopping rule carries over with f
// in place of the key: stop once the first goal is settled and the queue
// minimum has left its f. The minimum over the goals and the lowest-index
// goal attaining it match an exhaustive A* run; the search merely settles
// far fewer nodes on the way.
//
// A +Inf potential marks a node that provably cannot reach any goal;
// such nodes are never queued. pot is called once per improving
// relaxation plus once per seed.
func AStarSeedsUntil(g *Digraph, seeds, goals []int, pot func(int) float64) (*ShortestPathTree, error) {
	return AStarSeedsUntilScratch(g, seeds, goals, pot, nil)
}

// AStarSeedsUntilScratch is AStarSeedsUntil computing into sc so pooled
// callers run the whole search without heap allocation (the returned
// tree aliases sc, like DijkstraSeedsUntilScratch). A nil or wrong-sized
// scratch falls back to fresh allocation.
func AStarSeedsUntilScratch(g *Digraph, seeds, goals []int, pot func(int) float64, sc *Scratch) (*ShortestPathTree, error) {
	n := g.NumNodes()
	if pot == nil {
		return nil, fmt.Errorf("graph: nil potential for A*")
	}
	for _, gl := range goals {
		if gl < 0 || gl >= n {
			return nil, fmt.Errorf("%w: goal %d", ErrNodeRange, gl)
		}
	}
	if sc == nil || sc.n != n {
		sc = NewScratch(n)
	}
	t, err := sc.seedTree(seeds)
	if err != nil {
		return nil, err
	}
	h, done := sc.queue()
	gs := sc.goalStop(goals)
	defer sc.clearGoals(goals)
	// Every first write below is recorded before it is made, so the list
	// is complete on every way out.
	sc.sparse = true
	for _, s := range t.seeds {
		hs := pot(s)
		if IsInf(hs) {
			continue // seed provably cannot reach any goal
		}
		if _, err := h.PushOrDecrease(s, hs); err != nil {
			return nil, err
		}
	}
	for !h.Empty() {
		u, fu, err := h.Pop()
		if err != nil {
			return nil, err
		}
		if gs.past(fu) {
			return t, nil
		}
		done[u] = true
		t.Settled++
		gs.settle(u, fu)
		du := t.Dist[u]
		for i, a := range g.Out(u) {
			v := int(a.To)
			if done[v] {
				continue
			}
			t.Relaxed++
			nd := du + a.Weight
			if nd < t.Dist[v] {
				hv := pot(v)
				if IsInf(hv) {
					continue // v provably cannot reach any goal
				}
				if IsInf(t.Dist[v]) {
					sc.touched = append(sc.touched, int32(v))
				}
				t.Dist[v] = nd
				t.Parent[v] = int32(u)
				t.ViaArc[v] = int32(i)
				if _, err := h.PushOrDecrease(v, nd+hv); err != nil {
					return nil, err
				}
			}
		}
	}
	return t, nil
}

// ZeroPotential is the trivial admissible potential: A* with it is
// exactly Dijkstra. Exported for tests and as the documented fallback.
func ZeroPotential(int) float64 { return 0 }
