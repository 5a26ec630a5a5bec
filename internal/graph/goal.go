package graph

import "fmt"

// This file implements the goal-directed single-pair search kernel: A*
// (potential-shifted Dijkstra under a caller-supplied lower bound). It
// returns exactly the costs plain Dijkstra computes — it only settles
// fewer nodes getting there. DESIGN.md §14 carries the admissibility
// argument.
//
// The kernel runs on the binary-heap engine regardless of the caller's
// configured QueueKind: the shifted keys are built against the indexed
// binheap, whose flat backing store is what the zero-allocation Scratch
// reuse relies on, and the search stops on a rule that reads the pop
// order — which is also why a plain search with goals runs the heap under
// QueueBucket. QueueKind remains the asymptotics knob for the full-tree
// engines.

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
