package core

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"lightpath/internal/graph"
	"lightpath/internal/wdm"
)

// SourceTree is the result of one single-source run: the shortest
// semilightpaths from a fixed source to every reachable node, backed by
// the shortest-path tree of G_{s,·} (the G_all construction restricted to
// one super source, Corollary 1).
type SourceTree struct {
	aux    *Aux
	source int
	// parent and via are the search tree PathTo walks: the aux node each
	// aux node was reached from and the index of the arc taken in
	// Out(parent). parent < 0 marks a seed (or an unreached node, which no
	// bestX entry names). Aux-node distances are not retained.
	parent, via []int32
	// bestX[t] is the argmin aux node over X_t, or -1 when unreachable.
	bestX []int32
	dist  []float64 // CostsFrom's row: 0 at the source
	// settled counts the search's queue pops (bucket queue: scans), and
	// rescans those of them beyond one per X-shore node reached.
	settled, rescans int
}

// Rescans reports how many times the bucket-queue search scanned a node
// it had scanned already: 0 while the layout's weight range fits the
// bucket window (graph.BucketWidth), and always 0 on the other queues.
func (st *SourceTree) Rescans() int { return st.rescans }

// Source reports the tree's source node.
func (st *SourceTree) Source() int { return st.source }

// Dist reports the optimal semilightpath cost from the source to t
// (0 for t == source, +Inf when unreachable).
func (st *SourceTree) Dist(t int) float64 { return st.dist[t] }

// Reachable reports whether t can be reached from the source.
func (st *SourceTree) Reachable(t int) bool { return graph.Finite(st.dist[t]) }

// PathTo extracts the optimal semilightpath from the source to t.
func (st *SourceTree) PathTo(t int) (*wdm.Semilightpath, error) {
	if t < 0 || t >= st.aux.nw.NumNodes() {
		return nil, fmt.Errorf("%w: dest %d", ErrNodeRange, t)
	}
	if t == st.source {
		return &wdm.Semilightpath{}, nil
	}
	if st.bestX[t] < 0 {
		return nil, fmt.Errorf("%w: from %d to %d", ErrNoRoute, st.source, t)
	}
	return st.aux.hopsToPath(graph.HopsTo(st.parent, st.via, int(st.bestX[t]))), nil
}

// RouteFrom computes optimal semilightpaths from s to every node in one
// single-source pass over G_{s,·} — the building block of Corollary 1's
// all-pairs algorithm. On the zero queue the pass is label-correcting over
// buckets sized from the layout's weight range; every queue returns the
// same costs bit for bit. The tree keeps the pass's parent and via-arc
// arrays, 2·|V′| int32s copied off the pooled scratch: a caller that
// reads only costs asks CostsFrom, the same pass keeping none of it. Safe
// for concurrent use on one Aux.
func (a *Aux) RouteFrom(s int, opts *Options) (*SourceTree, error) {
	if err := a.checkSource(s); err != nil {
		return nil, err
	}
	n := a.nw.NumNodes()
	st := &SourceTree{aux: a, source: s, bestX: make([]int32, n), dist: make([]float64, n)}
	qs := a.pool.get()
	defer a.pool.put(qs)
	tree, rescans, err := a.sourcePass(s, opts, qs, st.dist, st.bestX)
	if err != nil {
		return nil, err
	}
	st.rescans = rescans
	if tree != nil {
		st.settled = tree.Settled
		st.parent = append([]int32(nil), tree.Parent...)
		st.via = append([]int32(nil), tree.ViaArc...)
	}
	return st, nil
}

// CostsFrom is RouteFrom for a caller that reads costs, not paths: the
// same pass, on the same pooled scratch, writes the n optimal costs from
// s into dst — entry t bit for bit SourceTree.Dist(t) — and keeps nothing,
// so it allocates nothing. It returns the pass's rescans
// (SourceTree.Rescans). dst must hold exactly one entry per network node.
func (a *Aux) CostsFrom(s int, opts *Options, dst []float64) (rescans int, err error) {
	if err := a.checkSource(s); err != nil {
		return 0, err
	}
	if len(dst) != a.nw.NumNodes() {
		return 0, fmt.Errorf("core: cost row of %d entries for %d nodes", len(dst), a.nw.NumNodes())
	}
	qs := a.pool.get()
	defer a.pool.put(qs)
	_, rescans, err = a.sourcePass(s, opts, qs, dst, nil)
	return rescans, err
}

func (a *Aux) checkSource(s int) error {
	if s < 0 || s >= a.nw.NumNodes() {
		return fmt.Errorf("%w: source %d", ErrNodeRange, s)
	}
	return nil
}

// sourcePass is the one single-source pass behind RouteFrom and
// CostsFrom, timed as a core_tree_search span: the search over G_{s,·}
// on qs, then the virtual super sink of every node read off it — dist[t]
// the least distance over X_t (0 at s, +Inf when unreached) and, when
// bestX is non-nil, bestX[t] the X_t node attaining it (-1 when
// unreached). The returned tree aliases qs, and is nil when s has no
// outgoing channel and nothing was searched.
func (a *Aux) sourcePass(s int, opts *Options, qs *queryScratch, dist []float64, bestX []int32) (*graph.ShortestPathTree, int, error) {
	sp := opts.span().StartChild(SpanTreeSearch)
	defer sp.End()
	for t := range dist {
		dist[t] = graph.Inf
	}
	for t := range bestX {
		bestX[t] = -1
	}
	dist[s] = 0
	qs.seeds = a.sourceSeeds(qs.seeds, s)
	if len(qs.seeds) == 0 {
		sp.SetBool(AttrBlocked, true)
		return nil, 0, nil // no outgoing channels: only s itself is reachable
	}
	kind := opts.queue()
	bucket := kind == graph.QueueBucket
	var (
		tree *graph.ShortestPathTree
		err  error
	)
	if bucket {
		tree, err = graph.BucketTreeScratch(a.g, qs.seeds, a.bucketWidth, qs.g, a.yPass)
	} else {
		tree, err = graph.DijkstraSeedsUntilScratch(a.g, qs.seeds, nil, kind, qs.g, a.yPass, nil, graph.Inf)
	}
	if err != nil {
		return nil, 0, fmt.Errorf("core: dijkstra: %w", err)
	}
	reachedX := 0
	for t := range dist {
		for xi := range a.xLambdas[t] {
			x := int(a.xStart[t]) + xi
			if graph.Finite(tree.Dist[x]) {
				reachedX++
			}
			if tree.Dist[x] < dist[t] {
				dist[t] = tree.Dist[x]
				if bestX != nil {
					bestX[t] = int32(x)
				}
			}
		}
	}
	rescans := 0
	if bucket {
		// The queue holds the X shore alone, and each reached X node is
		// scanned at least once, at its final distance.
		rescans = tree.Settled - reachedX
	}
	if sp != nil {
		sp.SetInt(AttrAuxNodes, int64(a.NumAuxNodes()+1))          // plus the virtual super source
		sp.SetInt(AttrAuxArcs, int64(a.g.NumArcs()+len(qs.seeds))) // and its arcs into Y_s
		sp.SetInt(AttrSettled, int64(tree.Settled))
		sp.SetInt(AttrRelaxed, int64(tree.Relaxed))
	}
	return tree, rescans, nil
}

// TreePays reports the break-even multiplicity of a source under mode:
// with at least that many requests from one source at one epoch, one
// RouteFrom pass read that many times is cheaper than that many Route
// calls. A plain point query settles about half of G′ on a heap, so
// the second request already pays for the pass. Under DirectedAStar the
// rule is ⌈|X shore| / n⌉ — the mean in-wavelength count, at most k: 8
// on the k=8 serving networks. Measured with no row resident
// (BenchmarkRouteBatch, cold, astar), a point query costs ≈ 19 µs at
// n=100 and ≈ 39 µs at n=300 against a costs-only pass's ≈ 106 µs and
// ≈ 350 µs (≈ 118 µs and ≈ 367 µs while the pass still copied a tree),
// so the true break-even is ≈ 6 at n=100 and ≈ 9 at n=300: the rule
// builds a tree a little late for 6 ≤ r < 8 requests from one source at
// n=100 and a little early for r = 8 at n=300, bands no served workload
// sends.
func (a *Aux) TreePays(mode DirectedMode) int {
	if mode != DirectedAStar {
		return 2
	}
	return a.treePays
}

// AllPairsResult holds the optimal semilightpath cost between every
// ordered node pair. Costs[s][t] is 0 on the diagonal and +Inf when t is
// unreachable from s.
type AllPairsResult struct {
	Costs [][]float64
}

// AllPairs computes optimal semilightpath costs between all ordered node
// pairs by running one single-source pass per node over the shared
// auxiliary graph — the G_all algorithm of Corollary 1, with total cost
// O(k²n² + kmn + kn²·log(kn)).
func (a *Aux) AllPairs(opts *Options) (*AllPairsResult, error) {
	return a.AllPairsParallel(opts, 1)
}

// AllPairsParallel is AllPairs with the n single-source passes spread
// over the given number of worker goroutines — the passes are
// independent reads of the immutable auxiliary graph, so this is a pure
// speedup. workers ≤ 0 selects GOMAXPROCS.
func (a *Aux) AllPairsParallel(opts *Options, workers int) (*AllPairsResult, error) {
	n := a.nw.NumNodes()
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	res := &AllPairsResult{Costs: make([][]float64, n)}

	var (
		wg      sync.WaitGroup
		next    atomic.Int64
		failure atomic.Pointer[error]
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				s := int(next.Add(1)) - 1
				if s >= n || failure.Load() != nil {
					return
				}
				row := make([]float64, n)
				if _, err := a.CostsFrom(s, opts, row); err != nil {
					err = fmt.Errorf("core: all-pairs from %d: %w", s, err)
					failure.CompareAndSwap(nil, &err)
					return
				}
				res.Costs[s] = row
			}
		}()
	}
	wg.Wait()
	if errp := failure.Load(); errp != nil {
		return nil, *errp
	}
	return res, nil
}
