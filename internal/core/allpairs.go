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
	dist  []float64
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
func (st *SourceTree) Dist(t int) float64 {
	if t == st.source {
		return 0
	}
	return st.dist[t]
}

// Reachable reports whether t can be reached from the source.
func (st *SourceTree) Reachable(t int) bool {
	return t == st.source || graph.Finite(st.dist[t])
}

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
// all-pairs algorithm. Under graph.QueueBucket the pass is label-correcting
// over buckets sized from the layout's weight range; every queue returns
// the same costs bit for bit. Safe for concurrent use on one Aux.
func (a *Aux) RouteFrom(s int, opts *Options) (*SourceTree, error) {
	if s < 0 || s >= a.nw.NumNodes() {
		return nil, fmt.Errorf("%w: source %d", ErrNodeRange, s)
	}
	n := a.nw.NumNodes()
	sp := opts.span().StartChild(SpanTreeSearch)
	defer sp.End()
	st := &SourceTree{aux: a, source: s, bestX: make([]int32, n), dist: make([]float64, n)}
	for t := range st.dist {
		st.bestX[t] = -1
		st.dist[t] = graph.Inf
	}
	// Borrow the search's working set from the pool; what the SourceTree
	// retains is copied out of it below.
	qs := a.pool.get()
	defer a.pool.put(qs)
	qs.seeds = a.sourceSeeds(qs.seeds, s)
	if len(qs.seeds) == 0 {
		sp.SetBool(AttrBlocked, true)
		return st, nil // no outgoing channels: only s itself is reachable
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
		return nil, fmt.Errorf("core: dijkstra: %w", err)
	}
	st.parent = append([]int32(nil), tree.Parent...)
	st.via = append([]int32(nil), tree.ViaArc...)
	st.settled = tree.Settled
	reachedX := 0
	for t := 0; t < n; t++ {
		for xi := range a.xLambdas[t] {
			x := int(a.xStart[t]) + xi
			if graph.Finite(tree.Dist[x]) {
				reachedX++
			}
			if tree.Dist[x] < st.dist[t] {
				st.dist[t] = tree.Dist[x]
				st.bestX[t] = int32(x)
			}
		}
	}
	if bucket {
		// The queue holds the X shore alone, and each reached X node is
		// scanned at least once, at its final distance.
		st.rescans = tree.Settled - reachedX
	}
	if sp != nil {
		sp.SetInt(AttrAuxNodes, int64(a.NumAuxNodes()+1))          // plus the virtual super source
		sp.SetInt(AttrAuxArcs, int64(a.g.NumArcs()+len(qs.seeds))) // and its arcs into Y_s
		sp.SetStr(AttrQueue, kind.String())
		sp.SetInt(AttrSettled, int64(tree.Settled))
		sp.SetInt(AttrRelaxed, int64(tree.Relaxed))
		if bucket {
			sp.SetInt(AttrScans, int64(tree.Settled))
			sp.SetInt(AttrRescans, int64(st.rescans))
		}
	}
	return st, nil
}

// TreePays reports the break-even multiplicity of a source under mode:
// with at least that many requests from one source at one epoch, one
// RouteFrom pass read that many times is cheaper than that many Route
// calls. A plain point query settles about half of G′ on a heap, so
// the second request already pays for the pass. Under DirectedAStar the
// rule is ⌈|X shore| / n⌉ — the mean in-wavelength count, at most k: 8
// on the k=8 serving networks. Measured with no row resident
// (BenchmarkRouteBatch, cold), a point query costs ≈ 15 µs at n=100 and
// ≈ 30 µs at n=300 against a pass's ≈ 120 µs and ≈ 355 µs, so the true
// break-even is ≈ 8 at n=100 and ≈ 12 at n=300: the rule builds a tree
// a little early for 8 ≤ r < 12 requests from one source at n=300, a
// band no served workload sends.
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
				st, err := a.RouteFrom(s, opts)
				if err != nil {
					err = fmt.Errorf("core: all-pairs from %d: %w", s, err)
					failure.CompareAndSwap(nil, &err)
					return
				}
				row := make([]float64, n)
				for t := 0; t < n; t++ {
					row[t] = st.Dist(t)
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
