package core

import (
	"fmt"

	"lightpath/internal/graph"
	"lightpath/internal/obs"
	"lightpath/internal/wdm"
)

// Options configures a routing query.
type Options struct {
	// Queue selects the priority structure for Dijkstra. The zero value,
	// graph.QueueBucket, is the served policy; the experiments that time
	// Theorem 1's bound name graph.QueueFibonacci. Point queries consult
	// it only under DirectedPlain: A* runs on the binary heap whatever
	// Queue says.
	Queue graph.QueueKind

	// Directed selects the point-query search strategy (plain, or A*
	// under the physical lower bound). Both return the same optimal cost
	// — differential-tested across every topology fixture — and differ
	// only in settled-node counts; an unknown mode is an error. Full-tree
	// queries (RouteFrom, AllPairs) ignore it: a tree wants the whole
	// graph settled.
	Directed DirectedMode

	// Span, when non-nil, is the parent under which the query opens its
	// own timed child span (core_search for Route, core_tree_search for
	// RouteFrom) annotated with the search's work counters. A nil Span —
	// the default, and what a disabled request tracer yields — costs
	// nothing: every span call is nil-receiver safe and the annotation
	// work is skipped entirely.
	Span *obs.Span

	// Bound, when non-nil, lends DirectedAStar complete physical-bound
	// rows for the network being queried and takes the ones it builds
	// (BoundRows). Like Span it belongs to the caller's snapshot, not to
	// the search: the same query returns the same result with it nil.
	Bound BoundRows
}

func (o *Options) queue() graph.QueueKind {
	if o == nil {
		return graph.QueueBucket
	}
	return o.Queue
}

func (o *Options) directed() DirectedMode {
	if o == nil {
		return DirectedPlain
	}
	return o.Directed
}

func (o *Options) span() *obs.Span {
	if o == nil {
		return nil
	}
	return o.Span
}

func (o *Options) bound() BoundRows {
	if o == nil {
		return nil
	}
	return o.Bound
}

// SearchStats reports work counters of one shortest-path query.
type SearchStats struct {
	AuxNodes int // |V'_{s,t}| (gadget nodes + super terminals)
	AuxArcs  int // |E'_{s,t}| (gadget and link arcs + the |Y_s| + |X_t| super-terminal arcs)
	// Settled counts queue pops, including the equal-key drain after the
	// first X_t node. The binary-heap engine — A*, and plain on the zero
	// queue or QueueBinary — passes the Y shore through unqueued, so only
	// X-shore nodes are counted there; plain on the Fibonacci and linear
	// ablation queues pops nodes of both shores.
	Settled int
	// Relaxed counts arc relaxations. Under DirectedAStar a pass-through
	// Y node whose key is over the dive's ceiling is not expanded, so its
	// link arcs are not counted.
	Relaxed int
	// Queued counts queue writes (insertions and key decreases). A* never
	// queues a node whose key is over its ceiling.
	Queued int
	// PhysPops is DirectedAStar's backward bound pass: physical nodes
	// popped, 0 when a resident bound row (Options.Bound) spared the pass.
	PhysPops int
}

// Result is an optimal semilightpath together with its cost and the
// per-query statistics. Cost is exactly Path.Cost(network).
type Result struct {
	Path   *wdm.Semilightpath
	Cost   float64
	Source int
	Dest   int
	Stats  SearchStats
}

// Conversions is shorthand for Result.Path.Conversions on the originating
// network.
func (r *Result) Conversions(nw *wdm.Network) []wdm.Conversion {
	return r.Path.Conversions(nw)
}

// Route finds an optimal semilightpath from s to t (Theorem 1).
//
// Both super terminals of G_{s,t} stay virtual: the super source s′ is
// realized by running multi-seed Dijkstra with every node of Y_s at
// distance 0, and the super sink t″ by taking the best distance over
// X_t. Both are equivalent to (and cheaper than) materializing the
// terminals, and they leave the compiled graph untouched — concurrent
// Route calls on one Aux are safe.
func (a *Aux) Route(s, t int, opts *Options) (*Result, error) {
	if s < 0 || s >= a.nw.NumNodes() {
		return nil, fmt.Errorf("%w: source %d", ErrNodeRange, s)
	}
	if t < 0 || t >= a.nw.NumNodes() {
		return nil, fmt.Errorf("%w: dest %d", ErrNodeRange, t)
	}
	if s == t {
		// The trivial semilightpath: no links, no conversions, cost 0.
		return &Result{Path: &wdm.Semilightpath{}, Source: s, Dest: t}, nil
	}
	sp := opts.span().StartChild(SpanSearch)
	defer sp.End()

	// Borrow pooled per-query scratch: seed/goal backings plus the
	// Dijkstra arrays and heap store. Everything the scratch backs is
	// consumed before the deferred return, so steady-state point queries
	// allocate only their Result.
	qs := a.pool.get()
	defer a.pool.put(qs)

	qs.seeds = a.sourceSeeds(qs.seeds, s)
	if len(qs.seeds) == 0 {
		sp.SetBool(AttrBlocked, true)
		sp.SetStr(AttrBlockedCause, CausePhysical)
		return nil, fmt.Errorf("%w: from %d to %d (no outgoing channels at source)", ErrNoRoute, s, t)
	}
	// Early termination: t″ hangs off X_t by 0-weight arcs, so it is
	// settled with the first X_t shore node; the search drains that node's
	// key plateau and stops (graph.DijkstraSeedsUntilScratch). Only a
	// destination no X_t node of which is reachable runs the search to
	// exhaustion.
	qs.goals = qs.goals[:0]
	for xi := range a.xLambdas[t] {
		qs.goals = append(qs.goals, int(a.xStart[t])+xi)
	}
	if len(qs.goals) == 0 {
		sp.SetBool(AttrBlocked, true)
		sp.SetStr(AttrBlockedCause, CausePhysical)
		return nil, fmt.Errorf("%w: from %d to %d (no incoming channels at destination)", ErrNoRoute, s, t)
	}

	// The mode picks the potential and the ceiling: neither for plain; for
	// A* the physical lower bound, and the price of the semilightpath a
	// greedy dive under it finds. One search serves both, so stats, span
	// attributes and extraction below are mode-agnostic. Both return the
	// same optimal cost; they differ in nodes settled proving it (and,
	// among equal-cost optima, possibly in which path they pick).
	mode := opts.directed()
	var (
		pot      func(int) float64
		ceiling  = graph.Inf
		physPops int
		boundRow string                  // DirectedAStar only: a BoundRow* value
		fwdTree  *graph.ShortestPathTree // forward tree, for extraction; nil if no search ran
		settled  int
		relaxed  int
		queued   int
		bestDist = graph.Inf
		bestNode = -1
	)
	switch mode {
	case DirectedAStar:
		pot, physPops, boundRow = a.physicalBound(qs, s, t, opts.bound())
		if pot != nil {
			ub, _ := a.dive(qs.bound, s, t, pot)
			ceiling = ub * ceilingMargin
		}
	case DirectedPlain:
	default:
		return nil, fmt.Errorf("core: unknown search mode %v", mode)
	}
	// An A* query without a potential has t cut off from s in G itself:
	// G' is not searched.
	if mode == DirectedPlain || pot != nil {
		tree, err := graph.DijkstraSeedsUntilScratch(a.g, qs.seeds, qs.goals, opts.queue(), qs.g, a.yPass, pot, ceiling)
		if err != nil {
			return nil, fmt.Errorf("core: dijkstra: %w", err)
		}
		fwdTree, settled, relaxed, queued = tree, tree.Settled, tree.Relaxed, tree.Queued
		// Virtual super sink: min over X_t on the forward tree.
		for xi := range a.xLambdas[t] {
			x := int(a.xStart[t]) + xi
			if tree.Dist[x] < bestDist {
				bestDist = tree.Dist[x]
				bestNode = x
			}
		}
	}
	stats := a.searchStats(s, t, settled, relaxed)
	stats.Queued, stats.PhysPops = queued, physPops
	if sp != nil {
		annotateSearch(sp, stats, mode)
		if mode == DirectedAStar {
			sp.SetStr(AttrBoundRow, boundRow)
		}
	}
	if bestNode < 0 {
		sp.SetBool(AttrBlocked, true)
		// The backward pass tells the two ways of blocking apart for free:
		// it either never reached s, or it did and G' still had no way in.
		if mode == DirectedAStar {
			cause := CauseWavelength
			if fwdTree == nil {
				cause = CausePhysical
			}
			sp.SetStr(AttrBlockedCause, cause)
		}
		return nil, fmt.Errorf("%w: from %d to %d", ErrNoRoute, s, t)
	}

	path, err := a.extractPath(fwdTree, bestNode)
	if err != nil {
		return nil, err
	}
	sp.SetFloat(AttrCost, bestDist)
	return &Result{Path: path, Cost: bestDist, Source: s, Dest: t, Stats: stats}, nil
}

// annotateSearch records a point query's work counters on its
// core_search span.
func annotateSearch(sp *obs.Span, stats SearchStats, mode DirectedMode) {
	sp.SetInt(AttrAuxNodes, int64(stats.AuxNodes))
	sp.SetInt(AttrAuxArcs, int64(stats.AuxArcs))
	sp.SetInt(AttrSettled, int64(stats.Settled))
	sp.SetInt(AttrRelaxed, int64(stats.Relaxed))
	if mode == DirectedAStar {
		sp.SetInt(AttrPhysPops, int64(stats.PhysPops))
	}
}

// RecordMemoHit records, under parent, the core_search span of a query
// answered by res — the Result an earlier Route of the same (s, t) on the
// same network returned under mode — without a search: the counters are
// that search's and memo=true says none ran now. It has no bound_row,
// since no bound was read. A nil parent records nothing.
func RecordMemoHit(parent *obs.Span, res *Result, mode DirectedMode) {
	if parent == nil {
		return
	}
	sp := parent.StartChild(SpanSearch)
	annotateSearch(sp, res.Stats, mode)
	sp.SetBool(AttrMemo, true)
	sp.SetFloat(AttrCost, res.Cost)
	sp.End()
}

// searchStats sizes G_{s,t} for a point query's report: the compiled
// graph plus both virtual super terminals and their 0-weight arcs.
func (a *Aux) searchStats(s, t, settled, relaxed int) SearchStats {
	return SearchStats{
		AuxNodes: a.NumAuxNodes() + 2,
		AuxArcs:  a.g.NumArcs() + len(a.yLambdas[s]) + len(a.xLambdas[t]),
		Settled:  settled,
		Relaxed:  relaxed,
	}
}

// ConversionChoices reports the conversion economics of path: how many
// junctions switched wavelength (taken — counted even on a free
// converter) against how many distinct wavelengths λq ≠ λ the arrival
// wavelength λ could have been converted to at each intermediate node
// (available — the conversion arcs out of its X-shore entry, the choice
// set the router had at that junction).
func (a *Aux) ConversionChoices(path *wdm.Semilightpath) (taken, available int) {
	for i := 1; i < len(path.Hops); i++ {
		prev := path.Hops[i-1]
		if path.Hops[i].Wavelength != prev.Wavelength {
			taken++
		}
		x, ok := a.xIndex(a.nw.Link(prev.Link).To, prev.Wavelength)
		if !ok {
			continue
		}
		for _, arc := range a.g.Out(x) {
			if arc.Tag == tagConversion && a.info[arc.To].Lambda != prev.Wavelength {
				available++
			}
		}
	}
	return taken, available
}

// sourceSeeds appends the Y_s shore node IDs — the targets the virtual
// super source s′ would reach with weight-0 arcs — to buf[:0].
func (a *Aux) sourceSeeds(buf []int, s int) []int {
	buf = buf[:0]
	for yi := range a.yLambdas[s] {
		buf = append(buf, int(a.yStart[s])+yi)
	}
	return buf
}

// extractPath maps the shortest Y_s→(t,λ) path in the auxiliary graph
// back to a semilightpath of G: arcs with non-negative tags are physical
// hops whose wavelength is the shore wavelength of their tail.
func (a *Aux) extractPath(tree *graph.ShortestPathTree, goal int) (*wdm.Semilightpath, error) {
	hops, err := tree.ArcsTo(goal)
	if err != nil {
		return nil, fmt.Errorf("core: reconstruct path: %w", err)
	}
	return a.hopsToPath(hops), nil
}

// hopsToPath maps a sequence of auxiliary-graph arc references to the
// semilightpath they encode.
func (a *Aux) hopsToPath(hops []graph.HopRef) *wdm.Semilightpath {
	path := &wdm.Semilightpath{Hops: make([]wdm.Hop, 0, len(hops)/2+1)}
	for _, h := range hops {
		arc := a.g.Out(h.From)[h.ArcIndex]
		if arc.Tag < 0 {
			continue // conversion or super arc: implied by hop wavelengths
		}
		path.Hops = append(path.Hops, wdm.Hop{
			Link:       int(arc.Tag),
			Wavelength: a.info[h.From].Lambda,
		})
	}
	return path
}

// FindSemilightpath is the one-shot convenience API: compile the
// auxiliary graph for nw and answer a single (s,t) query. For repeated
// queries on one network, build an Aux once and call Route.
func FindSemilightpath(nw *wdm.Network, s, t int, opts *Options) (*Result, error) {
	a, err := NewAux(nw)
	if err != nil {
		return nil, err
	}
	return a.Route(s, t, opts)
}
