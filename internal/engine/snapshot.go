package engine

import (
	"fmt"
	"time"

	"lightpath/internal/core"
	"lightpath/internal/obs"
	"lightpath/internal/wdm"
)

// Snapshot is one immutable routing view of the network: the residual
// capacity at a fixed epoch plus its compiled auxiliary graph. A
// snapshot never changes after publication, so any number of goroutines
// may route on it concurrently — including long after newer epochs have
// superseded it (readers "pin" their epoch simply by holding the
// pointer).
type Snapshot struct {
	epoch uint64
	net   *wdm.Network
	aux   *core.Aux
	eng   *Engine
	// ropts is the precomputed query options for this snapshot's queue
	// (see opts).
	ropts core.Options
	// rows is this epoch's view of the engine's bound-row cache; ropts.Bound
	// points at it when the engine keeps rows.
	rows boundRows
}

// Epoch reports which mutation generation this snapshot reflects.
func (s *Snapshot) Epoch() uint64 { return s.epoch }

// Network returns the residual network (free channels only). Callers
// must not mutate it.
func (s *Snapshot) Network() *wdm.Network { return s.net }

// Aux returns the compiled auxiliary graph of the residual network.
func (s *Snapshot) Aux() *core.Aux { return s.aux }

// opts returns the core options for this snapshot's configured queue.
// The value is shared and must be treated as read-only; it is a pointer
// into the snapshot, not a per-call allocation, which keeps cache-hit
// queries allocation-free. Only a query recording a span pays for a
// copy carrying it.
func (s *Snapshot) opts(sp *obs.Span) *core.Options {
	if sp == nil {
		return &s.ropts
	}
	o := s.ropts
	o.Span = sp
	return &o
}

// TreeCached reports whether the SourceTree for (src, this epoch) is
// resident in the engine's cache, without counting as a lookup.
func (s *Snapshot) TreeCached(src int) bool {
	return s.eng.cache != nil && s.eng.cache.peek(epochKey{node: src, epoch: s.epoch})
}

// residentTree returns the SourceTree for (src, this epoch) if the cache
// holds it, as a cache hit; an absent tree is neither counted nor built.
func (s *Snapshot) residentTree(src int) (*core.SourceTree, bool) {
	if s.eng.cache == nil {
		return nil, false
	}
	return s.eng.cache.getResident(epochKey{node: src, epoch: s.epoch})
}

// Route finds an optimal semilightpath from src to dst over this
// snapshot's residual capacity. Latency and the blocked/served outcome
// land on the engine's route metrics; goal-directed queries additionally
// feed the directed latency histogram and settled-node counter. Under a
// parent span the query is timed as an engine_route child annotated with
// the epoch, with core's core_search span (the Dijkstra counters) below
// it.
func (s *Snapshot) Route(src, dst int, parent ...*obs.Span) (*core.Result, error) {
	sp := parentSpan(parent).StartChild(SpanRoute)
	defer sp.End()
	sp.SetInt(AttrEpoch, int64(s.epoch))
	start := time.Now()
	res, err := s.aux.Route(src, dst, s.opts(sp))
	elapsed := time.Since(start)
	s.eng.metrics.observeRoute(elapsed, err)
	s.eng.metrics.observeDirected(elapsed, res, s.ropts.Directed)
	return res, err
}

// RouteFrom computes (or fetches from the engine's LRU cache) the
// single-source shortest semilightpath tree from src at this snapshot's
// epoch. Trees are cached per (source, epoch): a hit costs one map
// lookup instead of a Dijkstra pass over the auxiliary graph. Under a
// parent span the query is an engine_routefrom child; the cache probe
// is an engine_cache_lookup grandchild annotated hit=true/false and
// answered=tree/built, and a miss additionally carries the
// core_tree_search span of the Dijkstra pass that fills the cache.
func (s *Snapshot) RouteFrom(src int, parent ...*obs.Span) (*core.SourceTree, error) {
	c, err := s.fromSource(src, parentSpan(parent), false)
	return c.st, err
}

// Costs is the optimal costs from one source to every node at one epoch
// (Corollary 1, one row of it): a cached cost row or, while the source
// has none, a view of its SourceTree. Shared with every reader of the
// same (source, epoch); read-only.
type Costs struct {
	row []float64
	st  *core.SourceTree
}

// To reports the optimal cost to t: 0 for the source itself, +Inf when t
// is unreachable. Bit for bit SourceTree.Dist, whichever backs the value.
func (c Costs) To(t int) float64 {
	if c.row != nil {
		return c.row[t]
	}
	return c.st.Dist(t)
}

// CostsFrom is RouteFrom for a caller that reads costs, not paths. A
// resident cost row answers with no tree lookup and no pass
// (answered=row on the engine_cache_lookup span); otherwise the tree
// comes from the tree cache or one pass, as in RouteFrom, and from the
// source's second ask of this epoch on its costs are copied into a row
// that outlives the tree's turn in the LRU. A first ask stores nothing
// and is answered off the tree, so a source that does not recur within
// an epoch allocates nothing RouteFrom does not. The Costs are valid
// only with a nil error.
func (s *Snapshot) CostsFrom(src int, parent ...*obs.Span) (Costs, error) {
	return s.fromSource(src, parentSpan(parent), true)
}

// fromSource is the per-source read behind RouteFrom (rows false: the
// caller needs the tree) and CostsFrom.
func (s *Snapshot) fromSource(src int, parent *obs.Span, rows bool) (Costs, error) {
	sp := parent.StartChild(SpanRouteFrom)
	defer sp.End()
	sp.SetInt(AttrEpoch, int64(s.epoch))
	start := time.Now()
	defer func() { s.eng.metrics.routeFromLatency.ObserveDuration(time.Since(start)) }()
	e := s.eng
	if e.cache == nil {
		st, err := s.buildTree(src, sp)
		return Costs{st: st}, err
	}
	key := epochKey{node: src, epoch: s.epoch}
	look := sp.StartChild(SpanCacheLookup)
	var c Costs
	answered := AnsweredBuilt
	if rows {
		if c.row, _ = e.costs.get(key); c.row != nil {
			answered = AnsweredRow
		}
	}
	if c.row == nil {
		if c.st, _ = e.cache.get(key); c.st != nil {
			answered = AnsweredTree
		}
	}
	look.SetBool(AttrHit, answered != AnsweredBuilt)
	look.SetStr(AttrAnswered, answered)
	look.End()
	if c.row != nil {
		return c, nil
	}
	if c.st == nil {
		// Compute outside the cache lock; concurrent misses on the same key
		// may duplicate the work, and the last insert wins — both trees are
		// equally correct, so this is only a transient inefficiency.
		st, err := s.buildTree(src, sp)
		if err != nil {
			return Costs{}, err
		}
		e.cache.put(key, st)
		c.st = st
	}
	if rows && e.costAsked.second(src, s.epoch) {
		row := make([]float64, s.net.NumNodes())
		for t := range row {
			row[t] = c.st.Dist(t)
		}
		e.costs.put(key, row)
		e.metrics.costRowBuilds.Inc()
		c = Costs{row: row}
	}
	return c, nil
}

// buildTree runs the single-source pass of a cache miss and counts its
// rescans.
func (s *Snapshot) buildTree(src int, sp *obs.Span) (*core.SourceTree, error) {
	st, err := s.aux.RouteFrom(src, s.opts(sp))
	if err == nil {
		s.eng.metrics.treeRescans.Add(uint64(st.Rescans()))
	}
	return st, err
}

// viaTree reads one destination off a SourceTree as a point-query result.
func viaTree(st *core.SourceTree, src, dst int) (*core.Result, error) {
	path, err := st.PathTo(dst)
	if err != nil {
		return nil, err
	}
	return &core.Result{Path: path, Cost: st.Dist(dst), Source: src, Dest: dst}, nil
}

// KShortest enumerates up to count lowest-cost semilightpaths src→dst
// on this snapshot.
func (s *Snapshot) KShortest(src, dst, count int) ([]*core.Result, error) {
	return s.aux.KShortest(src, dst, count, s.opts(nil))
}

// RouteProtected finds a 1+1 protection pair (primary + link-disjoint
// backup) on this snapshot.
func (s *Snapshot) RouteProtected(src, dst int, po *core.ProtectOptions) (*core.ProtectedPair, error) {
	if po == nil {
		po = &core.ProtectOptions{}
	}
	if po.Route == nil {
		po.Route = s.opts(nil)
	}
	return s.aux.RouteProtected(src, dst, po)
}

// Engine-level query forwarders: each pins the instantaneous current
// snapshot for exactly one call. Use Snapshot() directly when several
// queries must observe the same epoch.

// Route answers one optimal-semilightpath query on the current snapshot.
func (e *Engine) Route(src, dst int, parent ...*obs.Span) (*core.Result, error) {
	return e.Snapshot().Route(src, dst, parent...)
}

// RouteFrom answers one single-source query on the current snapshot,
// through the SourceTree cache.
func (e *Engine) RouteFrom(src int, parent ...*obs.Span) (*core.SourceTree, error) {
	return e.Snapshot().RouteFrom(src, parent...)
}

// CostsFrom answers one single-source cost query on the current
// snapshot, through the cost-row cache.
func (e *Engine) CostsFrom(src int, parent ...*obs.Span) (Costs, error) {
	return e.Snapshot().CostsFrom(src, parent...)
}

// KShortest answers one K-shortest-paths query on the current snapshot.
func (e *Engine) KShortest(src, dst, count int) ([]*core.Result, error) {
	return e.Snapshot().KShortest(src, dst, count)
}

// RouteProtected answers one protected-pair query on the current
// snapshot.
func (e *Engine) RouteProtected(src, dst int, po *core.ProtectOptions) (*core.ProtectedPair, error) {
	return e.Snapshot().RouteProtected(src, dst, po)
}

// String identifies the snapshot for logs.
func (s *Snapshot) String() string {
	return fmt.Sprintf("snapshot{epoch %d, %d nodes, %d free channels}",
		s.epoch, s.net.NumNodes(), s.net.TotalChannels())
}
