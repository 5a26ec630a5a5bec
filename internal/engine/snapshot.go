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

// Route finds an optimal semilightpath from src to dst over this
// snapshot's residual capacity. Latency and the blocked/served outcome
// land on the engine's route metrics; astar queries additionally feed
// the settled-node counter. Under a
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
	s.eng.metrics.observeAStarSettled(res, s.ropts.Directed)
	return res, err
}

// RouteFrom computes the single-source shortest semilightpath tree from
// src at this snapshot's epoch: one pass over the auxiliary graph, built
// for the caller and never kept — what the engine keeps per (source,
// epoch) is the tree's costs, and a caller that reads only those asks
// CostsFrom. Under a parent span the query is an engine_routefrom child
// carrying the core_tree_search span of its pass.
func (s *Snapshot) RouteFrom(src int, parent ...*obs.Span) (*core.SourceTree, error) {
	sp, start := s.startFrom(parentSpan(parent))
	defer s.endFrom(sp, start)
	return s.buildTree(src, sp)
}

// Costs is the optimal costs from one source to every node at one epoch
// (Corollary 1, one row of it). Shared with every reader of the same
// (source, epoch) while the row is cached; read-only.
type Costs struct {
	row []float64
}

// To reports the optimal cost to t: 0 for the source itself, +Inf when t
// is unreachable. Bit for bit SourceTree.Dist.
func (c Costs) To(t int) float64 { return c.row[t] }

// CostsFrom is RouteFrom for a caller that reads costs, not paths. A
// resident cost row answers with no pass (answered=row on the
// engine_cache_lookup span); a miss (answered=built) runs one pass,
// copies its costs into a row, stores the row for every later reader of
// this (source, epoch) and drops the tree. With the cache disabled the
// row is the caller's alone. The Costs are valid only with a nil error.
func (s *Snapshot) CostsFrom(src int, parent ...*obs.Span) (Costs, error) {
	sp, start := s.startFrom(parentSpan(parent))
	defer s.endFrom(sp, start)
	e := s.eng
	key := epochKey{node: src, epoch: s.epoch}
	if e.costs != nil {
		look := sp.StartChild(SpanCacheLookup)
		row, ok := e.costs.get(key)
		answered := AnsweredBuilt
		if ok {
			answered = AnsweredRow
		}
		look.SetBool(AttrHit, ok)
		look.SetStr(AttrAnswered, answered)
		look.End()
		if ok {
			return Costs{row: row}, nil
		}
	}
	st, err := s.buildTree(src, sp)
	if err != nil {
		return Costs{}, err
	}
	row := make([]float64, s.net.NumNodes())
	for t := range row {
		row[t] = st.Dist(t)
	}
	if e.costs != nil {
		// Concurrent misses on one key each run the pass and the last put
		// wins: the rows are equal bit for bit.
		e.costs.put(key, row)
		e.metrics.costRowBuilds.Inc()
	}
	return Costs{row: row}, nil
}

// startFrom opens the engine_routefrom span of a single-source read and
// starts its clock; endFrom records the latency and closes the span.
func (s *Snapshot) startFrom(parent *obs.Span) (*obs.Span, time.Time) {
	sp := parent.StartChild(SpanRouteFrom)
	sp.SetInt(AttrEpoch, int64(s.epoch))
	return sp, time.Now()
}

func (s *Snapshot) endFrom(sp *obs.Span, start time.Time) {
	s.eng.metrics.routeFromLatency.ObserveDuration(time.Since(start))
	sp.End()
}

// buildTree runs one single-source pass and counts its rescans.
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
	return s.aux.KShortest(src, dst, count)
}

// RouteProtected finds a 1+1 protection pair (primary + link-disjoint
// backup) on this snapshot. A nil po.Route runs the snapshot's own
// search options, filled into a copy: the caller's po may be reused at
// a later epoch, where this snapshot's bound rows would mislead.
func (s *Snapshot) RouteProtected(src, dst int, po *core.ProtectOptions) (*core.ProtectedPair, error) {
	var own core.ProtectOptions
	if po != nil {
		own = *po
	}
	if own.Route == nil {
		own.Route = s.opts(nil)
	}
	return s.aux.RouteProtected(src, dst, &own)
}

// Engine-level query forwarders: each pins the instantaneous current
// snapshot for exactly one call. Use Snapshot() directly when several
// queries must observe the same epoch.

// Route answers one optimal-semilightpath query on the current snapshot.
func (e *Engine) Route(src, dst int, parent ...*obs.Span) (*core.Result, error) {
	return e.Snapshot().Route(src, dst, parent...)
}

// RouteFrom answers one single-source query on the current snapshot:
// one pass, never cached.
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
