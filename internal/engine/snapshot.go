package engine

import (
	"fmt"
	"strconv"
	"sync/atomic"
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
// snapshot's residual capacity. A Result the route memo holds for (src,
// dst, epoch) answers with no search; a served pair's second ask at the
// epoch stores the Result its search returns (askedAt), so a pair asked
// once costs one search and nothing kept, and one asked often costs
// two. The Result is shared with every later reader of the pair at this
// epoch and must not be written. Latency and the blocked/served outcome
// land on the engine's route metrics; astar searches additionally feed
// the settled-node counter, memo hits do not. Under a parent span the
// query is timed as an engine_route child annotated with the epoch, with
// core's core_search span (the Dijkstra counters) below it — on a memo
// hit the counters of the search that stored the Result, and memo=true.
func (s *Snapshot) Route(src, dst int, parent ...*obs.Span) (*core.Result, error) {
	sp := parentSpan(parent).StartChild(SpanRoute)
	defer sp.End()
	sp.SetInt(AttrEpoch, int64(s.epoch))
	start := time.Now()
	res, err := s.route(src, dst, sp)
	s.eng.metrics.observeRoute(time.Since(start), err)
	return res, err
}

// route is Route's answer: the memo's, else a search's. A pair of one
// node, or with a node out of range, is not looked up: core answers it
// without a search.
func (s *Snapshot) route(src, dst int, sp *obs.Span) (*core.Result, error) {
	e := s.eng
	if e.memo == nil || src == dst || !s.inRange(src) || !s.inRange(dst) {
		return s.pointSearch(src, dst, sp)
	}
	key := epochKey{node: src*s.net.NumNodes() + dst, epoch: s.epoch}
	if res, ok := e.memo.get(key); ok {
		core.RecordMemoHit(sp, res, s.ropts.Directed)
		return res, nil
	}
	res, err := s.pointSearch(src, dst, sp)
	if err == nil && e.memoAsked.second(key.node, s.epoch) {
		// Concurrent second asks each search and the last put wins: the
		// Results are equal, path included.
		e.memo.put(key, res)
	}
	return res, err
}

// pointSearch runs one point query on this snapshot's compiled graph.
func (s *Snapshot) pointSearch(src, dst int, sp *obs.Span) (*core.Result, error) {
	res, err := s.aux.Route(src, dst, s.opts(sp))
	s.eng.metrics.observeAStarSettled(res, s.ropts.Directed)
	return res, err
}

// RouteFrom computes the single-source shortest semilightpath tree from
// src at this snapshot's epoch: one pass over the auxiliary graph, built
// for the caller and never kept — what the engine keeps per (source,
// epoch) is the pass's costs, and a caller that reads only those asks
// CostsFrom, whose pass copies no tree. Under a parent span the query is
// an engine_routefrom child carrying the core_tree_search span of its
// pass.
func (s *Snapshot) RouteFrom(src int, parent ...*obs.Span) (*core.SourceTree, error) {
	sp, start := s.startFrom(parentSpan(parent))
	defer s.endFrom(sp, start)
	st, err := s.aux.RouteFrom(src, s.opts(sp))
	if err == nil {
		s.eng.metrics.treeRescans.Add(uint64(st.Rescans()))
	}
	return st, err
}

// Costs is the optimal costs from one source to every node at one epoch
// (Corollary 1, one row of it). Shared with every reader of the same
// (source, epoch) while the row is cached; read-only.
type Costs struct {
	cost []float64
	text *rowText // the row's text once rendered, else nil
}

// To reports the optimal cost to t: 0 for the source itself, +Inf when t
// is unreachable. Bit for bit SourceTree.Dist.
func (c Costs) To(t int) float64 { return c.cost[t] }

// AppendCost appends the cost to t as AppendCost renders it: copied off
// the row's text when a rendered row answered, formatted otherwise.
func (c Costs) AppendCost(buf []byte, t int) []byte {
	if c.text != nil {
		return append(buf, c.text.entry(t)...)
	}
	return AppendCost(buf, c.cost[t])
}

// AppendCost appends c as every cost reply prints it: fmt's %g, the
// shortest decimal that parses back to c bit for bit, and +Inf for an
// unreachable node. The one place the number format is decided.
func AppendCost(buf []byte, c float64) []byte {
	return strconv.AppendFloat(buf, c, 'g', -1, 64)
}

// costRow is one cached cost row: the n optimal costs from a source at
// an epoch and, from the row's first cache hit on, their text.
type costRow struct {
	cost []float64
	text atomic.Pointer[rowText] // nil until rendered
}

// rowText is a cost row rendered: entry t is AppendCost's form of cost
// t, the bytes of buf from end[t-1] (0 for t = 0) to end[t].
type rowText struct {
	buf []byte
	end []uint32
}

func (x *rowText) entry(t int) []byte {
	start := uint32(0)
	if t > 0 {
		start = x.end[t-1]
	}
	return x.buf[start:x.end[t]]
}

// render returns the row's text, rendering it if no reader has, and
// reports whether this call published it: of readers rendering at once,
// one wins the compare-and-swap and the others read its text. Three
// objects: the arena sized exactly by a first pass, its offsets and the
// header.
func (r *costRow) render() (*rowText, bool) {
	if x := r.text.Load(); x != nil {
		return x, false
	}
	x := &rowText{end: make([]uint32, len(r.cost))}
	var scratch [32]byte
	size := 0
	for t, c := range r.cost {
		size += len(AppendCost(scratch[:0], c))
		x.end[t] = uint32(size)
	}
	x.buf = make([]byte, 0, size)
	for _, c := range r.cost {
		x.buf = AppendCost(x.buf, c)
	}
	if r.text.CompareAndSwap(nil, x) {
		return x, true
	}
	return r.text.Load(), false
}

// CostsFrom is RouteFrom for a caller that reads costs, not paths. A
// resident cost row answers with no pass (answered=row on the
// engine_cache_lookup span); a miss (answered=built) runs one pass
// (core.Aux.CostsFrom) straight into a fresh row — its one allocation —
// and stores the row for every later reader of this (source, epoch). The
// row's first hit renders its text (engine_cost_row_renders_total), which
// every later hit hands out beside the costs: a row read once costs no
// text, one read twice or more is formatted once. With the cache disabled
// the row is the caller's alone. The Costs are valid only with a nil
// error.
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
			text, won := row.render()
			if won {
				e.metrics.costRowRenders.Inc()
			}
			return Costs{cost: row.cost, text: text}, nil
		}
	}
	cost, err := s.passCosts(src, sp)
	if err != nil {
		return Costs{}, err
	}
	if e.costs != nil {
		// Concurrent misses on one key each run the pass and the last put
		// wins: the rows are equal bit for bit.
		e.costs.put(key, &costRow{cost: cost})
		e.metrics.costRowBuilds.Inc()
	}
	return Costs{cost: cost}, nil
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

// passCosts runs one single-source pass into a fresh cost row and counts
// its rescans.
func (s *Snapshot) passCosts(src int, sp *obs.Span) ([]float64, error) {
	cost := make([]float64, s.net.NumNodes())
	rescans, err := s.aux.CostsFrom(src, s.opts(sp), cost)
	if err != nil {
		return nil, err
	}
	s.eng.metrics.treeRescans.Add(uint64(rescans))
	return cost, nil
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
