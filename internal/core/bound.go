package core

import (
	"math"

	"lightpath/internal/graph"
)

// This file computes DirectedAStar's potential: a lower bound on the
// cost of reaching t, per *physical* node, read off the residual network
// the auxiliary graph was compiled from. A semilightpath from v to t
// crosses some physical path v→t, pays at least the cheapest free channel
// of each link on it and at least 0 at each junction, so the backward
// shortest-path distance π(v) over G with w(e) ≤ min_{λ∈Λ(e)} w(e,λ)
// never exceeds the auxiliary distance from any shore node of v to X_t.
// π is consistent on both arc kinds of G' (a conversion arc stays inside
// one physical node; a link arc weighs at least the weight the backward
// pass relaxed) and 0 on X_t. DESIGN.md §14 carries the proof, including
// why capping π at π(s) keeps both properties.
//
// π depends on (t, residual network) alone, so a caller that serves many
// queries on one residual may keep complete rows and lend them through
// Options.Bound; without one the pass runs per query, from that query's
// own snapshot. Either way a link's minimum is the one its residual
// network computed when it installed the link's channel set
// (wdm.Link.MinWeight), so no epoch can see another epoch's bound.
//
// The pass weighs a link by its minimum rounded DOWN to a multiple of
// Aux.boundGrid, so every label is an exact multiple of the grid below
// 2²⁴ grid units: sums are exact in any order and a stored row holds its
// labels in float32 without rounding. Rounding a weight down keeps π a
// shortest-path distance under weights no larger than the real ones,
// which is all the proof above uses.

// BoundRows lends DirectedAStar complete bound rows for one residual
// network: row[v] is π(v) toward destination t over every physical node,
// immutable once stored. Results are bit-identical with and without it —
// the potential is min(π(v), π(s)) whether π was read from a row, built
// for one, or computed up to s and thrown away.
type BoundRows interface {
	// Row returns the resident row for destination t, or nil; with nil,
	// build tells the query to compute the complete row and Store it
	// (false: compute only what this query needs and keep nothing).
	Row(t int) (row []float32, build bool)
	Store(t int, row []float32)
}

// Values of AttrBoundRow: where a DirectedAStar query got its bound.
const (
	BoundRowHit    = "hit"    // read from a resident row, no pass
	BoundRowBuilt  = "built"  // complete pass, row stored for later queries
	BoundRowAbsent = "absent" // pass run up to s, nothing kept
)

// boundGrid returns the grid q for a layout of n nodes whose heaviest
// channel weighs maxW: 2^(⌈log₂(n·maxW)⌉ − 24), so a path of up to n−1
// links sums to fewer than 2²⁴ grid units. 0 means no rounding — every
// weight is zero, or the grid would underflow.
func boundGrid(n int, maxW float64) float64 {
	x := float64(n) * maxW
	if !(x > 0) || graph.IsInf(x) {
		return 0
	}
	frac, exp := math.Frexp(x) // x = frac·2^exp, ½ ≤ frac < 1
	if frac == 0.5 {
		exp-- // x is a power of two: ⌈log₂ x⌉ = log₂ x
	}
	return math.Ldexp(1, exp-24)
}

// gridFloor rounds w down to a multiple of q (q a power of two: both
// steps are exact; +Inf stays +Inf).
func gridFloor(w, q float64) float64 {
	if q == 0 {
		return w
	}
	return math.Floor(w/q) * q
}

// boundScratch is the backward pass's per-query state, sized by the
// physical node count and carried on the pooled queryScratch.
type boundScratch struct {
	pi    []float64 // π(v) as the pass left it; valid for the query that filled it
	row   []float32 // the lent row a query reads instead of pi
	cap   float64   // π(s): the potential is cut down to it
	queue *graph.BucketQueue

	info []AuxNode // the querying Aux's node identities
	// v ↦ min(π(info[v].Node), cap) over pi and over row, built once:
	// queries allocate no closure.
	passPot, rowPot func(int) float64

	// The dive's visited set: physical node v is visited by the current
	// dive when seen[v] == stamp, so a dive clears nothing.
	seen  []uint32
	stamp uint32
}

func newBoundScratch(n int) *boundScratch {
	b := &boundScratch{
		pi:    make([]float64, n),
		queue: graph.NewBucketQueue(),
		seen:  make([]uint32, n),
	}
	b.passPot = func(v int) float64 { return min(b.pi[b.info[v].Node], b.cap) }
	b.rowPot = func(v int) float64 { return min(float64(b.row[b.info[v].Node]), b.cap) }
	return b
}

// physicalBound returns the potential for an s→t query, the number of
// physical nodes the backward pass scanned for it, and where the bound
// came from (a BoundRow* value). A row resident in rows is read as is;
// otherwise the pass runs from t — complete, and stored, when rows asks
// for the row, else only up to s. The potential is min(π(v), π(s)) in
// every case: exact below π(s), a lower bound above it, and consistent
// because a minimum of consistent potentials is. A nil potential means
// π(s) = +Inf — no physical path carries a free channel on every link,
// so no semilightpath exists whatever the wavelengths.
func (a *Aux) physicalBound(qs *queryScratch, s, t int, rows BoundRows) (pot func(int) float64, pops int, from string) {
	if qs.bound == nil {
		qs.bound = newBoundScratch(a.nw.NumNodes())
	}
	b := qs.bound
	b.info = a.info
	var (
		row   []float32
		build bool
	)
	if rows != nil {
		row, build = rows.Row(t)
	}
	if row != nil {
		b.row, b.cap = row, float64(row[s])
		pot, from = b.rowPot, BoundRowHit
	} else {
		stop := s
		if build {
			stop = -1 // the complete row: run the pass to exhaustion
		}
		pops = a.boundPass(b, t, stop)
		b.cap = b.pi[s]
		pot, from = b.passPot, BoundRowAbsent
		if build {
			if row := exactRow(b.pi); row != nil {
				rows.Store(t, row)
				from = BoundRowBuilt
			}
		}
	}
	if graph.IsInf(b.cap) {
		pot = nil
	}
	return pot, pops, from
}

// ceilingMargin widens the dive's price into the forward search's
// ceiling. A node the search pops has a key f ≤ d* as the search sums
// it, and a node on the way to it — a pass-through Y node, or one the
// search relaxes first — has an exact f no larger; the two roundings of
// a key are each within 2⁻⁵³ of it, far inside 2⁻³⁰, so no such node is
// over UB·(1 + 2⁻³⁰). DESIGN.md §14, Why the ceiling changes nothing.
const ceilingMargin = 1 + 0x1p-30

// dive walks G' greedily from Y_s toward X_t under pot and returns the
// cost UB of the semilightpath it walks, or +Inf when it gives up, with
// the number of link arcs it took. From s it takes the link arc out of
// Y_s, and from an X node the conversion arc and then the link arc, that
// minimise c + w + pot(next); it stops at the first X_t node. It sums
// the arc weights one at a time in path order — the association the
// forward search sums distances in — so UB is the search's own sum along
// a real s→t path, and float addition being monotone, UB ≥ the d* the
// search computes. It gives up at a dead end (every next key +Inf) and
// when the walk comes back to a physical node it has visited, so it
// takes at most n−1 links. pot must be the potential the forward search
// runs under; its values are not trusted, only used to steer.
func (a *Aux) dive(b *boundScratch, s, t int, pot func(int) float64) (ub float64, hops int) {
	if b.stamp++; b.stamp == 0 {
		clear(b.seen) // the stamp wrapped: old stamps would read as visits
		b.stamp = 1
	}
	b.seen[s] = b.stamp
	g, cur := 0.0, -1 // cur is the X node the walk stands on; -1 at s
	for {
		best := hop{key: graph.Inf, x: -1}
		if cur < 0 {
			for yi := range a.yLambdas[s] {
				a.bestLink(int(a.yStart[s])+yi, 0, pot, &best)
			}
		} else {
			for _, c := range a.g.Out(cur) {
				a.bestLink(int(c.To), c.Weight, pot, &best)
			}
		}
		if best.x < 0 {
			return graph.Inf, hops // a dead end
		}
		g = g + best.c + best.w
		hops++
		v := int(a.info[best.x].Node)
		if v == t {
			return g, hops
		}
		if b.seen[v] == b.stamp {
			return graph.Inf, hops // a cycle: the potential is steering the walk wrong
		}
		b.seen[v], cur = b.stamp, best.x
	}
}

// hop is a step of the dive: a conversion arc of weight c into a Y node,
// then a link arc of weight w to the X node x; key is c + w + pot(x).
type hop struct {
	key, c, w float64
	x         int
}

// bestLink lowers best to the cheapest step through Y node y, entered
// by a conversion arc of weight c.
func (a *Aux) bestLink(y int, c float64, pot func(int) float64, best *hop) {
	for _, l := range a.g.Out(y) {
		if k := c + l.Weight + pot(int(l.To)); k < best.key {
			*best = hop{key: k, c: c, w: l.Weight, x: int(l.To)}
		}
	}
}

// boundPass fills b.pi with backward distances to t and returns the
// number of nodes it scanned. The pass is label-correcting over the
// bucket queue the SourceTree search uses, at the same width: a link
// minimum is (to within the grid) at least the lightest layout channel,
// so on a network whose weight range fits the window each node is
// scanned once, in bucket order. With stop ≥ 0 it ends once the bucket
// stop was scanned from is empty — the whole bucket, not stop alone: by
// then every node whose distance falls in that bucket or an earlier one
// is final, stop among them, while a node still queued in it could yet
// be improved. Labels left above π(stop) are then tentative, but each is
// at least its node's distance and that exceeds π(stop), so
// min(label, π(stop)) is what the complete pass (stop < 0) would give.
func (a *Aux) boundPass(b *boundScratch, t, stop int) (pops int) {
	pi, q, grid := b.pi, b.queue, a.boundGrid
	for v := range pi {
		pi[v] = graph.Inf
	}
	q.Reset(a.bucketWidth)
	pi[t] = 0
	q.Push(t, 0)
	met, last := false, 0.0
	for {
		u, du, ok := q.Pop()
		if !ok || met && q.Bucket() != last {
			break
		}
		if du != pi[u] {
			continue // stale: u was improved after this entry was queued
		}
		pops++
		// A stop node popped from beyond its own bucket (a weight range the
		// window does not cover) is not final and does not end the pass.
		if u == stop && q.Timely(du) {
			met, last = true, q.Bucket()
		}
		for _, id := range a.nw.In(u) {
			l := a.nw.Link(int(id))
			// A link with no free channel weighs +Inf and improves nothing.
			if nd := du + gridFloor(l.MinWeight(), grid); nd < pi[l.From] {
				pi[l.From] = nd
				q.Push(l.From, nd)
			}
		}
	}
	return pops
}

// exactRow copies a complete pass's labels into a float32 row, or
// returns nil if one of them does not survive the conversion: a residual
// heavier than the layout the grid was sized from (labels past 2²⁴ grid
// units), or weights outside float32's exponent range. Such a network
// keeps no rows.
func exactRow(pi []float64) []float32 {
	row := make([]float32, len(pi))
	for v, d := range pi {
		row[v] = float32(d)
		if float64(row[v]) != d {
			return nil
		}
	}
	return row
}
