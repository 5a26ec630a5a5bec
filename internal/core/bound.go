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
}

func newBoundScratch(n int) *boundScratch {
	b := &boundScratch{
		pi:    make([]float64, n),
		queue: graph.NewBucketQueue(),
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
