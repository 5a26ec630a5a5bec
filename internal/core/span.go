package core

import (
	"strconv"

	"lightpath/internal/graph"
)

// Span names and attribute keys for the core layer. Names are
// compile-time constants so the metricname analyzer can verify them
// (lower_snake, unique across the program).
const (
	SpanSearch        = "core_search"         // one point-to-point query (Route)
	SpanTreeSearch    = "core_tree_search"    // one single-source pass (RouteFrom)
	SpanBoundedSearch = "core_bounded_search" // one hop-bounded DP (RouteBounded)
)

const (
	AttrAuxNodes         = "aux_nodes"
	AttrAuxArcs          = "aux_arcs"
	AttrSettled          = "settled"
	AttrRelaxed          = "relaxed"
	AttrBlocked          = "blocked"
	AttrBlockedCause     = "blocked_cause" // CausePhysical | CauseWavelength
	AttrPhysPops         = "phys_pops"     // physical nodes popped by DirectedAStar's bound pass
	AttrBoundRow         = "bound_row"     // BoundRowHit | BoundRowBuilt | BoundRowAbsent
	AttrCost             = "cost"
	AttrDirected         = "directed_mode"
	AttrMaxHops          = "max_hops"
	AttrReachedPerLambda = "reached_per_lambda"
	AttrQueue            = "queue"   // core_tree_search: the graph.QueueKind the pass ran on
	AttrScans            = "scans"   // bucket queue: entries scanned (popped with a current key)
	AttrRescans          = "rescans" // bucket queue: scans beyond one per X-shore node reached
	AttrMemo             = "memo"    // core_search: true when a stored Result answered and no search ran (RecordMemoHit)
)

// Values of AttrBlockedCause: no physical path from s to t carries a
// free channel on every link (failed or fully-held links on every cut),
// or one does and wavelength continuity/conversion still admits no
// semilightpath.
const (
	CausePhysical   = "physical"
	CauseWavelength = "wavelength"
)

// reachedPerLambda renders per-wavelength counts of reached X-shore
// nodes as "λ:count" pairs sorted by wavelength (e.g. "0:12,2:3") —
// the span-attribute form of the search's expansion profile. Attribute
// *names* must be compile-time constants, so the per-λ breakdown rides
// in one string value rather than one attribute per wavelength. Only
// called on the traced path; it counts and renders in qs's buffers and
// the span copies the bytes, so it allocates nothing. tree is the search
// just run on qs.g: when that kernel listed the nodes it reached (the
// point query's does) the count walks the list, not the X shore.
func (a *Aux) reachedPerLambda(tree *graph.ShortestPathTree, qs *queryScratch) []byte {
	k := a.layout.K()
	if cap(qs.lambdaCount) < k {
		qs.lambdaCount = make([]int, k)
	}
	counts := qs.lambdaCount[:k]
	for l := range counts {
		counts[l] = 0
	}
	if touched, ok := qs.g.Touched(); ok {
		for _, v := range touched {
			if n := a.info[v]; n.Side == SideX {
				counts[n.Lambda]++
			}
		}
	} else {
		for v, lambdas := range a.xLambdas {
			for xi, l := range lambdas {
				if tree.Reached(int(a.xStart[v]) + xi) {
					counts[l]++
				}
			}
		}
	}
	buf := qs.attrBuf[:0]
	for l, c := range counts {
		if c == 0 {
			continue
		}
		if len(buf) > 0 {
			buf = append(buf, ',')
		}
		buf = strconv.AppendInt(buf, int64(l), 10)
		buf = append(buf, ':')
		buf = strconv.AppendInt(buf, int64(c), 10)
	}
	qs.attrBuf = buf
	return buf
}
