package core

// Span names and attribute keys for the core layer. Names are
// compile-time constants so the metricname analyzer can verify them
// (lower_snake, unique across the program).
const (
	SpanSearch        = "core_search"         // one point-to-point query (Route)
	SpanTreeSearch    = "core_tree_search"    // one single-source pass (RouteFrom)
	SpanBoundedSearch = "core_bounded_search" // one hop-bounded DP (RouteBounded)
)

const (
	AttrAuxNodes     = "aux_nodes"
	AttrAuxArcs      = "aux_arcs"
	AttrSettled      = "settled"
	AttrRelaxed      = "relaxed"
	AttrBlocked      = "blocked"
	AttrBlockedCause = "blocked_cause" // CausePhysical | CauseWavelength
	AttrPhysPops     = "phys_pops"     // physical nodes popped by DirectedAStar's bound pass
	AttrBoundRow     = "bound_row"     // BoundRowHit | BoundRowBuilt | BoundRowAbsent
	AttrCost         = "cost"
	AttrDirected     = "directed_mode"
	AttrMaxHops      = "max_hops"
	AttrQueue        = "queue"   // core_tree_search: the graph.QueueKind the pass ran on
	AttrScans        = "scans"   // bucket queue: entries scanned (popped with a current key)
	AttrRescans      = "rescans" // bucket queue: scans beyond one per X-shore node reached
	AttrMemo         = "memo"    // core_search: true when a stored Result answered and no search ran (RecordMemoHit)
)

// Values of AttrBlockedCause: no physical path from s to t carries a
// free channel on every link (failed or fully-held links on every cut),
// or one does and wavelength continuity/conversion still admits no
// semilightpath.
const (
	CausePhysical   = "physical"
	CauseWavelength = "wavelength"
)
