package engine

import "lightpath/internal/obs"

// Span names and attribute keys for the engine layer (compile-time
// constants, verified by the metricname analyzer; exported so a reader
// of a finished trace — the explain verb — finds the spans by the names
// they were opened with). Every routing and mutating operation takes an
// optional trailing parent span and records itself as a child of it; an
// absent or nil parent — the disabled-recorder default — is the free
// path: every span call below it is a nil-receiver no-op and nothing
// allocates (pinned by TestCachedRouteFromAllocationFree).
const (
	SpanRoute       = "engine_route"
	SpanRouteFrom   = "engine_routefrom"
	SpanCacheLookup = "engine_cache_lookup"
	SpanAllocate    = "engine_allocate"
	SpanRelease     = "engine_release"
	SpanPublish     = "engine_publish"
)

const (
	AttrEpoch    = "epoch"
	AttrHit      = "hit"
	AttrAnswered = "answered" // on engine_cache_lookup: AnsweredRow | AnsweredBuilt
	AttrAttempt  = "attempt"
	AttrConflict = "conflict"
	AttrMode     = "mode"
)

// What a CostsFrom was answered from (AttrAnswered).
const (
	AnsweredRow   = "row"   // a resident cost row: no pass
	AnsweredBuilt = "built" // one single-source pass, whose row is stored
)

// parentSpan reads an operation's optional trailing span argument: the
// first element, nil when absent.
func parentSpan(parent []*obs.Span) *obs.Span {
	if len(parent) == 0 {
		return nil
	}
	return parent[0]
}
