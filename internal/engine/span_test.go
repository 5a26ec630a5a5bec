package engine

import (
	"math/rand"
	"testing"

	"lightpath/internal/obs"
	"lightpath/internal/topo"
	"lightpath/internal/workload"
)

func spanTestEngine(t *testing.T) *Engine {
	t.Helper()
	nw, err := workload.Build(topo.NSFNET(), workload.Spec{
		K:         8,
		AvailProb: 0.6,
		Conv:      workload.ConvUniform,
		ConvCost:  0.3,
	}, rand.New(rand.NewSource(1998)))
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(nw, &Options{CacheSize: nw.NumNodes()})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestRouteRecordsSearchSpans checks the span tree a recorded
// point-to-point query produces: engine_route → core_search with the
// Dijkstra counters, and no retired per-λ profile.
func TestRouteRecordsSearchSpans(t *testing.T) {
	e := spanTestEngine(t)
	tracer := obs.NewTracer(&obs.TracerOptions{SlowThreshold: -1})
	req := tracer.Start("request")
	res, err := e.Snapshot().Route(0, 7, req.Root())
	if err != nil {
		t.Fatal(err)
	}
	tracer.Finish(req)
	if n := tracer.Misuses(); n != 0 {
		t.Errorf("route made %d span lifecycle misuses (a span left open?)", n)
	}
	req = tracer.Recent(1)[0] // what was retained

	er := req.Span("engine_route")
	if er == nil {
		t.Fatal("no engine_route span recorded")
	}
	if a, ok := er.Attr("epoch"); !ok || a.Int() != 0 {
		t.Errorf("engine_route epoch attr = %+v ok=%v", a, ok)
	}
	cs := req.Span("core_search")
	if cs == nil {
		t.Fatal("no core_search span recorded")
	}
	if spans := req.Spans(); cs.Parent <= 0 || spans[cs.Parent].Name != "engine_route" {
		t.Errorf("core_search parent = %d, want the engine_route span", cs.Parent)
	}
	for _, key := range []string{"aux_nodes", "aux_arcs", "settled", "relaxed"} {
		if _, ok := cs.Attr(key); !ok {
			t.Errorf("core_search missing attr %q", key)
		}
	}
	if a, ok := cs.Attr("settled"); !ok || a.Int() <= 0 {
		t.Errorf("settled = %+v, want > 0", a)
	}
	if a, ok := cs.Attr("cost"); !ok || a.Float() != res.Cost {
		t.Errorf("cost attr = %+v, want %v", a, res.Cost)
	}
	if _, ok := cs.Attr("reached_per_lambda"); ok {
		t.Error("core_search carries reached_per_lambda, a retired attribute")
	}
}

// TestRouteFromCacheLookupSpans: RouteFrom is a pass and looks nothing
// up; a cold CostsFrom records a miss (answered=built) plus the
// core_tree_search of its pass; a warm one records a hit (answered=row)
// and no search.
func TestRouteFromCacheLookupSpans(t *testing.T) {
	e := spanTestEngine(t)
	tracer := obs.NewTracer(&obs.TracerOptions{SlowThreshold: -1})
	record := func(query func(root *obs.Span) error) *obs.ReqTrace {
		t.Helper()
		req := tracer.Start("request")
		if err := query(req.Root()); err != nil {
			t.Fatal(err)
		}
		tracer.Finish(req)
		return tracer.Recent(1)[0] // what was retained
	}
	tree := record(func(root *obs.Span) error { _, err := e.RouteFrom(3, root); return err })
	if tree.Span("engine_cache_lookup") != nil || tree.Span("core_tree_search") == nil {
		t.Error("RouteFrom must run its pass and look nothing up")
	}
	costs := func(root *obs.Span) error { _, err := e.CostsFrom(3, root); return err }

	cold := record(costs)
	look := cold.Span("engine_cache_lookup")
	if look == nil {
		t.Fatal("no engine_cache_lookup span on a cold CostsFrom")
	}
	if a, ok := look.Attr("hit"); !ok || a.Bool() {
		t.Errorf("cold lookup hit attr = %+v ok=%v, want false", a, ok)
	}
	if a, ok := look.Attr("answered"); !ok || a.Str != "built" {
		t.Errorf("cold lookup answered attr = %+v ok=%v, want built", a, ok)
	}
	search := cold.Span("core_tree_search")
	if search == nil {
		t.Fatal("a cold CostsFrom must record the search span")
	}
	// The default engine builds trees on the bucket queue and says so; on
	// a network whose weights fit the window nothing is scanned twice.
	if a, ok := search.Attr("queue"); !ok || a.Str != "bucket" {
		t.Errorf("queue attr = %+v ok=%v, want bucket", a, ok)
	}
	scans, okS := search.Attr("scans")
	settled, okP := search.Attr("settled")
	if !okS || !okP || scans.Int() == 0 || scans.Int() != settled.Int() {
		t.Errorf("scans attr = %+v (%v), settled %+v (%v)", scans, okS, settled, okP)
	}
	if a, ok := search.Attr("rescans"); !ok || a.Int() != 0 {
		t.Errorf("rescans attr = %+v ok=%v, want 0", a, ok)
	}

	warm := record(costs)
	if a, ok := warm.Span("engine_cache_lookup").Attr("hit"); !ok || !a.Bool() {
		t.Errorf("warm lookup hit attr = %+v ok=%v, want true", a, ok)
	}
	if a, ok := warm.Span("engine_cache_lookup").Attr("answered"); !ok || a.Str != "row" {
		t.Errorf("warm lookup answered attr = %+v ok=%v, want row", a, ok)
	}
	if warm.Span("core_tree_search") != nil {
		t.Error("a warm CostsFrom must not run a pass")
	}
}

// TestRouteAndAllocatePublishSpans: a successful allocation records
// engine_allocate (attempt 0) and the epoch publication under it.
func TestRouteAndAllocatePublishSpans(t *testing.T) {
	e := spanTestEngine(t)
	tracer := obs.NewTracer(&obs.TracerOptions{SlowThreshold: -1})
	req := tracer.Start("request")
	owner := e.ReserveOwner()
	if _, err := e.RouteAndAllocate(owner, 0, 7, req.Root()); err != nil {
		t.Fatal(err)
	}
	alloc := req.Span("engine_allocate")
	if alloc == nil {
		t.Fatal("no engine_allocate span")
	}
	if a, ok := alloc.Attr("attempt"); !ok || a.Int() != 0 {
		t.Errorf("attempt attr = %+v ok=%v", a, ok)
	}
	pub := req.Span("engine_publish")
	if pub == nil {
		t.Fatal("no engine_publish span")
	}
	if a, ok := pub.Attr("epoch"); !ok || a.Int() != 1 {
		t.Errorf("publish epoch attr = %+v ok=%v, want 1", a, ok)
	}
	if a, ok := pub.Attr("mode"); !ok || (a.Str != "delta" && a.Str != "full") {
		t.Errorf("publish mode attr = %+v ok=%v", a, ok)
	}
	tracer.Finish(req)

	// Release under a fresh request span.
	rel := tracer.Start("request")
	if err := e.Release(owner, rel.Root()); err != nil {
		t.Fatal(err)
	}
	tracer.Finish(rel)
	rel = tracer.Recent(1)[0] // what was retained
	if rel.Span("engine_release") == nil || rel.Span("engine_publish") == nil {
		t.Error("release must record engine_release and engine_publish spans")
	}
	if n := tracer.Misuses(); n != 0 {
		t.Errorf("allocate and release made %d span lifecycle misuses", n)
	}
}

// TestNilParentSpan: every operation handed an explicit nil parent
// behaves exactly like the call without one.
func TestNilParentSpan(t *testing.T) {
	e := spanTestEngine(t)
	if _, err := e.Route(0, 7, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := e.RouteFrom(0, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := e.CostsFrom(0, nil); err != nil {
		t.Fatal(err)
	}
	owner := e.ReserveOwner()
	if _, err := e.RouteAndAllocate(owner, 0, 7, nil); err != nil {
		t.Fatal(err)
	}
	if err := e.Release(owner, nil); err != nil {
		t.Fatal(err)
	}
}
