package obs

import (
	"bytes"
	"strings"
	"testing"
	"time"
	"unsafe"
)

// TestNilSpanAPIIsFreeAndSafe pins the disabled-path contract every
// layer relies on: a nil Tracer / nil ReqTrace / nil Span absorbs the
// whole span API without panicking and without allocating.
func TestNilSpanAPIIsFreeAndSafe(t *testing.T) {
	var tr *Tracer
	allocs := testing.AllocsPerRun(100, func() {
		req := tr.Start("x")
		root := req.Root()
		sp := root.StartChild("y")
		sp.SetInt("a", 1)
		sp.SetStr("b", "v")
		sp.SetBool("c", true)
		sp.SetFloat("d", 0.5)
		sp.End()
		tr.Finish(req)
	})
	if allocs != 0 {
		t.Fatalf("nil-path span API allocates %v objects per request, want 0", allocs)
	}
	if tr.Enabled() || tr.Recent(5) != nil || tr.Find(1) != nil || tr.Recorded() != 0 {
		t.Error("nil tracer must report empty state")
	}
}

// TestDisabledTracerRecordsNothing: Start on a disabled tracer returns
// nil and the recorder stays empty; allocations stay at zero.
func TestDisabledTracerRecordsNothing(t *testing.T) {
	tr := NewTracer(&TracerOptions{Disabled: true})
	allocs := testing.AllocsPerRun(100, func() {
		req := tr.Start("req")
		req.Root().StartChild("child").End()
		tr.Finish(req)
	})
	if allocs != 0 {
		t.Fatalf("disabled tracer allocates %v objects per request, want 0", allocs)
	}
	if got := tr.Recent(10); len(got) != 0 {
		t.Fatalf("disabled tracer retained %d traces", len(got))
	}
}

func TestSpanTreeConstruction(t *testing.T) {
	tr := NewTracer(&TracerOptions{SlowThreshold: -1})
	req := tr.Start("request")
	if req == nil {
		t.Fatal("enabled tracer returned nil trace")
	}
	root := req.Root()
	root.SetStr("verb", "route")
	a := root.StartChild("phase_a")
	aa := a.StartChild("phase_a_inner")
	aa.SetInt("count", 42)
	aa.End()
	a.End()
	b := root.StartChild("phase_b")
	b.SetBool("hit", false)
	b.End()
	tr.Finish(req)
	if req.Root() != nil || len(req.Spans()) != 0 {
		t.Error("a finished trace must read as empty: its storage is the tracer's again")
	}
	req = tr.Recent(1)[0]
	root = req.Root()

	spans := req.Spans()
	if len(spans) != 4 {
		t.Fatalf("got %d spans, want 4", len(spans))
	}
	wantParents := []int32{-1, 0, 1, 0}
	for i, s := range spans {
		if s.Parent != wantParents[i] {
			t.Errorf("span %d (%s) parent = %d, want %d", i, s.Name, s.Parent, wantParents[i])
		}
	}
	if got := req.Span("phase_a_inner"); got == nil || attrOf(got, "count").Int() != 42 {
		t.Errorf("phase_a_inner lookup = %+v", got)
	}
	if attr, ok := req.Span("phase_b").Attr("hit"); !ok || attr.Kind != AttrBool || attr.Bool() {
		t.Errorf("hit attr = %+v ok=%v", attr, ok)
	}
	if req.DurationNs <= 0 || root.EndNs != req.DurationNs {
		t.Errorf("finish must stamp duration: dur=%d rootEnd=%d", req.DurationNs, root.EndNs)
	}
	for _, s := range spans {
		if s.EndNs < s.StartNs {
			t.Errorf("span %s ends before it starts: [%d, %d]", s.Name, s.StartNs, s.EndNs)
		}
	}
	if tr.Recorded() != 1 {
		t.Errorf("recorded = %d, want 1", tr.Recorded())
	}
}

// TestSpanCapacityDropsChildren: spans beyond MaxSpans are dropped and
// counted, and the pointers already handed out stay valid.
func TestSpanCapacityDropsChildren(t *testing.T) {
	tr := NewTracer(&TracerOptions{MaxSpans: 3, SlowThreshold: -1})
	req := tr.Start("request")
	root := req.Root()
	c1 := root.StartChild("one")
	c2 := root.StartChild("two")
	c3 := root.StartChild("three") // over capacity: dropped
	if c1 == nil || c2 == nil {
		t.Fatal("children under capacity must be recorded")
	}
	if c3 != nil {
		t.Fatal("child over capacity must be dropped")
	}
	c3.SetInt("ignored", 1) // nil child absorbs calls
	c1.SetStr("k", "v")     // pointer still valid after later StartChild
	c1.End()
	c2.End()
	tr.Finish(req)
	req = tr.Recent(1)[0]
	if req.DroppedSpans != 1 {
		t.Errorf("dropped = %d, want 1", req.DroppedSpans)
	}
	if attr, ok := req.Span("one").Attr("k"); !ok || attr.Str != "v" {
		t.Errorf("attr on early child lost: %+v ok=%v", attr, ok)
	}
}

func TestRingRetentionAndWraparound(t *testing.T) {
	tr := NewTracer(&TracerOptions{RingSize: 4, SlowThreshold: -1})
	for i := 0; i < 10; i++ {
		tr.Finish(tr.Start("request"))
	}
	got := tr.Recent(100)
	if len(got) != 4 {
		t.Fatalf("ring of 4 retained %d traces", len(got))
	}
	// Newest first: IDs 10, 9, 8, 7.
	for i, r := range got {
		if want := uint64(10 - i); r.ID != want {
			t.Errorf("recent[%d].ID = %d, want %d", i, r.ID, want)
		}
	}
	if tr.Find(7) == nil {
		t.Error("ID 7 should still be retained")
	}
	if tr.Find(6) != nil {
		t.Error("ID 6 should have been evicted")
	}
	if got := tr.Recent(2); len(got) != 2 || got[0].ID != 10 {
		t.Errorf("Recent(2) = %v", got)
	}
}

// TestSlowLogRetention: fast requests never reach the slow log; slow
// ones are retained there even after the flight recorder evicts them.
func TestSlowLogRetention(t *testing.T) {
	tr := NewTracer(&TracerOptions{RingSize: 2, SlowThreshold: 5 * time.Millisecond})
	slow := tr.Start("request")
	slowID := slow.ID
	time.Sleep(10 * time.Millisecond)
	tr.Finish(slow)
	for i := 0; i < 5; i++ {
		tr.Finish(tr.Start("request")) // fast: evicts the recorder
	}
	if len(tr.Slow(10)) != 1 {
		t.Fatalf("slow log has %d traces, want 1", len(tr.Slow(10)))
	}
	if tr.SlowRecorded() != 1 {
		t.Errorf("slowRecorded = %d, want 1", tr.SlowRecorded())
	}
	// The slow trace fell out of the 2-slot recorder but Find still
	// reaches it through the slow log.
	if got := tr.Find(slowID); got == nil {
		t.Error("slow trace must be findable after recorder eviction")
	}
	for _, r := range tr.Recent(10) {
		if r.ID == slowID {
			t.Error("slow trace should have been evicted from the recorder")
		}
	}
}

func TestFinishRecentOnlySkipsSlowLog(t *testing.T) {
	tr := NewTracer(&TracerOptions{SlowThreshold: 0}) // everything qualifies as slow
	tr.SetSlowThreshold(0)
	conn := tr.Start("conn")
	tr.FinishRecentOnly(conn)
	if got := len(tr.Recent(10)); got != 1 {
		t.Fatalf("recorder has %d traces, want 1", got)
	}
	if got := len(tr.Slow(10)); got != 0 {
		t.Fatalf("slow log has %d traces, want 0: lifetimes must stay out", got)
	}
	if tr.SlowRecorded() != 0 {
		t.Errorf("slowRecorded = %d, want 0", tr.SlowRecorded())
	}
	// Nil-safety matches Finish.
	var nilT *Tracer
	nilT.FinishRecentOnly(nil)
	tr.FinishRecentOnly(nil)
}

func TestHeadSampling(t *testing.T) {
	tr := NewTracer(&TracerOptions{Sample: 4, SlowThreshold: -1})
	recorded := 0
	for i := 0; i < 40; i++ {
		if req := tr.Start("request"); req != nil {
			recorded++
			tr.Finish(req)
		}
	}
	if recorded != 10 {
		t.Errorf("1/4 sampling recorded %d of 40", recorded)
	}
	if NewTracer(&TracerOptions{Sample: 1}).Start("request") == nil {
		t.Error("sample=1 must record every request")
	}
}

// TestSpanLifecycleMisuse: the three lifecycle violations are counted
// on the owning tracer, not applied — a call on a span of a finished
// trace, a second Finish, and a child still open at Finish (which is
// recorded as it stands) — while the nil chain and Finish(nil) stay
// free and uncounted.
func TestSpanLifecycleMisuse(t *testing.T) {
	// The bounds check needs no generation stamp: Span keeps its size.
	if size := unsafe.Sizeof(Span{}); unsafe.Sizeof(uintptr(0)) == 8 && size != 48 {
		t.Errorf("Span is %d bytes, want 48", size)
	}
	tr := NewTracer(&TracerOptions{SlowThreshold: -1})
	req := tr.Start("request")
	root := req.Root()
	child := root.StartChild("child")
	child.End()
	open := root.StartChild("open")
	tr.Finish(req)
	if got := tr.Misuses(); got != 1 {
		t.Fatalf("child open at Finish: misuses = %d, want 1", got)
	}
	if tr.Recent(1)[0].Span("open") == nil {
		t.Error("a child open at Finish must still be recorded")
	}

	stale := []func(){
		func() { root.StartChild("late") },
		func() { child.End() },
		func() { open.SetInt("k", 1) },
		func() { child.SetStr("k", "v") },
		func() { child.SetBool("k", true) },
		func() { child.SetFloat("k", 1) },
		func() { tr.Finish(req) },
		func() { tr.FinishRecentOnly(req) },
	}
	for i, call := range stale {
		call()
		if got, want := tr.Misuses(), uint64(i+2); got != want {
			t.Fatalf("stale call %d: misuses = %d, want %d", i, got, want)
		}
	}
	if tr.Recorded() != 1 {
		t.Errorf("a second Finish was recorded: %d traces", tr.Recorded())
	}
	if len(req.Spans()) != 0 || len(req.attrs) != 0 {
		t.Error("calls on a finished trace must not write its pooled buffer")
	}

	before := tr.Misuses()
	var nilSpan *Span
	nilSpan.StartChild("x").End()
	nilSpan.SetInt("k", 1)
	tr.Finish(nil)
	tr.FinishRecentOnly(nil)
	if tr.Misuses() != before {
		t.Error("the nil chain and Finish(nil) must not count as misuse")
	}
}

func TestRegisterMetrics(t *testing.T) {
	tr := NewTracer(&TracerOptions{SlowThreshold: -1})
	reg := NewRegistry()
	tr.RegisterMetrics(reg)
	tr.Finish(tr.Start("request"))
	snap := reg.Snapshot()
	if snap["trace_recorded_total"].(float64) != 1 {
		t.Errorf("trace_recorded_total = %v", snap["trace_recorded_total"])
	}
	if snap["trace_recorder_enabled"].(float64) != 1 {
		t.Errorf("trace_recorder_enabled = %v", snap["trace_recorder_enabled"])
	}
	if snap["trace_misuse_total"].(float64) != 0 {
		t.Errorf("trace_misuse_total = %v", snap["trace_misuse_total"])
	}
}

// TestReusedStorageLeaksNothing: a trace that fills the span capacity
// (and drops the overflow, counted) followed by a small one through the
// same one-slot ring — and, the pool willing, the same build buffer —
// leaves no span, attribute or drop count of the first in
// the second.
func TestReusedStorageLeaksNothing(t *testing.T) {
	tr := NewTracer(&TracerOptions{RingSize: 1, SlowThreshold: -1})
	big := tr.Start("batch_request")
	for i := 0; i < DefaultMaxSpans+5; i++ {
		sp := big.Root().StartChild("batch_item")
		sp.SetInt("item", int64(i))
		sp.SetStr("payload", "first-trace-bytes")
		sp.End()
	}
	tr.Finish(big)
	got := tr.Recent(1)[0]
	if len(got.Spans()) != DefaultMaxSpans || got.DroppedSpans != 6 {
		t.Fatalf("full trace: %d spans, %d dropped; want %d and 6", len(got.Spans()), got.DroppedSpans, DefaultMaxSpans)
	}

	small := tr.Start("route_request")
	small.Root().SetStr("verb", "route")
	for _, name := range []string{"a", "b", "c"} {
		sp := small.Root().StartChild(name)
		sp.SetStr("payload", name)
		sp.End()
	}
	tr.Finish(small)
	got = tr.Recent(1)[0]
	if len(got.Spans()) != 4 || got.DroppedSpans != 0 {
		t.Fatalf("small trace: %d spans, %d dropped; want 4 and 0", len(got.Spans()), got.DroppedSpans)
	}
	if len(got.attrs) != 4 {
		t.Errorf("small trace carries %d attributes, want 4", len(got.attrs))
	}
	var buf bytes.Buffer
	if err := EncodeReqTrace(&buf, got); err != nil {
		t.Fatal(err)
	}
	for _, leak := range []string{"batch_item", "batch_request", "first-trace-bytes", "item"} {
		if strings.Contains(buf.String(), leak) {
			t.Errorf("small trace's encoding contains %q from the trace before it:\n%s", leak, buf.String())
		}
	}
	if p, _ := got.Span("b").Attr("payload"); p.Str != "b" {
		t.Errorf("payload of the small trace = %q, want %q", p.Str, "b")
	}
}

// attrOf is Span.Attr without the presence flag.
func attrOf(s *Span, key string) Attr {
	a, _ := s.Attr(key)
	return a
}
