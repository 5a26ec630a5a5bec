package serve

import (
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"lightpath/internal/core"
	"lightpath/internal/engine"
	"lightpath/internal/obs"
)

// TestFlightRecorderExactlyOnceUnderLoad is the ISSUE's serve-layer
// acceptance test: 16 concurrent TCP clients fire route/alloc traffic
// at a server whose flight recorder is large enough to retain
// everything, and at quiescence every admitted request appears in the
// recorder exactly once, with queue-wait + exec span durations summing
// inside the request's wall-clock extent.
func TestFlightRecorderExactlyOnceUnderLoad(t *testing.T) {
	const (
		clients   = 16
		perClient = 25
		totalReqs = clients * perClient
		ringSlack = 64 // room for serve_conn traces alongside requests
	)
	eng := newEngine(t, "-topo", "nsfnet", "-k", "8", "-seed", "7")
	reg := obs.NewRegistry()
	tel := NewTelemetry(reg)
	tracer := obs.NewTracer(&obs.TracerOptions{
		RingSize:      totalReqs + ringSlack,
		SlowThreshold: -1,
	})
	start := time.Now()
	_, addr := startServer(t, eng, &ServerConfig{
		QueueDepth:     4, // small queue: force real queue-wait under 16 clients
		RequestTimeout: 30 * time.Second,
		Telemetry:      tel,
		Tracer:         tracer,
	})

	var wg sync.WaitGroup
	var mu sync.Mutex
	shed := 0
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := dialT(t, addr)
			for i := 0; i < perClient; i++ {
				line, err := cl.Do(fmt.Sprintf("route %d %d", (c+i)%14, (c+i+5)%14))
				if err != nil {
					t.Errorf("client %d: %v", c, err)
					return
				}
				if Classify(line) == ReplyBusy {
					mu.Lock()
					shed++
					mu.Unlock()
				}
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(start)

	// Collect everything the recorder retained, split by root span.
	var requests []*obs.ReqTrace
	for _, r := range tracer.Recent(totalReqs + ringSlack) {
		if r.Root().Name != spanRequest {
			continue
		}
		if a, _ := r.Root().Attr(attrOutcome); a.Str == outcomeShed {
			continue
		}
		requests = append(requests, r)
	}

	admitted := int(reg.Snapshot()["serve_requests_total"].(uint64))
	if admitted+shed != totalReqs {
		t.Errorf("admitted %d + shed %d != sent %d", admitted, shed, totalReqs)
	}
	if len(requests) != admitted {
		t.Fatalf("recorder retains %d request traces, telemetry admitted %d", len(requests), admitted)
	}

	seen := make(map[uint64]bool, len(requests))
	for _, r := range requests {
		if seen[r.ID] {
			t.Errorf("request trace %d appears twice", r.ID)
		}
		seen[r.ID] = true

		q, e := r.Span(spanQueueWait), r.Span(spanExec)
		if q == nil || e == nil {
			t.Errorf("trace %d missing queue-wait or exec span", r.ID)
			continue
		}
		if sum := q.Duration() + e.Duration(); sum > r.Duration() {
			t.Errorf("trace %d: queue %s + exec %s exceeds request %s",
				r.ID, q.Duration(), e.Duration(), r.Duration())
		}
		if r.Duration() > wall {
			t.Errorf("trace %d: request %s exceeds test wall clock %s", r.ID, r.Duration(), wall)
		}
		if a, ok := r.Root().Attr(attrVerb); !ok || a.Str != "route" {
			t.Errorf("trace %d: verb attr = %+v ok=%v", r.ID, a, ok)
		}
		if a, ok := r.Root().Attr(attrRemote); !ok || a.Str == "" {
			t.Errorf("trace %d: remote attr = %+v ok=%v", r.ID, a, ok)
		}
	}
}

// TestServeVerbsRecentSlowTracejson drives the three trace-query verbs
// over TCP end to end.
func TestServeVerbsRecentSlowTracejson(t *testing.T) {
	eng := newEngine(t, "-topo", "nsfnet", "-k", "8", "-seed", "7")
	tracer := obs.NewTracer(&obs.TracerOptions{SlowThreshold: 0}) // default 1ms
	tracer.SetSlowThreshold(0)                                    // everything is "slow"
	_, addr := startServer(t, eng, &ServerConfig{Tracer: tracer})
	cl := dialT(t, addr)

	if line, err := cl.Do("route 0 7"); err != nil || Classify(line) != ReplyOK {
		t.Fatalf("route: %q err=%v", line, err)
	}

	// recent: the route request must be listed.
	if err := cl.Send("recent"); err != nil {
		t.Fatal(err)
	}
	line, err := cl.ReadLine()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(line, "verb route") || !strings.Contains(line, "outcome ok") {
		t.Fatalf("recent line = %q", line)
	}
	fields := strings.Fields(line)
	if len(fields) < 2 || fields[0] != "trace" {
		t.Fatalf("recent line shape: %q", line)
	}
	id := fields[1]

	// slow: threshold 0 retains everything, so the same trace shows up.
	if err := cl.Send("slow 1"); err != nil {
		t.Fatal(err)
	}
	if line, err = cl.ReadLine(); err != nil || !strings.HasPrefix(strings.TrimSpace(line), "trace ") {
		t.Fatalf("slow line = %q err=%v", line, err)
	}

	// tracejson: the full span tree, decodable JSON.
	raw, err := cl.Do("tracejson " + id)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		ID    uint64 `json:"id"`
		Spans []struct {
			Name string `json:"name"`
		} `json:"spans"`
	}
	if err := json.Unmarshal([]byte(raw), &doc); err != nil {
		t.Fatalf("tracejson reply not JSON: %v\n%s", err, raw)
	}
	names := make(map[string]bool)
	for _, s := range doc.Spans {
		names[s.Name] = true
	}
	for _, want := range []string{spanRequest, spanQueueWait, spanExec, "engine_route", "core_search"} {
		if !names[want] {
			t.Errorf("tracejson missing span %q (got %v)", want, names)
		}
	}

	// Error paths: unknown ID, bad count.
	if line, err := cl.Do("tracejson 999999"); err != nil || !strings.HasPrefix(line, "error:") {
		t.Errorf("tracejson unknown id = %q err=%v", line, err)
	}
	if line, err := cl.Do("recent 0"); err != nil || !strings.HasPrefix(line, "error:") {
		t.Errorf("recent 0 = %q err=%v", line, err)
	}
}

// TestServeVerbsWithoutRecorder: the trace verbs answer a clean
// protocol error when no tracer is configured.
func TestServeVerbsWithoutRecorder(t *testing.T) {
	eng := newEngine(t, "-topo", "nsfnet", "-k", "8", "-seed", "7")
	_, addr := startServer(t, eng, nil)
	cl := dialT(t, addr)
	for _, verb := range []string{"recent", "slow 5", "tracejson 1"} {
		line, err := cl.Do(verb)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(line, "recorder not configured") {
			t.Errorf("%s = %q, want recorder-not-configured error", verb, line)
		}
	}
}

// TestReplExecOwnsTraceLifecycle: a session with its own tracer (the
// REPL path) records one serve_request per Exec.
func TestReplExecOwnsTraceLifecycle(t *testing.T) {
	eng := newEngine(t, "-topo", "nsfnet", "-k", "8", "-seed", "7")
	tracer := obs.NewTracer(&obs.TracerOptions{SlowThreshold: -1})
	var sb strings.Builder
	sess := NewSession(eng, &sb, &SessionOptions{Tracer: tracer})
	if _, err := sess.Exec("route 0 7"); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Exec("epoch"); err != nil {
		t.Fatal(err)
	}
	if got := tracer.Recorded(); got != 2 {
		t.Fatalf("recorded %d traces, want 2", got)
	}
	r := tracer.Recent(1)[0]
	if a, _ := r.Root().Attr(attrVerb); a.Str != "epoch" {
		t.Errorf("newest trace verb = %q, want epoch", a.Str)
	}
	// The session's own recent verb sees the same recorder.
	sb.Reset()
	if _, err := sess.Exec("recent 5"); err != nil {
		t.Fatal(err)
	}
	// The recent request itself is still in flight while it executes, so
	// it lists the two finished traces.
	if got := strings.Count(sb.String(), "trace "); got != 2 {
		t.Errorf("recent listed %d traces, want 2 (route, epoch)", got)
	}
}

// TestInspectedRequestsAreRecorded: explain, and route/alloc under
// trace on, run under the request's serve_exec span like every other
// request, so the flight recorder shows the search for exactly the
// requests an operator is inspecting — and the rendered anatomy is read
// back from those same spans.
func TestInspectedRequestsAreRecorded(t *testing.T) {
	eng := newEngine(t, "-topo", "nsfnet", "-k", "8", "-seed", "7")
	tracer := obs.NewTracer(&obs.TracerOptions{SlowThreshold: -1})
	var sb strings.Builder
	sess := NewSession(eng, &sb, &SessionOptions{Tracer: tracer})
	for _, tc := range []struct {
		line  string
		spans []string // each nested under the one before, serve_exec first
		extra []string
	}{
		{"explain 0 7", []string{spanExec, engine.SpanRoute, core.SpanSearch}, nil},
		{"trace on", nil, nil},
		{"route 0 7", []string{spanExec, engine.SpanRoute, core.SpanSearch}, nil},
		{"alloc 0 7", []string{spanExec, engine.SpanRoute, core.SpanSearch},
			[]string{engine.SpanAllocate, engine.SpanPublish}},
	} {
		sb.Reset()
		if _, err := sess.Exec(tc.line); err != nil {
			t.Fatalf("%s: %v", tc.line, err)
		}
		if tc.spans == nil {
			continue
		}
		r := tracer.Recent(1)[0]
		if a, _ := r.Root().Attr(attrVerb); a.Str != strings.Fields(tc.line)[0] {
			t.Fatalf("%s: newest trace is verb %q", tc.line, a.Str)
		}
		all := r.Spans()
		for i, name := range tc.spans {
			sp := r.Span(name)
			if sp == nil {
				t.Fatalf("%s: retained trace has no %s span (got %d spans)", tc.line, name, len(all))
			}
			if i > 0 && all[sp.Parent].Name != tc.spans[i-1] {
				t.Errorf("%s: %s is nested under %s, want %s", tc.line, name, all[sp.Parent].Name, tc.spans[i-1])
			}
		}
		for _, name := range tc.extra {
			if r.Span(name) == nil {
				t.Errorf("%s: retained trace has no %s span", tc.line, name)
			}
		}
		settled, _ := r.Span(core.SpanSearch).Attr(core.AttrSettled)
		if want := fmt.Sprintf("settled %d", settled.Int()); settled.Int() <= 0 || !strings.Contains(sb.String(), want) {
			t.Errorf("%s: reply does not render the recorded %q:\n%s", tc.line, want, sb.String())
		}
	}
}

// TestExplainWithoutRecorder: the recorder being absent, off, or having
// sampled the request out must not blind explain or the trace-on
// summaries — they run the query under a private trace instead.
func TestExplainWithoutRecorder(t *testing.T) {
	sampledOut := obs.NewTracer(&obs.TracerOptions{Sample: 1000})
	for name, tracer := range map[string]*obs.Tracer{
		"no tracer":   nil,
		"disabled":    obs.NewTracer(&obs.TracerOptions{Disabled: true}),
		"sampled out": sampledOut,
	} {
		eng := newEngine(t, "-topo", "nsfnet", "-k", "8", "-seed", "7")
		var sb strings.Builder
		sess := NewSession(eng, &sb, &SessionOptions{Tracer: tracer})
		for _, line := range []string{"explain 0 7", "trace on", "route 0 7", "alloc 0 7"} {
			if _, err := sess.Exec(line); err != nil {
				t.Fatalf("%s: %s: %v", name, line, err)
			}
		}
		out := sb.String()
		if got := strings.Count(out, "settled "); got != 3 {
			t.Fatalf("%s: want 3 anatomy lines (explain, route, alloc), got %d:\n%s", name, got, out)
		}
		if strings.Contains(out, "settled 0") || strings.Contains(out, "aux 0") {
			t.Errorf("%s: anatomy rendered without its search counters:\n%s", name, out)
		}
		if tracer.Recorded() != 0 {
			t.Errorf("%s: private traces leaked into the recorder (%d recorded)", name, tracer.Recorded())
		}
	}
}

// TestTraceSummaryReportsFinalAttempt pins the summary of a claim that
// lost a race — a shape no single-goroutine script can provoke — on a
// hand-built span tree: the counters and epoch are the last attempt's,
// and " attempts N" appears only when N > 1.
func TestTraceSummaryReportsFinalAttempt(t *testing.T) {
	eng := newEngine(t, "-topo", "nsfnet", "-k", "8", "-seed", "7")
	res, err := eng.Route(0, 7)
	if err != nil {
		t.Fatal(err)
	}
	attemptTree := func(attempts int) *obs.Span {
		root := obs.StartTrace(spanExec).Root()
		for i := 0; i < attempts; i++ {
			route := root.StartChild(engine.SpanRoute)
			route.SetInt(engine.AttrEpoch, int64(10+i))
			search := route.StartChild(core.SpanSearch)
			search.SetInt(core.AttrAuxNodes, 82)
			search.SetInt(core.AttrAuxArcs, 198)
			search.SetInt(core.AttrSettled, int64(50+i))
			search.SetInt(core.AttrRelaxed, int64(80+i))
			// The last attempt alone found its bound row resident.
			search.SetStr(core.AttrBoundRow, map[bool]string{false: core.BoundRowAbsent, true: core.BoundRowHit}[i == 2])
			search.End()
			route.End()
			claim := root.StartChild(engine.SpanAllocate)
			claim.SetInt(engine.AttrAttempt, int64(i))
			claim.End()
		}
		return root
	}
	var sb strings.Builder
	sess := NewSession(eng, &sb, nil)

	a := readAnatomy(attemptTree(3))
	if a.attempts != 3 || a.epoch != 12 || a.settled != 52 || a.relaxed != 82 || a.blocked {
		t.Fatalf("anatomy of a third-attempt claim = %+v", a)
	}
	sess.printTraceSummary(0, 7, res, a)
	want := fmt.Sprintf("  trace 0->7 epoch 12 cost %g (%d hops, ", res.Cost, res.Path.Len())
	if got := sb.String(); !strings.HasPrefix(got, want) ||
		!strings.Contains(got, " aux 82n/198a settled 52 relaxed 82 bound row hit attempts 3 in ") {
		t.Fatalf("summary = %q", got)
	}

	sb.Reset()
	sess.printTraceSummary(0, 7, res, readAnatomy(attemptTree(1)))
	if got := sb.String(); strings.Contains(got, "attempts") || !strings.Contains(got, " relaxed 80 bound row absent in ") {
		t.Fatalf("first-try summary = %q", got)
	}
}
