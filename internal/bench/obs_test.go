package bench

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestObsReportMeasures drives the telemetry benchmark at reduced scale
// and checks it produces sane measurements: every variant timed,
// latency quantiles populated and ordered. Overheads are NOT asserted
// here — at test scale they are noise; the committed BENCH_obs.json
// records the full-scale figures.
func TestObsReportMeasures(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive")
	}
	r, err := ObsReport(Config{Seed: 1998, Scale: 0.1, Reps: 1})
	if err != nil {
		t.Fatal(err)
	}
	if r.BaselineNsPerOp <= 0 || r.TracerOffNsPerOp <= 0 ||
		r.RecorderOnNsPerOp <= 0 || r.SamplerOnNsPerOp <= 0 {
		t.Fatalf("unmeasured variant: %+v", r)
	}
	// The zero-alloc contract of the disabled span path holds at any
	// scale — this is the machine-checked half of the recorder-off
	// acceptance gate (the other half, overhead in ns per route, is noise
	// at test scale and gated by scripts/bench_obs.sh instead).
	if r.SpanAllocsOffPerOp != 0 {
		t.Fatalf("recorder-off spanned RouteFrom allocates %v/op, want 0", r.SpanAllocsOffPerOp)
	}
	// Recording builds in a pooled buffer and retains by value: the same
	// bound scripts/bench_obs.sh gates.
	if r.SpanAllocsOnPerOp > 1 {
		t.Fatalf("recorder-on spanned RouteFrom allocates %v/op, want <= 1", r.SpanAllocsOnPerOp)
	}
	// The sampler must never push allocations into the cached routing
	// hot path: it reads the registry from its own goroutine.
	if r.SamplerAllocsPerOp != 0 {
		t.Fatalf("cached RouteFrom with sampler attached allocates %v/op, want 0", r.SamplerAllocsPerOp)
	}
	if r.RouteLatencyP50Ns <= 0 {
		t.Fatalf("route latency histogram empty: %+v", r)
	}
	if r.RouteLatencyP50Ns > r.RouteLatencyP95Ns || r.RouteLatencyP95Ns > r.RouteLatencyP99Ns {
		t.Fatalf("latency quantiles out of order: p50 %v p95 %v p99 %v",
			r.RouteLatencyP50Ns, r.RouteLatencyP95Ns, r.RouteLatencyP99Ns)
	}
}

// TestObsReportJSONRoundTrips checks the BENCH_obs.json writer produces
// a parseable record with the fields downstream tooling keys on.
func TestObsReportJSONRoundTrips(t *testing.T) {
	r := &ObsBenchResult{
		Topology: "nsfnet", Nodes: 14, Links: 42, K: 8, Requests: 2000,
		BaselineNsPerOp: 5000, TracerOffNsPerOp: 5050,
		RecorderOnNsPerOp: 5300, SamplerOnNsPerOp: 5080,
		TracerOffOverheadNs: 50, TracerOffOverheadPct: 1.0,
		RecorderOnOverheadNs: 300, RecorderOnOverheadPct: 6.0,
		SamplerOverheadNs: 30, SamplerOverheadPct: 0.6,
		SpanAllocsOffPerOp: 0, SpanAllocsOnPerOp: 7,
		SamplerAllocsPerOp: 0,
		RouteLatencyP50Ns:  5000, RouteLatencyP95Ns: 9000, RouteLatencyP99Ns: 12000,
		GeneratedAt: "2026-08-06T00:00:00Z",
	}
	path := filepath.Join(t.TempDir(), "BENCH_obs.json")
	if err := r.WriteJSON(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back ObsBenchResult
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back != *r {
		t.Fatalf("round trip changed the record:\n got %+v\nwant %+v", back, *r)
	}
	var loose map[string]any
	if err := json.Unmarshal(data, &loose); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{
		"baseline_ns_per_op", "tracer_off_ns_per_op",
		"tracer_off_overhead_ns", "tracer_off_overhead_pct", "route_latency_p50_ns",
		"recorder_on_ns_per_op", "recorder_on_overhead_ns", "recorder_on_overhead_pct",
		"span_allocs_off_per_op", "span_allocs_on_per_op",
		"sampler_on_ns_per_op", "sampler_overhead_ns", "sampler_overhead_pct", "sampler_allocs_per_op",
	} {
		if _, ok := loose[key]; !ok {
			t.Fatalf("JSON record missing %q: %s", key, data)
		}
	}
}
