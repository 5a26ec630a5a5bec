package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// frameAt builds a frame directly (bypassing a registry) so derivation
// tests control values and timestamps exactly. Values must be given in
// name order.
func frameAt(seq uint64, at time.Time, values ...NamedValue) *Frame {
	return &Frame{Seq: seq, At: at, Values: values}
}

func TestRate(t *testing.T) {
	now := time.Now()
	later := now.Add(2 * time.Second)
	for _, tc := range []struct {
		name         string
		older, newer []NamedValue
		at           time.Time // newer's instant
		want         float64
		ok           bool
	}{
		{"counter per second", []NamedValue{{"reqs", uint64(100)}}, []NamedValue{{"reqs", uint64(150)}}, later, 25, true},
		{"gauge coerces", []NamedValue{{"depth", int64(-2)}}, []NamedValue{{"depth", int64(6)}}, later, 4, true},
		{"gauge func coerces", []NamedValue{{"util", 0.5}}, []NamedValue{{"util", 1.5}}, later, 0.5, true},
		{"counter reset clamps to 0", []NamedValue{{"reqs", uint64(150)}}, []NamedValue{{"reqs", uint64(10)}}, later, 0, true},
		{"missing metric", []NamedValue{{"reqs", uint64(1)}}, []NamedValue{{"other", uint64(2)}}, later, 0, false},
		{"histogram is not a number", []NamedValue{{"lat", HistogramSnapshot{}}}, []NamedValue{{"lat", HistogramSnapshot{Count: 3}}}, later, 0, false},
		{"no measurable gap", []NamedValue{{"reqs", uint64(1)}}, []NamedValue{{"reqs", uint64(9)}}, now, 0, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, ok := Rate(frameAt(2, tc.at, tc.newer...), frameAt(1, now, tc.older...), tc.older[0].Name)
			if ok != tc.ok || math.Abs(got-tc.want) > 1e-9 {
				t.Errorf("Rate = %v, %v; want %v, %v", got, ok, tc.want, tc.ok)
			}
		})
	}
}

// TestWindow pins the windowed-delta math a quantile rule and the
// history verb read: the distribution between two snapshots of one live
// histogram has bucket-wise non-negative counts, quantiles from the
// window's own distribution (not the lifetime's), and a truthful
// fallback when the earlier snapshot is from a previous incarnation.
func TestWindow(t *testing.T) {
	t.Run("frame pair", func(t *testing.T) {
		h := NewHistogram([]float64{10, 100, 1000})
		now := time.Now()
		h.Observe(5)
		h.Observe(50)
		older := frameAt(1, now, NamedValue{"lat", h.Snapshot()}, NamedValue{"reqs", uint64(1)})
		h.Observe(500)
		h.Observe(500)
		h.Observe(50)
		newer := frameAt(2, now.Add(time.Second), NamedValue{"lat", h.Snapshot()}, NamedValue{"reqs", uint64(2)})
		if d, ok := Window(newer, older, "lat"); !ok || d.Count != 3 {
			t.Errorf("window = %+v, %v; want the 3 observations between the frames", d, ok)
		}
		for _, metric := range []string{"missing", "reqs"} {
			if _, ok := Window(newer, older, metric); ok {
				t.Errorf("Window(%q) must report false", metric)
			}
		}
	})
	t.Run("sub counts", func(t *testing.T) {
		h := NewHistogram([]float64{10, 100, 1000})
		h.Observe(5)
		h.Observe(50)
		h.Observe(50)
		earlier := h.Snapshot()
		h.Observe(500)
		h.Observe(500)
		h.Observe(5)
		later := h.Snapshot()
		d := later.Sub(earlier)
		if d.Count != 3 {
			t.Fatalf("window count = %d, want 3", d.Count)
		}
		for i, want := range []uint64{1, 0, 2, 0} { // 5 in ≤10; two 500s in ≤1000
			if got := d.Buckets[i].Count; got != want {
				t.Errorf("bucket[%d] = %d, want %d", i, got, want)
			}
			if d.Buckets[i].UpperBound != later.Buckets[i].UpperBound {
				t.Errorf("bucket[%d] bound changed: %v", i, d.Buckets[i].UpperBound)
			}
		}
		if want := 500.0 + 500 + 5; math.Abs(d.Sum-want) > 1e-6 {
			t.Errorf("window sum = %v, want %v", d.Sum, want)
		}
		if math.Abs(d.Mean-1005.0/3) > 1e-6 {
			t.Errorf("window mean = %v", d.Mean)
		}
	})
	t.Run("sub never negative", func(t *testing.T) {
		h := NewHistogram(DefaultLatencyBuckets())
		var snaps []HistogramSnapshot
		for _, v := range []float64{100, 2e3, 5e4, 1e6, 3e9, 1e11, 7, 5e5} {
			h.Observe(v)
			snaps = append(snaps, h.Snapshot())
		}
		for i := range snaps {
			for j := i; j < len(snaps); j++ {
				d := snaps[j].Sub(snaps[i])
				if d.Count != uint64(j-i) {
					t.Fatalf("Sub(%d,%d) count = %d, want %d", j, i, d.Count, j-i)
				}
				for k, b := range d.Buckets {
					if b.Count > snaps[j].Buckets[k].Count {
						t.Fatalf("Sub(%d,%d) bucket %d overflowed: %d", j, i, k, b.Count)
					}
				}
			}
		}
	})
	t.Run("sub window quantiles", func(t *testing.T) {
		// The lifetime is dominated by fast observations; the window holds
		// only slow ones, under 1% of the lifetime.
		h := NewHistogram([]float64{10, 100, 1000, 10000})
		for i := 0; i < 20000; i++ {
			h.Observe(5)
		}
		earlier := h.Snapshot()
		for i := 0; i < 100; i++ {
			h.Observe(5000)
		}
		later := h.Snapshot()
		if p99 := later.Quantile(0.99); p99 > 100 {
			t.Fatalf("lifetime p99 = %v, expected fast", p99)
		}
		d := later.Sub(earlier)
		if d.Count != 100 {
			t.Fatalf("window count = %d", d.Count)
		}
		if d.P99 <= 1000 || d.P99 > 10000 || d.P50 <= 1000 || d.P50 > 10000 {
			t.Errorf("window p50/p99 = %v/%v, want both in (1000, 10000]", d.P50, d.P99)
		}
		if d.Min != 1000 || d.Max != 10000 {
			t.Errorf("window min/max = %v/%v, want the occupied bucket's edges 1000/10000", d.Min, d.Max)
		}
	})
	t.Run("sub counter reset", func(t *testing.T) {
		// An earlier snapshot from a previous incarnation with more
		// observations: Sub falls back to the later snapshot unchanged.
		old := NewHistogram([]float64{10, 100})
		for i := 0; i < 50; i++ {
			old.Observe(5)
		}
		earlier := old.Snapshot()
		restarted := NewHistogram([]float64{10, 100})
		restarted.Observe(50)
		restarted.Observe(50)
		later := restarted.Snapshot()
		d := later.Sub(earlier)
		if d.Count != later.Count || d.Sum != later.Sum {
			t.Errorf("reset fallback must return the later snapshot: %+v", d)
		}
		for i := range d.Buckets {
			if d.Buckets[i].Count != later.Buckets[i].Count {
				t.Errorf("reset fallback bucket %d = %d", i, d.Buckets[i].Count)
			}
		}
		if d := later.Sub(NewHistogram([]float64{1, 2, 3}).Snapshot()); d.Count != later.Count {
			t.Error("layout mismatch must fall back to the later snapshot")
		}
	})
	t.Run("sub empty window", func(t *testing.T) {
		h := NewHistogram([]float64{10, 100})
		h.Observe(5)
		s := h.Snapshot()
		d := s.Sub(s)
		if d.Count != 0 || d.Sum != 0 || d.Mean != 0 || d.P99 != 0 || d.Min != 0 || d.Max != 0 {
			t.Errorf("empty window must be all-zero: %+v", d)
		}
		if len(d.Buckets) != len(s.Buckets) {
			t.Errorf("empty window keeps the bucket layout: %d", len(d.Buckets))
		}
	})
	t.Run("sub overflow bucket", func(t *testing.T) {
		h := NewHistogram([]float64{10, 100})
		h.Observe(5)
		earlier := h.Snapshot()
		h.Observe(1e9)
		d := h.Snapshot().Sub(earlier)
		if d.Count != 1 || !math.IsInf(d.Buckets[len(d.Buckets)-1].UpperBound, 1) {
			t.Fatalf("window = %+v, want one observation in the +Inf bucket", d)
		}
		if d.Max != 1e9 || d.P99 != 1e9 {
			t.Errorf("window max/p99 in overflow = %v/%v, want the lifetime max 1e9", d.Max, d.P99)
		}
	})
}

// harness drives a monitor's rule checks with hand-built frames one
// second apart.
type harness struct {
	m   *Monitor
	now time.Time
	seq uint64
}

func newHarness(rules ...Rule) *harness {
	return &harness{m: NewMonitor(NewRegistry(), time.Second, rules), now: time.Now()}
}

// push publishes one frame (values in name order), checks the rules and
// returns the status.
func (h *harness) push(values ...NamedValue) HealthStatus {
	h.seq++
	h.now = h.now.Add(time.Second)
	h.m.frames.push(frameAt(h.seq, h.now, values...))
	h.m.check()
	return h.m.Status()
}

func TestMonitorRules(t *testing.T) {
	const ok, degraded, failing = HealthOK, HealthDegraded, HealthFailing
	counter := func(name string, vs ...uint64) [][]NamedValue {
		out := make([][]NamedValue, len(vs))
		for i, v := range vs {
			out[i] = []NamedValue{{name, v}}
		}
		return out
	}
	lat := NewHistogram([]float64{10, 100, 1000, 10000})
	var latFrames [][]NamedValue
	for i, slow := range []int{0, 0, 50, 50, 50} { // a fast baseline, then slow windows
		for j := 0; j < 100 && i == 0; j++ {
			lat.Observe(5)
		}
		for j := 0; j < slow; j++ {
			lat.Observe(5000)
		}
		latFrames = append(latFrames, []NamedValue{{"lat", lat.Snapshot()}})
	}
	var foldFrames [][]NamedValue
	for i := uint64(1); i <= 7; i++ {
		foldFrames = append(foldFrames, []NamedValue{{"a", i * 10}, {"b", 10 * (max(i, 4) - 4)}})
	}
	for _, tc := range []struct {
		name   string
		rules  []Rule
		frames [][]NamedValue
		want   []HealthStatus // status after each frame
		detail func(t *testing.T, d []RuleState)
	}{{
		name:   "sustain needs consecutive breaches",
		rules:  []Rule{{Name: "c_high", Metric: "c", Threshold: 5, Severity: failing}},
		frames: counter("c", 0, 10, 20, 20, 30, 40, 50, 50), // breach, breach, clean, then three
		want:   []HealthStatus{ok, ok, ok, ok, ok, ok, failing, ok},
	}, {
		name:   "rate rule",
		rules:  []Rule{{Name: "req_rate_high", Metric: "reqs", Threshold: 100, Severity: degraded}},
		frames: counter("reqs", 0, 50, 250, 450, 650), // unknowable, 50/s, then 200/s
		want:   []HealthStatus{ok, ok, ok, ok, degraded},
		detail: func(t *testing.T, d []RuleState) {
			if d[0].Value != 200 || !d[0].Known || d[0].Streak != 3 || !d[0].Firing || d[0].Kind != "rate" {
				t.Errorf("rate detail = %+v", d[0])
			}
		},
	}, {
		name:   "counter reset clamps the rate to 0",
		rules:  []Rule{{Name: "req_rate_high", Metric: "reqs", Threshold: 100, Severity: degraded}},
		frames: counter("reqs", 500, 1000, 10),
		want:   []HealthStatus{ok, ok, ok},
		detail: func(t *testing.T, d []RuleState) {
			if d[0].Value != 0 || !d[0].Known || d[0].Streak != 0 {
				t.Errorf("reset detail = %+v, want a known 0", d[0])
			}
		},
	}, {
		name:   "quantile rule over the window",
		rules:  []Rule{{Name: "lat_p99_slow", Metric: "lat", Quantile: 0.99, Threshold: 1000, Severity: degraded}},
		frames: latFrames, // the first gap is an empty window: unknowable
		want:   []HealthStatus{ok, ok, ok, ok, degraded},
		detail: func(t *testing.T, d []RuleState) {
			if d[0].Kind != "quantile" || d[0].Value <= 1000 || d[0].Streak != 3 {
				t.Errorf("quantile detail = %+v", d[0])
			}
		},
	}, {
		name:   "an unknowable value never breaches",
		rules:  []Rule{{Name: "gone_high", Metric: "gone", Threshold: -1, Severity: failing}},
		frames: counter("c", 1, 2, 3, 4, 5),
		want:   []HealthStatus{ok, ok, ok, ok, ok},
		detail: func(t *testing.T, d []RuleState) {
			if d[0].Known || d[0].Streak != 0 || d[0].Sustain != sustain {
				t.Errorf("unknowable detail = %+v", d[0])
			}
		},
	}, {
		name: "severity folds to the maximum",
		rules: []Rule{
			{Name: "soft_rule", Metric: "a", Threshold: 0, Severity: degraded},
			{Name: "hard_rule", Metric: "b", Threshold: 0, Severity: failing},
		},
		frames: foldFrames, // a rises from the second frame, b from the fifth
		want:   []HealthStatus{ok, ok, ok, degraded, degraded, degraded, failing},
	}} {
		t.Run(tc.name, func(t *testing.T) {
			h := newHarness(tc.rules...)
			for i, values := range tc.frames {
				if got := h.push(values...); got != tc.want[i] {
					t.Fatalf("status after frame %d = %v, want %v (detail %+v)", i+1, got, tc.want[i], h.m.Detail())
				}
			}
			if tc.detail != nil {
				tc.detail(t, h.m.Detail())
			}
		})
	}
}

func TestHealthStatusStringAndJSON(t *testing.T) {
	for s, want := range map[HealthStatus]string{
		HealthOK: "ok", HealthDegraded: "degraded", HealthFailing: "failing", 7: "HealthStatus(7)",
	} {
		if s.String() != want {
			t.Errorf("%d.String() = %q", int(s), s.String())
		}
		j, err := json.Marshal(s)
		if err != nil || string(j) != `"`+want+`"` {
			t.Errorf("marshal %v = %s, %v", s, j, err)
		}
	}
}

// TestMonitorHealthz: /healthz answers 200 while ok or degraded
// (degraded still serves traffic) and 503 only once failing, with the
// status and per-rule detail as JSON.
func TestMonitorHealthz(t *testing.T) {
	for _, tc := range []struct {
		severity HealthStatus
		breach   bool
		code     int
	}{
		{HealthFailing, false, 200},
		{HealthDegraded, true, 200},
		{HealthFailing, true, 503},
	} {
		want := HealthOK
		if tc.breach {
			want = tc.severity
		}
		t.Run(want.String(), func(t *testing.T) {
			h := newHarness(Rule{Name: "depth_high", Metric: "depth", Threshold: 5, Severity: tc.severity})
			for i := int64(0); i < 4; i++ {
				step := int64(1)
				if tc.breach {
					step = 10
				}
				h.push(NamedValue{"depth", i * step})
			}
			rr := httptest.NewRecorder()
			h.m.ServeHTTP(rr, httptest.NewRequest("GET", "/healthz", nil))
			if rr.Code != tc.code || !strings.Contains(rr.Header().Get("Content-Type"), "application/json") {
				t.Errorf("/healthz = %d %q, want %d", rr.Code, rr.Header().Get("Content-Type"), tc.code)
			}
			var body struct {
				Status string `json:"status"`
				Rules  []struct {
					Name, Metric, Kind, Severity string
					Value, Threshold             float64
					Known, Firing                bool
					Streak, Sustain              int
				} `json:"rules"`
			}
			if err := json.Unmarshal(rr.Body.Bytes(), &body); err != nil {
				t.Fatalf("healthz body must be JSON: %v", err)
			}
			r := body.Rules
			if body.Status != want.String() || len(r) != 1 || r[0].Name != "depth_high" ||
				r[0].Metric != "depth" || r[0].Kind != "rate" || r[0].Severity != tc.severity.String() ||
				r[0].Threshold != 5 || !r[0].Known || r[0].Sustain != sustain || r[0].Firing != tc.breach {
				t.Errorf("healthz body = %s", rr.Body.String())
			}
		})
	}
}

// TestMonitorBundleOnTransition: only the transition into failing writes
// a bundle; staying failing writes nothing more, and the next transition
// inside the rate limit is suppressed and counted.
func TestMonitorBundleOnTransition(t *testing.T) {
	breach := func(h *harness, n int) {
		for i := 0; i < n; i++ {
			h.push(NamedValue{"shed", uint64(h.seq) * 1000})
		}
	}
	bundles := func(t *testing.T, dir string) []string {
		entries, _ := os.ReadDir(dir)
		var names []string
		for _, e := range entries {
			names = append(names, e.Name())
		}
		return names
	}
	t.Run("degraded writes no bundle", func(t *testing.T) {
		h := newHarness(Rule{Name: "shed_high", Metric: "shed", Threshold: 1, Severity: HealthDegraded})
		dir := filepath.Join(t.TempDir(), "diag")
		h.m.BundleOnFailing(dir, nil, nil, nil)
		breach(h, 5)
		if h.m.Status() != HealthDegraded || h.m.transitions.Load() != 1 {
			t.Fatalf("status %v after %d transitions, want degraded after 1", h.m.Status(), h.m.transitions.Load())
		}
		if got := bundles(t, dir); len(got) != 0 || h.m.written.Load() != 0 {
			t.Errorf("degraded wrote %v", got)
		}
	})
	t.Run("failing writes one bundle", func(t *testing.T) {
		h := newHarness(Rule{Name: "shed_high", Metric: "shed", Threshold: 1, Severity: HealthFailing})
		dir := filepath.Join(t.TempDir(), "diag")
		var log bytes.Buffer
		h.m.BundleOnFailing(dir, NewTracer(nil), []byte("k=8\n"), &log)
		breach(h, 6) // failing from the fourth frame on
		if got := bundles(t, dir); len(got) != 1 || got[0] != "bundle-001-health_failing" {
			t.Fatalf("bundles = %v, want one for the transition", got)
		}
		if !strings.Contains(log.String(), "health failing: diagnostic bundle captured at "+dir) {
			t.Errorf("log = %q", log.String())
		}
		h.push(NamedValue{"shed", uint64(h.seq-1) * 1000}) // flat: ok again
		breach(h, 4)
		if h.m.Status() != HealthFailing || h.m.transitions.Load() != 3 {
			t.Fatalf("status %v after %d transitions, want failing after 3", h.m.Status(), h.m.transitions.Load())
		}
		if got := bundles(t, dir); len(got) != 1 || h.m.written.Load() != 1 || h.m.suppressed.Load() != 1 {
			t.Errorf("second failing: bundles %v, written/suppressed %d/%d, want 1/1",
				got, h.m.written.Load(), h.m.suppressed.Load())
		}
	})
}

func TestMonitorBundle(t *testing.T) {
	one := []artifact{{"x.txt", func(w io.Writer) error { _, err := io.WriteString(w, "x"); return err }}}
	monitor := func(t *testing.T) (*Monitor, string) {
		dir := t.TempDir()
		m := NewMonitor(NewRegistry(), time.Second, nil)
		m.BundleOnFailing(dir, nil, nil, nil)
		return m, dir
	}
	t.Run("artifacts land atomically", func(t *testing.T) {
		reg := NewRegistry()
		reg.Counter("hits").Add(5)
		m := NewMonitor(reg, time.Second, []Rule{{Name: "hits_high", Metric: "hits", Threshold: 1, Severity: HealthFailing}})
		tr := NewTracer(nil)
		tr.Finish(tr.Start("probe"))
		m.BundleOnFailing(filepath.Join(t.TempDir(), "diag"), tr, []byte("queue-depth=2\n"), nil)
		m.SampleNow()
		path, err := m.Capture("test_reason")
		if err != nil {
			t.Fatal(err)
		}
		if filepath.Base(path) != "bundle-001-test_reason" {
			t.Errorf("bundle path = %s", path)
		}
		for _, name := range []string{
			"manifest.json", "history.json", "metrics.json", "health.json",
			"traces_recent.json", "traces_slow.json", "goroutines.txt", "heap.pprof", "config.txt",
		} {
			if fi, err := os.Stat(filepath.Join(path, name)); err != nil || fi.Size() == 0 {
				t.Errorf("bundle artifact %s missing or empty (err=%v)", name, err)
			}
		}
		mf, err := os.ReadFile(filepath.Join(path, "manifest.json"))
		if err != nil {
			t.Fatal(err)
		}
		var manifest struct {
			Reason    string   `json:"reason"`
			Seq       uint64   `json:"seq"`
			Artifacts []string `json:"artifacts"`
		}
		if err := json.Unmarshal(mf, &manifest); err != nil {
			t.Fatal(err)
		}
		if manifest.Reason != "test_reason" || manifest.Seq != 1 || len(manifest.Artifacts) != 8 {
			t.Errorf("manifest = %+v", manifest)
		}
		if m.written.Load() != 1 || m.suppressed.Load() != 0 {
			t.Errorf("written/suppressed = %d/%d", m.written.Load(), m.suppressed.Load())
		}
		entries, _ := os.ReadDir(filepath.Dir(path))
		if len(entries) != 1 {
			t.Errorf("bundle dir holds %d entries, want the bundle alone", len(entries))
		}
	})
	t.Run("rate limit suppresses and counts", func(t *testing.T) {
		m, _ := monitor(t)
		if p, err := m.writeBundle("flap", one); err != nil || p == "" {
			t.Fatalf("first capture = %q, %v", p, err)
		}
		for i := 0; i < 5; i++ {
			if p, err := m.writeBundle("flap", one); err != nil || p != "" {
				t.Fatalf("capture %d within the rate limit = %q, %v; want suppressed", i, p, err)
			}
		}
		if m.written.Load() != 1 || m.suppressed.Load() != 5 {
			t.Errorf("written/suppressed = %d/%d, want 1/5", m.written.Load(), m.suppressed.Load())
		}
	})
	t.Run("cap suppresses and counts", func(t *testing.T) {
		m, _ := monitor(t)
		m.bundleEvery, m.maxBundles = -1, 2
		for i := 0; i < 2; i++ {
			if p, err := m.writeBundle("burst", one); err != nil || p == "" {
				t.Fatalf("capture %d = %q, %v", i, p, err)
			}
		}
		if p, _ := m.writeBundle("burst", one); p != "" {
			t.Errorf("capture beyond the cap must be suppressed, got %q", p)
		}
		if m.written.Load() != 2 || m.suppressed.Load() != 1 {
			t.Errorf("written/suppressed = %d/%d", m.written.Load(), m.suppressed.Load())
		}
	})
	t.Run("a failed artifact leaves no partial bundle", func(t *testing.T) {
		m, dir := monitor(t)
		_, err := m.writeBundle("boom", append(one, artifact{"bad.txt", func(io.Writer) error { return errors.New("render failed") }}))
		if err == nil {
			t.Fatal("a failed artifact must fail the capture")
		}
		if entries, _ := os.ReadDir(dir); len(entries) != 0 || m.written.Load() != 0 {
			t.Errorf("failed capture left %v behind", entries)
		}
		// The failed attempt must not consume the rate limit.
		if p, err := m.writeBundle("retry", one); err != nil || p == "" {
			t.Errorf("capture after failure = %q, %v", p, err)
		}
	})
	t.Run("a blocked directory or name fails the capture", func(t *testing.T) {
		m, dir := monitor(t)
		file := filepath.Join(dir, "file")
		if err := os.WriteFile(file, nil, 0o644); err != nil {
			t.Fatal(err)
		}
		m.bundleDir = filepath.Join(file, "diag")
		if _, err := m.writeBundle("nodir", one); err == nil {
			t.Error("a bundle dir under a regular file must fail the capture")
		}
		m.bundleDir = dir
		taken := filepath.Join(dir, "bundle-001-taken")
		if err := os.MkdirAll(filepath.Join(taken, "old"), 0o755); err != nil {
			t.Fatal(err)
		}
		if _, err := m.writeBundle("taken", one); err == nil {
			t.Error("a bundle name already taken must fail the capture")
		}
		if entries, _ := os.ReadDir(dir); len(entries) != 2 || m.written.Load() != 0 {
			t.Errorf("failed captures left %v behind, wrote %d", entries, m.written.Load())
		}
	})
}

func TestMonitorHistory(t *testing.T) {
	now := time.Now()
	t.Run("ring keeps the newest frames newest first", func(t *testing.T) {
		m := NewMonitor(NewRegistry(), time.Second, nil)
		for i := 1; i <= HistorySize+3; i++ {
			m.frames.push(frameAt(uint64(i), now.Add(time.Duration(i)*time.Second)))
		}
		fs := m.Last(HistorySize + 10)
		if len(fs) != HistorySize || fs[0].Seq != HistorySize+3 || fs[len(fs)-1].Seq != 4 {
			t.Fatalf("Last = %d frames from %d to %d, want %d from %d to 4",
				len(fs), fs[0].Seq, fs[len(fs)-1].Seq, HistorySize, HistorySize+3)
		}
	})
	t.Run("json is chronological", func(t *testing.T) {
		m := NewMonitor(NewRegistry(), time.Second, nil)
		m.frames.push(frameAt(1, now, NamedValue{"x", uint64(1)}))
		m.frames.push(frameAt(2, now.Add(time.Second), NamedValue{"lat", HistogramSnapshot{Count: 2}}, NamedValue{"x", uint64(2)}))
		var buf bytes.Buffer
		if err := m.writeHistory(&buf, 0); err != nil {
			t.Fatal(err)
		}
		want := `{"seq":2,"at":"` + now.Add(time.Second).Format(time.RFC3339Nano) + `","values":{"lat":{"count":2,`
		if !strings.HasPrefix(buf.String(), "[\n{\"seq\":1,") || !strings.Contains(buf.String(), "},\n"+want) {
			t.Errorf("series = %s", buf.String())
		}
		var frames []struct {
			Seq    uint64         `json:"seq"`
			At     string         `json:"at"`
			Values map[string]any `json:"values"`
		}
		if err := json.Unmarshal(buf.Bytes(), &frames); err != nil {
			t.Fatalf("series must be valid JSON: %v\n%s", err, buf.String())
		}
		if len(frames) != 2 || frames[0].Seq != 1 || frames[1].Values["x"].(float64) != 2 {
			t.Errorf("series = %+v", frames)
		}
	})
	t.Run("n bounds the served count", func(t *testing.T) {
		m := NewMonitor(NewRegistry(), time.Second, nil)
		for i := 1; i <= 5; i++ {
			m.frames.push(frameAt(uint64(i), now.Add(time.Duration(i)*time.Second)))
		}
		rr := httptest.NewRecorder()
		m.ServeHistory(rr, httptest.NewRequest("GET", "/debug/history?n=2", nil))
		var frames []map[string]any
		if err := json.Unmarshal(rr.Body.Bytes(), &frames); err != nil || len(frames) != 2 {
			t.Errorf("?n=2 served %d frames (%v)", len(frames), err)
		}
		if ct := rr.Header().Get("Content-Type"); !strings.Contains(ct, "application/json") {
			t.Errorf("Content-Type = %q", ct)
		}
	})
	t.Run("sampling off serves an empty array", func(t *testing.T) {
		m := NewMonitor(NewRegistry(), 0, nil)
		m.SampleNow()
		rr := httptest.NewRecorder()
		m.ServeHistory(rr, httptest.NewRequest("GET", "/debug/history", nil))
		if rr.Body.String() != "[]\n" {
			t.Errorf("sampling off served %q", rr.Body.String())
		}
	})
}

func TestMonitorSampler(t *testing.T) {
	t.Run("SampleNow captures the registry", func(t *testing.T) {
		reg := NewRegistry()
		reg.Counter("hits").Add(7)
		reg.Histogram("lat", []float64{10, 100}).Observe(50)
		m := NewMonitor(reg, time.Second, nil)
		f := m.SampleNow()
		if v, ok := f.number("hits"); f.Seq != 1 || !ok || v != 7 {
			t.Errorf("frame %d hits = %v, %v", f.Seq, v, ok)
		}
		if v, _ := f.value("lat"); v.(HistogramSnapshot).Count != 1 {
			t.Errorf("sampled histogram = %+v", v)
		}
		m.SampleNow()
		if got := m.Last(1)[0].Seq; got != 2 {
			t.Errorf("newest seq = %d, want 2", got)
		}
	})
	t.Run("the loop ticks until Stop", func(t *testing.T) {
		m := NewMonitor(NewRegistry(), 2*time.Millisecond, nil)
		m.Start()
		m.Start() // a no-op
		deadline := time.Now().Add(2 * time.Second)
		for m.seq.Load() < 3 && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		m.Stop()
		after := m.seq.Load()
		if after < 3 {
			t.Fatalf("monitor sampled %d frames in 2s, want >= 3", after)
		}
		time.Sleep(10 * time.Millisecond)
		if m.seq.Load() != after {
			t.Error("monitor kept sampling after Stop")
		}
		m.Stop() // a no-op
		// Stop called mid-tick waits for the tick to end, then for the loop
		// to exit. A Stop that held loopMu while it waits deadlocks here
		// against a tick that takes loopMu under Monitor.mu.
		reg := NewRegistry()
		entered, release := make(chan struct{}), make(chan struct{})
		var once sync.Once
		reg.GaugeFunc("held_tick", func() float64 {
			once.Do(func() { close(entered); <-release })
			return 0
		})
		busy := NewMonitor(reg, time.Millisecond, nil)
		busy.Start()
		<-entered
		stopped := make(chan struct{})
		go func() { busy.Stop(); close(stopped) }()
		time.Sleep(5 * time.Millisecond) // let Stop begin while the tick is held
		close(release)
		<-stopped
		var nilMonitor *Monitor
		nilMonitor.Start()
		nilMonitor.Stop()
		if nilMonitor.Sampling() {
			t.Error("a nil monitor does not sample")
		}
	})
	t.Run("concurrent SampleNow beside the loop", func(t *testing.T) {
		reg := NewRegistry()
		reg.Counter("hits").Add(1)
		m := NewMonitor(reg, time.Millisecond, []Rule{{Name: "hits_high", Metric: "hits", Threshold: 1, Severity: HealthDegraded}})
		m.Start()
		var wg sync.WaitGroup
		for i := 0; i < 4; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for j := 0; j < 50; j++ {
					m.SampleNow()
				}
			}()
		}
		wg.Wait()
		m.Stop()
		if m.seq.Load() < 200 {
			t.Errorf("sampled %d frames, want >= 200", m.seq.Load())
		}
		for _, f := range m.Last(HistorySize) {
			for i := 1; i < len(f.Values); i++ {
				if f.Values[i-1].Name >= f.Values[i].Name {
					t.Fatalf("frame %d values out of order", f.Seq)
				}
			}
		}
	})
	t.Run("gauges follow what is configured", func(t *testing.T) {
		names := func(reg *Registry) string { return strings.Join(metricNames(reg), " ") }
		reg := NewRegistry()
		m := NewMonitor(reg, 250*time.Millisecond, nil)
		m.SampleNow()
		f := m.SampleNow()
		if v, ok := f.number("obs_sampler_frames_total"); !ok || v != 2 {
			t.Errorf("obs_sampler_frames_total = %v, %v; want 2, this frame included", v, ok)
		}
		if v, ok := f.number("obs_sampler_interval_ms"); !ok || v != 250 {
			t.Errorf("obs_sampler_interval_ms = %v, %v", v, ok)
		}
		if v, ok := f.number("health_status"); !ok || v != 0 {
			t.Errorf("health_status = %v, %v", v, ok)
		}
		if got := names(reg); got != "health_status health_transitions_total obs_sampler_frames_total obs_sampler_interval_ms" {
			t.Errorf("sampling: %s", got)
		}
		off := NewRegistry()
		m = NewMonitor(off, 0, nil)
		m.BundleOnFailing(t.TempDir(), nil, nil, nil)
		if got := names(off); got != "health_status health_transitions_total obs_bundles_suppressed_total obs_bundles_written_total" {
			t.Errorf("sampling off with bundles: %s", got)
		}
		if m.Sampling() {
			t.Error("interval 0 must turn sampling off")
		}
	})
}

// BenchmarkMonitorSample measures one sample tick over a realistically
// sized registry: the snapshot, the push and the rule check.
func BenchmarkMonitorSample(b *testing.B) {
	reg := NewRegistry()
	for _, n := range []string{"a_total", "b_total", "c_total", "d_total"} {
		reg.Counter(n).Add(1)
	}
	reg.Gauge("depth").Add(3)
	reg.Histogram("lat", DefaultLatencyBuckets()).Observe(5000)
	reg.Histogram("lat2", DefaultLatencyBuckets()).Observe(5000)
	m := NewMonitor(reg, time.Second, []Rule{
		{Name: "a_rate_high", Metric: "a_total", Threshold: 100, Severity: HealthDegraded},
		{Name: "lat_p99_slow", Metric: "lat", Quantile: 0.99, Threshold: 1e7, Severity: HealthDegraded},
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.SampleNow()
	}
}
