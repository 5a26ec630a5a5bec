package serve

import (
	"bytes"
	"context"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"lightpath/internal/obs"
)

// obsSession builds a REPL-style session with a monitor wired onto the
// engine's registry (never started: tests sample by hand), returning
// the session, its output buffer and the monitor.
func obsSession(t *testing.T) (*Session, *bytes.Buffer, *obs.Monitor) {
	t.Helper()
	eng := newEngine(t, "-topo", "nsfnet", "-k", "8", "-seed", "1")
	mon := obs.NewMonitor(eng.Metrics(), time.Second, []obs.Rule{{
		Name: "blocked_rate_high", Metric: "engine_routes_blocked_total", Threshold: 1000, Severity: obs.HealthDegraded,
	}})
	var out bytes.Buffer
	sess := NewSession(eng, &out, &SessionOptions{
		Telemetry: NewTelemetry(eng.Metrics()),
		Monitor:   mon,
	})
	return sess, &out, mon
}

func execLine(t *testing.T, sess *Session, line string) error {
	t.Helper()
	quit, err := sess.Exec(line)
	if quit {
		t.Fatalf("%q must not request shutdown", line)
	}
	return err
}

// TestHealthRules: the server's rule table names each rule once, in the
// lower_snake form health replies, /healthz JSON and bundles print, and
// watches metrics the engine and the serve layer register. Against a
// live engine, a routed window leaves every rule knowable and the status
// ok.
func TestHealthRules(t *testing.T) {
	eng := newEngine(t, "-topo", "nsfnet", "-k", "8", "-seed", "1")
	NewTelemetry(eng.Metrics())
	registered := map[string]bool{}
	for _, nv := range eng.Metrics().SnapshotOrdered() {
		registered[nv.Name] = true
	}
	t.Run("names are unique lower_snake", func(t *testing.T) {
		lowerSnake := regexp.MustCompile(`^[a-z][a-z0-9]*(_[a-z0-9]+)*$`)
		seen := map[string]bool{}
		for _, r := range HealthRules {
			if !lowerSnake.MatchString(r.Name) || seen[r.Name] {
				t.Errorf("rule name %q: want unique lower_snake", r.Name)
			}
			seen[r.Name] = true
			if !registered[r.Metric] {
				t.Errorf("rule %s watches %q, which nothing registers", r.Name, r.Metric)
			}
		}
		if len(seen) != 3 {
			t.Errorf("%d rules, want the three the server has always had", len(seen))
		}
	})
	t.Run("a live engine is healthy and knowable", func(t *testing.T) {
		mon := obs.NewMonitor(eng.Metrics(), time.Second, HealthRules)
		mon.SampleNow()
		time.Sleep(2 * time.Millisecond) // a measurable frame gap for the rates
		for i := 0; i < 20; i++ {
			if _, err := eng.Route(0, 9); err != nil {
				t.Fatal(err)
			}
		}
		mon.SampleNow()
		if got := mon.Status(); got != obs.HealthOK {
			t.Errorf("healthy engine status = %v (detail %+v)", got, mon.Detail())
		}
		for _, r := range mon.Detail() {
			if !r.Known {
				t.Errorf("rule %s unknowable after a routed window: %+v", r.Name, r)
			}
		}
	})
}

func TestHealthVerb(t *testing.T) {
	sess, out, mon := obsSession(t)
	mon.SampleNow()
	mon.SampleNow()
	if err := execLine(t, sess, "health"); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.HasPrefix(got, "health ok\n") {
		t.Errorf("health output = %q", got)
	}
	if !strings.Contains(got, "  blocked_rate_high: rate(engine_routes_blocked_total) 0 threshold 1000  streak 0/3  severity degraded\n") {
		t.Errorf("health detail missing rule line: %q", got)
	}
	if err := execLine(t, sess, "health extra"); err == nil {
		t.Error("health with arguments must be a protocol error")
	}
}

func TestHealthVerbUnconfigured(t *testing.T) {
	eng := newEngine(t, "-topo", "ring", "-n", "6")
	var out bytes.Buffer
	sess := NewSession(eng, &out, nil)
	if err := execLine(t, sess, "health"); err == nil ||
		!strings.Contains(err.Error(), "not configured") {
		t.Errorf("health without a Monitor = %v", err)
	}
	if err := execLine(t, sess, "history"); err == nil ||
		!strings.Contains(err.Error(), "sampler not configured") {
		t.Errorf("history without a Monitor = %v", err)
	}
	// A monitor that does not sample answers health, never history.
	sess = NewSession(eng, &out, &SessionOptions{Monitor: obs.NewMonitor(eng.Metrics(), 0, HealthRules)})
	if err := execLine(t, sess, "health"); err != nil {
		t.Errorf("health on a non-sampling monitor = %v", err)
	}
	if err := execLine(t, sess, "history"); err == nil ||
		err.Error() != "history: sampler not configured" {
		t.Errorf("history on a non-sampling monitor = %v", err)
	}
}

func TestHistoryVerb(t *testing.T) {
	sess, out, mon := obsSession(t)
	if err := execLine(t, sess, "history"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "no history sampled yet") {
		t.Errorf("empty history output = %q", out.String())
	}
	out.Reset()

	mon.SampleNow()
	time.Sleep(2 * time.Millisecond) // distinct frame timestamps
	if err := execLine(t, sess, "route 0 9"); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	mon.SampleNow()
	mon.SampleNow()
	if err := execLine(t, sess, "history 2"); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	lines := strings.Split(strings.TrimRight(got, "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("history 2 printed %d lines: %q", len(lines), got)
	}
	for _, line := range lines {
		for _, want := range []string{"frame ", "age ", "req/s ", "shed/s ", "blocked/s "} {
			if !strings.Contains(line, want) {
				t.Errorf("history line %q missing %q", line, want)
			}
		}
	}
	// The newest frame pair saw the route: its window p99 is present.
	if !strings.Contains(got, "route p99 ") {
		t.Errorf("history missing route window quantile: %q", got)
	}
	// A count past the ring (here past any int plus one) prints every
	// retained pair, never the empty answer.
	out.Reset()
	if err := execLine(t, sess, "history 9223372036854775807"); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(out.String(), "  frame "); got != 2 {
		t.Errorf("history MaxInt64 printed %d frame lines, want 2:\n%s", got, out.String())
	}
	if err := execLine(t, sess, "history 0"); err == nil {
		t.Error("history 0 must be a protocol error")
	}
	if err := execLine(t, sess, "history 1 2"); err == nil {
		t.Error("history with two arguments must be a protocol error")
	}
}

func TestStatsReportsUptimeAndHealth(t *testing.T) {
	sess, out, mon := obsSession(t)
	mon.SampleNow()
	if err := execLine(t, sess, "stats"); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "uptime ") || !strings.Contains(got, "health ok") {
		t.Errorf("stats missing uptime/health: %q", got)
	}

	// Without a Monitor the column degrades to "off", never errors.
	eng := newEngine(t, "-topo", "ring", "-n", "6")
	var plain bytes.Buffer
	plainSess := NewSession(eng, &plain, nil)
	if err := execLine(t, plainSess, "stats"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plain.String(), "health off") {
		t.Errorf("stats without health = %q", plain.String())
	}
}

// TestTCPOverloadDrivesHealthFailingAndBundles is the observability
// e2e: a many-client soak against a deliberately undersized admission
// queue drives the shed rate over its SLO, health transitions to
// failing, exactly one diagnostic bundle lands on disk (the rate limit
// swallows the rest), /readyz flips once drain begins, and health
// recovers to ok after the load stops. Run under -race by race-obs.
func TestTCPOverloadDrivesHealthFailingAndBundles(t *testing.T) {
	clients, requests := 64, 120
	if testing.Short() {
		clients, requests = 24, 40
	}
	eng := newEngine(t, "-topo", "nsfnet", "-k", "8", "-seed", "1")
	reg := eng.Metrics()
	tel := NewTelemetry(reg)
	tracer := obs.NewTracer(nil)

	health := obs.NewMonitor(reg, 10*time.Millisecond, []obs.Rule{{
		Name:      "shed_rate_failing",
		Metric:    "serve_shed_total",
		Threshold: 50, // sheds/sec; overload produces thousands
		Severity:  obs.HealthFailing,
	}})
	bundleRoot := filepath.Join(t.TempDir(), "diag")
	var bundleLog bytes.Buffer
	health.BundleOnFailing(bundleRoot, tracer, []byte("queue-depth=2\n"), &bundleLog)
	health.Start()
	t.Cleanup(health.Stop)
	bundleCount := func(metric string) any { return reg.Snapshot()["obs_bundles_"+metric+"_total"] }

	srv, addr := startServer(t, eng, &ServerConfig{
		QueueDepth:     2,
		RequestTimeout: 0, // immediate shed: maximal shed rate
		WriteTimeout:   10 * time.Second,
		Telemetry:      tel,
		Tracer:         tracer,
		Monitor:        health,
		testExecDelay:  time.Millisecond,
	})

	ready := ReadyzHandler(func() bool { return !srv.Draining() })
	rr := httptest.NewRecorder()
	ready.ServeHTTP(rr, httptest.NewRequest("GET", "/readyz", nil))
	if rr.Code != 200 || !strings.Contains(rr.Body.String(), "ready") {
		t.Fatalf("pre-drain /readyz = %d %q", rr.Code, rr.Body.String())
	}

	total := soakAgainst(t, eng, addr, clients, requests)
	if total.busy == 0 {
		t.Fatal("undersized queue produced no sheds; the overload premise failed")
	}

	if !strings.Contains(bundleLog.String(), "health failing: diagnostic bundle captured at ") {
		t.Fatalf("health never transitioned to failing during overload (sheds=%d, status=%v, detail=%+v, log %q)",
			total.busy, health.Status(), health.Detail(), bundleLog.String())
	}

	// Exactly one bundle: the rate limit must swallow a repeat capture.
	if w := bundleCount("written"); w != 1.0 {
		t.Fatalf("bundles written = %v, want exactly 1", w)
	}
	if p, err := health.Capture("flap_repeat"); err != nil || p != "" {
		t.Fatalf("repeat capture inside the rate limit = %q, %v; want suppressed", p, err)
	}
	if bundleCount("suppressed") == 0.0 {
		t.Fatal("rate limit recorded no suppressions")
	}
	entries, err := os.ReadDir(bundleRoot)
	if err != nil {
		t.Fatal(err)
	}
	var bundles []string
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "bundle-") {
			bundles = append(bundles, e.Name())
		}
	}
	if len(bundles) != 1 {
		t.Fatalf("bundle dirs on disk = %v, want exactly 1", bundles)
	}
	for _, name := range []string{"manifest.json", "history.json", "metrics.json", "health.json", "traces_recent.json", "goroutines.txt"} {
		if fi, err := os.Stat(filepath.Join(bundleRoot, bundles[0], name)); err != nil || fi.Size() == 0 {
			t.Errorf("bundle artifact %s missing or empty (err=%v)", name, err)
		}
	}

	// Drain: /readyz must flip while the health evaluator keeps running.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	rr = httptest.NewRecorder()
	ready.ServeHTTP(rr, httptest.NewRequest("GET", "/readyz", nil))
	if rr.Code != 503 || !strings.Contains(rr.Body.String(), "draining") {
		t.Fatalf("post-drain /readyz = %d %q", rr.Code, rr.Body.String())
	}

	// Load stopped: the shed counter is flat, so the rate decays to 0
	// within one frame gap and health must return to ok.
	deadline := time.Now().Add(5 * time.Second)
	for health.Status() != obs.HealthOK && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := health.Status(); got != obs.HealthOK {
		t.Fatalf("health after load stopped = %v, want ok (detail %+v)", got, health.Detail())
	}
}
