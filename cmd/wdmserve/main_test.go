package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"lightpath/internal/cli"
	"lightpath/internal/engine"
	"lightpath/internal/obs"
	"lightpath/internal/serve"
	"lightpath/internal/wdm"
)

// serve runs the binary against a command script and returns its output.
func runScript(t *testing.T, flags []string, script string) string {
	t.Helper()
	var out bytes.Buffer
	if err := run(flags, strings.NewReader(script), &out); err != nil {
		t.Fatalf("run: %v\noutput:\n%s", err, out.String())
	}
	return out.String()
}

func TestServeRouteOnPaperExample(t *testing.T) {
	out := runScript(t, []string{"-topo", "paper"}, "route 0 6\nquit\n")
	if !strings.Contains(out, "cost 20") {
		t.Fatalf("paper example route wrong:\n%s", out)
	}
}

func TestServeAllocReleaseLifecycle(t *testing.T) {
	out := runScript(t, []string{"-topo", "nsfnet", "-k", "6", "-seed", "3"},
		"epoch\nalloc 0 9\nepoch\nstats\nrelease 1\nepoch\nquit\n")
	for _, want := range []string{"epoch 0", "lease 1 (epoch 1)", "released 1 (epoch 2)", "allocs 1"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestServeReleaseRestoresRouting(t *testing.T) {
	out := runScript(t, []string{"-topo", "nsfnet", "-k", "2", "-seed", "5"},
		"route 0 9\nalloc 0 9\nrelease 1\nroute 0 9\nquit\n")
	var routes []string
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "cost ") {
			routes = append(routes, line)
		}
	}
	if len(routes) != 2 || routes[0] != routes[1] {
		t.Fatalf("route after release differs from before alloc:\n%s", out)
	}
}

func TestServeBatchAndRoutefrom(t *testing.T) {
	out := runScript(t, []string{"-topo", "nsfnet", "-k", "6", "-seed", "3"},
		"batch 0 9 0 13 9 0\nroutefrom 0\nstats\nquit\n")
	if !strings.Contains(out, "batch of 3 at epoch 0") {
		t.Fatalf("batch header missing:\n%s", out)
	}
	if !strings.Contains(out, "0 -> 9: cost") {
		t.Fatalf("batch results missing:\n%s", out)
	}
	if !strings.Contains(out, "hit rate") {
		t.Fatalf("cache stats missing:\n%s", out)
	}
}

func TestServeFailRepair(t *testing.T) {
	out := runScript(t, []string{"-topo", "nsfnet", "-k", "6", "-seed", "3"},
		"alloc 0 1\nfail 0\nrepair 0\nquit\n")
	if !strings.Contains(out, "failed link 0") || !strings.Contains(out, "repaired link 0") {
		t.Fatalf("fail/repair missing:\n%s", out)
	}
}

func TestServeKShortestAndProtect(t *testing.T) {
	out := runScript(t, []string{"-topo", "nsfnet", "-k", "6", "-seed", "3"},
		"kshortest 0 9 3\nprotect 0 9\nquit\n")
	if !strings.Contains(out, "#1 cost") || !strings.Contains(out, "#2 cost") {
		t.Fatalf("kshortest output missing:\n%s", out)
	}
	if !strings.Contains(out, "primary cost") || !strings.Contains(out, "backup  cost") {
		t.Fatalf("protect output missing:\n%s", out)
	}
}

func TestServeProtocolErrorsAreNonFatal(t *testing.T) {
	out := runScript(t, []string{"-topo", "nsfnet", "-k", "6", "-seed", "3"},
		"warp 1 2\nroute 0\nrelease 99\nroute 0 9\nquit\n")
	if got := strings.Count(out, "error:"); got != 3 {
		t.Fatalf("want 3 protocol errors, got %d:\n%s", got, out)
	}
	if !strings.Contains(out, "cost ") {
		t.Fatalf("service died after protocol error:\n%s", out)
	}
}

func TestServeScriptFile(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/cmds.txt"
	script := "# comment line\nroute 0 6  # trailing comment\nquit\n"
	if err := os.WriteFile(path, []byte(script), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run([]string{"-topo", "paper", "-script", path}, strings.NewReader(""), &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(out.String(), "cost 20") {
		t.Fatalf("script route wrong:\n%s", out.String())
	}
}

func TestServeFlagErrors(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-queue", "warp"}, strings.NewReader(""), &out); err == nil {
		t.Fatal("unknown queue must fail")
	}
	if err := run([]string{"-topo", "warp"}, strings.NewReader(""), &out); err == nil {
		t.Fatal("unknown topology must fail")
	}
	if err := run([]string{"-script", "/definitely/not/here"}, strings.NewReader(""), &out); err == nil {
		t.Fatal("missing script must fail")
	}
}

// TestServeDirectedFlag: -directed takes exactly plain|astar, the
// default is astar, and both modes answer the paper example alike. bidi,
// the retired bidirectional search, is refused like any unknown name.
func TestServeDirectedFlag(t *testing.T) {
	for _, mode := range []string{"", "plain", "astar"} {
		name := mode
		if name == "" {
			name = "default"
		}
		t.Run("accepts/"+name, func(t *testing.T) {
			args := []string{"-topo", "paper"}
			want := "astar"
			if mode != "" {
				args, want = append(args, "-directed", mode), mode
			}
			var out bytes.Buffer
			if err := run(args, strings.NewReader("route 0 6\nquit\n"), &out); err != nil {
				t.Fatalf("-directed %q: %v", mode, err)
			}
			if got := out.String(); !strings.Contains(got, want+" search)") || !strings.Contains(got, "cost 20") {
				t.Fatalf("-directed %q: want a %s banner and cost 20:\n%s", mode, want, got)
			}
		})
	}
	for _, mode := range []string{"bidi", "alt", "landmark", "ASTAR"} {
		t.Run("refuses/"+mode, func(t *testing.T) {
			var out bytes.Buffer
			if err := run([]string{"-directed", mode}, strings.NewReader(""), &out); err == nil {
				t.Fatalf("-directed %s must fail", mode)
			}
		})
	}
}

// TestServeQueueFlag: -queue offers the two queues SourceTrees are served
// from — bucket by default, binary for an A/B — with byte-identical
// routefrom and batch replies, and turns the ablation-only queues away by
// name.
func TestServeQueueFlag(t *testing.T) {
	script := "routefrom 3\nbatch 0 9 0 5 7 2\nstats\nquit\n"
	replies := make(map[string]string)
	for _, q := range []string{"", "bucket", "binary"} {
		args := []string{"-topo", "nsfnet", "-k", "6", "-seed", "3"}
		if q != "" {
			args = append(args, "-queue", q)
		}
		var out bytes.Buffer
		if err := run(args, strings.NewReader(script), &out); err != nil {
			t.Fatalf("-queue %q: %v", q, err)
		}
		got := out.String()
		if !strings.Contains(got, "tree rescans 0  bound rows ") {
			t.Fatalf("-queue %q: stats must report 0 tree rescans:\n%s", q, got)
		}
		replies[q] = got[:strings.Index(got, "epoch 0 ")] // up to the stats reply, which embeds latencies
	}
	if replies[""] != replies["bucket"] || replies["bucket"] != replies["binary"] {
		t.Fatalf("replies differ across -queue values:\ndefault:\n%s\nbucket:\n%s\nbinary:\n%s",
			replies[""], replies["bucket"], replies["binary"])
	}
	for _, q := range []string{"fibonacci", "linear"} {
		var out bytes.Buffer
		err := run([]string{"-queue", q}, strings.NewReader(""), &out)
		if err == nil || !strings.Contains(err.Error(), "wdmbench") {
			t.Fatalf("-queue %s: err = %v, want a refusal naming wdmbench", q, err)
		}
	}
}

// parseExplain pulls the totals and cost lines out of explain output.
func parseExplain(t *testing.T, out string) (links, convs, total, cost float64) {
	t.Helper()
	foundTotals, foundCost := false, false
	for _, line := range strings.Split(out, "\n") {
		line = strings.TrimSpace(line)
		if strings.HasPrefix(line, "totals: links ") {
			if _, err := fmt.Sscanf(line, "totals: links %g + conversions %g = %g", &links, &convs, &total); err != nil {
				t.Fatalf("unparseable totals line %q: %v", line, err)
			}
			foundTotals = true
		}
		if foundTotals && !foundCost && strings.HasPrefix(line, "cost ") {
			if _, err := fmt.Sscanf(line, "cost %g", &cost); err != nil {
				t.Fatalf("unparseable cost line %q: %v", line, err)
			}
			foundCost = true
		}
	}
	if !foundTotals || !foundCost {
		t.Fatalf("explain output missing totals/cost lines:\n%s", out)
	}
	return links, convs, total, cost
}

// TestServeExplainBreakdownSumsToCost is the acceptance check for the
// explain verb: summed per-hop link weights plus conversion costs must
// equal the reported route cost.
func TestServeExplainBreakdownSumsToCost(t *testing.T) {
	// The paper topology (deterministic) and a generated NSFNET with
	// conversions enabled, several pairs each.
	cases := []struct {
		flags  []string
		script string
	}{
		{[]string{"-topo", "paper"}, "explain 0 6\nquit\n"},
		{[]string{"-topo", "nsfnet", "-k", "6", "-seed", "3"}, "explain 0 9\nquit\n"},
		{[]string{"-topo", "nsfnet", "-k", "4", "-seed", "17"}, "explain 2 12\nquit\n"},
	}
	for _, tc := range cases {
		out := runScript(t, tc.flags, tc.script)
		links, convs, total, cost := parseExplain(t, out)
		if diff := math.Abs(links + convs - cost); diff > 1e-9 {
			t.Errorf("explain: links %g + conversions %g = %g != cost %g\n%s", links, convs, total, cost, out)
		}
		if math.Abs(total-cost) > 1e-9 {
			t.Errorf("explain totals %g disagree with cost %g\n%s", total, cost, out)
		}
		if !strings.Contains(out, "search: aux ") {
			t.Errorf("explain missing search anatomy:\n%s", out)
		}
	}
}

func TestServeExplainAfterAllocReflectsResidual(t *testing.T) {
	// Exhaust capacity on a tiny-k network; a blocked explain must say
	// how much of the graph it searched rather than print a path.
	out := runScript(t, []string{"-topo", "nsfnet", "-k", "6", "-seed", "3"},
		"alloc 0 9\nexplain 0 9\nquit\n")
	if !strings.Contains(out, "explain 0 -> 9 (epoch 1") {
		t.Fatalf("explain did not pin post-alloc epoch:\n%s", out)
	}
	_, _, _, cost := parseExplain(t, out)
	if cost <= 0 {
		t.Fatalf("explain after alloc returned cost %g:\n%s", cost, out)
	}
}

func TestServeTraceToggle(t *testing.T) {
	out := runScript(t, []string{"-topo", "nsfnet", "-k", "6", "-seed", "3"},
		"trace\ntrace on\nroute 0 9\nalloc 0 13\ntrace off\nroute 0 9\nquit\n")
	if !strings.Contains(out, "trace off\n") || !strings.Contains(out, "trace on\n") {
		t.Fatalf("trace toggle answers missing:\n%s", out)
	}
	if got := strings.Count(out, "  trace "); got != 2 {
		t.Fatalf("want exactly 2 trace summaries (traced route + traced alloc), got %d:\n%s", got, out)
	}
	if !strings.Contains(out, "attempts") && !strings.Contains(out, " bound row absent in ") {
		t.Fatalf("trace summary missing detail:\n%s", out)
	}
	out = runScript(t, []string{"-topo", "paper"}, "trace sideways\nquit\n")
	if !strings.Contains(out, "error:") {
		t.Fatalf("bad trace argument must be a protocol error:\n%s", out)
	}
}

func TestServeStatsIncludesHitRateEpochAndLatency(t *testing.T) {
	out := runScript(t, []string{"-topo", "nsfnet", "-k", "6", "-seed", "3"},
		"routefrom 0\nroutefrom 0\nalloc 0 9\nstats\nquit\n")
	for _, want := range []string{"epoch 1", "hit rate", "lookups 2", "hits 1", "route latency: p50", "p95", "p99", "rebuilds 2", "uptime ", "health ok"} {
		if !strings.Contains(out, want) {
			t.Fatalf("stats missing %q:\n%s", want, out)
		}
	}
}

// TestServeBatchSplitPerSearchMode: `stats` shows how batches were
// answered, and the split follows the search mode. Source 0 is named
// three times: under plain, whose break-even is two, that is one tree
// built for the batch exactly as before the engine priced the choice;
// under the default astar, whose point query is ≈ k times cheaper than a
// tree, it is three point queries. Either way the batch stores nothing
// and the cache line stays at zero — until `routefrom 0`, the source's
// first ask of the epoch, runs its pass and stores its cost row (one
// miss), after which every batch reads that row (three hits each) and a
// second `routefrom 0` is a hit too. -cache -1 leaves nowhere to keep a
// row: the batch builds its tree every time, and the cache line reads
// 0/0.
func TestServeBatchSplitPerSearchMode(t *testing.T) {
	const batch = "batch 0 9 0 13 0 5 9 0\nstats\n"
	const script = batch + "routefrom 0\n" + batch + "routefrom 0\n" + batch + "quit\n"
	for _, tc := range []struct {
		flags []string
		stats [3]string // after each batch
	}{
		{[]string{"-directed", "plain"}, [3]string{
			"cache: 0/128 entries  lookups 0  hits 0  misses 0  |batched 4 (row 0, tree 3, point 1)",
			"cache: 1/128 entries  lookups 4  hits 3  misses 1  |batched 8 (row 3, tree 3, point 2)",
			"cache: 1/128 entries  lookups 8  hits 7  misses 1  |batched 12 (row 6, tree 3, point 3)"}},
		{[]string{"-directed", "astar"}, [3]string{
			"lookups 0  hits 0  misses 0  |batched 4 (row 0, tree 0, point 4)",
			"lookups 4  hits 3  misses 1  |batched 8 (row 3, tree 0, point 5)",
			"lookups 8  hits 7  misses 1  |batched 12 (row 6, tree 0, point 6)"}},
		{[]string{"-directed", "plain", "-cache", "-1"}, [3]string{
			"cache: 0/0 entries  lookups 0  hits 0  misses 0  |batched 4 (row 0, tree 3, point 1)",
			"cache: 0/0 entries  lookups 0  hits 0  misses 0  |batched 8 (row 0, tree 6, point 2)",
			"cache: 0/0 entries  lookups 0  hits 0  misses 0  |batched 12 (row 0, tree 9, point 3)"}},
	} {
		flags := append([]string{"-topo", "nsfnet", "-k", "6", "-seed", "3", "-workers", "1"}, tc.flags...)
		out := runScript(t, flags, script)
		parts := strings.SplitAfter(out, "uptime ") // one stats reply ends each part but the last
		if len(parts) != 4 {
			t.Fatalf("%v: want 3 stats replies:\n%s", tc.flags, out)
		}
		for i, wants := range tc.stats {
			for _, want := range strings.Split(wants, "|") {
				if !strings.Contains(parts[i], want) {
					t.Fatalf("%v: stats %d missing %q:\n%s", tc.flags, i+1, want, parts[i])
				}
			}
		}
	}
}

func TestServeHealthAndHistoryVerbs(t *testing.T) {
	// A fast sampler so the script's frames carry real engine metrics.
	out := runScript(t, []string{"-topo", "nsfnet", "-k", "6", "-seed", "3", "-sample-interval", "5ms"},
		"route 0 9\nhealth\nhistory\nquit\n")
	if !strings.Contains(out, "health ok") {
		t.Fatalf("health verb output missing status:\n%s", out)
	}
	for _, rule := range []string{"engine_blocked_rate_high", "engine_route_p99_slow", "serve_shed_rate_failing"} {
		if !strings.Contains(out, rule) {
			t.Fatalf("health verb missing default rule %q:\n%s", rule, out)
		}
	}
	// The history verb needs two frames; a fresh REPL may have sampled
	// fewer. Either real frame lines or the explicit empty answer is
	// protocol-correct — but never an error.
	if !strings.Contains(out, "frame ") && !strings.Contains(out, "no history sampled yet") {
		t.Fatalf("history verb output unexpected:\n%s", out)
	}
	if strings.Contains(out, "error:") {
		t.Fatalf("health/history must not error on a default server:\n%s", out)
	}

	// Sampler disabled: history is a protocol error, health still works.
	out = runScript(t, []string{"-topo", "paper", "-sample-interval", "0s"},
		"history\nhealth\nquit\n")
	if !strings.Contains(out, "error: history: sampler not configured") {
		t.Fatalf("history with sampler off must explain itself:\n%s", out)
	}
	if !strings.Contains(out, "health ok") {
		t.Fatalf("health must work without a sampler:\n%s", out)
	}
}

// TestFlagConfigNamesTheNetwork: a bundle's config.txt is every flag's
// effective value, one sorted name=value line each, so it says which
// network the server built and how it searched it.
func TestFlagConfigNamesTheNetwork(t *testing.T) {
	fs, _ := newFlags()
	if err := fs.Parse([]string{"-topo", "sparse", "-n", "40", "-k", "4", "-seed", "9", "-cache", "-1"}); err != nil {
		t.Fatal(err)
	}
	got := string(flagConfig(fs))
	for _, want := range []string{"topo=sparse", "n=40", "k=4", "seed=9", "directed=astar", "cache=-1", "queue=bucket", "sample-interval=1s"} {
		if !strings.Contains("\n"+got, "\n"+want+"\n") {
			t.Errorf("config missing %q:\n%s", want, got)
		}
	}
	var names []string
	for _, line := range strings.Split(strings.TrimSuffix(got, "\n"), "\n") {
		names = append(names, strings.SplitN(line, "=", 2)[0])
	}
	if !sort.StringsAreSorted(names) {
		t.Errorf("config lines are not sorted by name:\n%s", got)
	}
	if strings.Contains(got, "history-size") {
		t.Errorf("config names a retired flag:\n%s", got)
	}
}

func TestServeMetricsJSON(t *testing.T) {
	out := runScript(t, []string{"-topo", "nsfnet", "-k", "6", "-seed", "3"},
		"route 0 9\nmetrics\nquit\n")
	start := strings.Index(out, "{")
	if start < 0 {
		t.Fatalf("no JSON in metrics output:\n%s", out)
	}
	end := strings.LastIndex(out, "}")
	var decoded map[string]any
	if err := json.Unmarshal([]byte(out[start:end+1]), &decoded); err != nil {
		t.Fatalf("metrics JSON invalid: %v\n%s", err, out)
	}
	for _, key := range []string{"engine_routes_total", "engine_route_latency_ns", "engine_epoch", "cache_hit_rate", "wavelength_0_held"} {
		if _, ok := decoded[key]; !ok {
			t.Errorf("metrics JSON missing %q", key)
		}
	}
}

func TestServeDebugAddrFlagAndMux(t *testing.T) {
	// Flag wiring: the service reports the bound address.
	out := runScript(t, []string{"-topo", "paper", "-debug-addr", "127.0.0.1:0"}, "quit\n")
	if !strings.Contains(out, "debug server on 127.0.0.1:") {
		t.Fatalf("debug server banner missing:\n%s", out)
	}

	// Handler surface: /metrics serves the registry (JSON and
	// Prometheus text), /debug/requests+/debug/slow the flight
	// recorder, /debug/vars expvar, /debug/pprof/ the profile index.
	nw, err := cliBuildPaper()
	if err != nil {
		t.Fatal(err)
	}
	eng, err := engine.New(nw, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Route(0, 6); err != nil {
		t.Fatal(err)
	}
	tracer := obs.NewTracer(&obs.TracerOptions{SlowThreshold: -1})
	if req := tracer.Start("serve_request"); req != nil {
		res, err := eng.Route(0, 6, req.Root())
		if err != nil || res == nil {
			t.Fatalf("traced route: %v", err)
		}
		tracer.Finish(req)
	} else {
		t.Fatal("tracer did not record")
	}
	mon := obs.NewMonitor(eng.Metrics(), time.Second, serve.HealthRules)
	mon.SampleNow()
	srv := httptest.NewServer(debugMux(eng, tracer, mon, func() bool { return true }))
	defer srv.Close()
	for path, want := range map[string]string{
		"/metrics":        "engine_routes_total",
		"/metrics.prom":   "engine_route_latency_ns_bucket{le=",
		"/healthz":        `"status": "ok"`,
		"/readyz":         "ready",
		"/debug/history":  `"engine_routes_total"`,
		"/debug/requests": "core_search",
		"/debug/slow":     "[",
		"/debug/vars":     "lightpath",
		"/debug/pprof/":   "profile",
	} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s: status %d", path, resp.StatusCode)
		}
		if !strings.Contains(string(body), want) {
			t.Errorf("GET %s: body missing %q:\n%.400s", path, want, body)
		}
	}

	// Drain-aware readiness: the same mux built over a draining server
	// answers 503 on /readyz while /healthz stays governed by SLOs; a
	// monitor that does not sample serves an empty history.
	draining := httptest.NewServer(debugMux(eng, tracer, obs.NewMonitor(obs.NewRegistry(), 0, serve.HealthRules), func() bool { return false }))
	defer draining.Close()
	resp, err := http.Get(draining.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(string(body), "draining") {
		t.Errorf("draining /readyz = %d %q", resp.StatusCode, body)
	}
	if resp, err := http.Get(draining.URL + "/healthz"); err != nil || resp.StatusCode != http.StatusOK {
		t.Errorf("draining /healthz = %v, %v; want 200 while healthy", resp, err)
	} else {
		resp.Body.Close()
	}
	resp, err = http.Get(draining.URL + "/debug/history")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || strings.TrimSpace(string(body)) != "[]" {
		t.Errorf("sampler-less /debug/history = %d %q, want empty JSON array", resp.StatusCode, body)
	}
}

func TestServeRecorderFlagsAndVerbs(t *testing.T) {
	// Default: the recorder is on, so recent lists the route request
	// and tracejson decodes (smoke: the reply opens a JSON object).
	out := runScript(t, []string{"-topo", "paper"}, "route 0 6\nrecent 1\nquit\n")
	if !strings.Contains(out, "verb route") || !strings.Contains(out, "outcome ok") {
		t.Fatalf("recent missing route trace:\n%s", out)
	}

	// -recorder=false: nothing retained.
	out = runScript(t, []string{"-topo", "paper", "-recorder=false"}, "route 0 6\nrecent\nquit\n")
	if !strings.Contains(out, "no traces retained") {
		t.Fatalf("disabled recorder still lists traces:\n%s", out)
	}

	// -slow-threshold=0: every request also lands in the slow log.
	out = runScript(t, []string{"-topo", "paper", "-slow-threshold", "0s"}, "route 0 6\nslow\nquit\n")
	if !strings.Contains(out, "verb route") {
		t.Fatalf("slow log missing route trace:\n%s", out)
	}

	// -trace-sample=2: only every other request is recorded.
	out = runScript(t, []string{"-topo", "paper", "-trace-sample", "2"},
		"route 0 6\nroute 0 6\nroute 0 6\nroute 0 6\nrecent 10\nquit\n")
	if got := strings.Count(out, "verb route"); got >= 4 {
		t.Fatalf("sampling 1/2 recorded all %d requests:\n%s", got, out)
	}
}

// cliBuildPaper builds the paper example network the way run() does.
func cliBuildPaper() (*wdm.Network, error) {
	var nf cli.NetFlags
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	nf.Register(fs)
	if err := fs.Parse([]string{"-topo", "paper"}); err != nil {
		return nil, err
	}
	return nf.Build()
}
