package serve

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"
)

// TestProtocolMalformedInputs pins every verb's malformed-input error
// strings. These strings are the protocol's error surface — the REPL
// and the TCP path render exactly the same bytes (both prefix them
// with "error: "), so changing one is a wire-visible change and must
// show up here.
func TestProtocolMalformedInputs(t *testing.T) {
	eng := newEngine(t, "-topo", "paper")
	cases := []struct {
		line string
		want string
	}{
		// Arity errors, one per integer verb.
		{"route", `route: want 2 arguments, got 0`},
		{"route 0", `route: want 2 arguments, got 1`},
		{"route 0 6 3", `route: want 2 arguments, got 3`},
		{"routefrom", `routefrom: want 1 arguments, got 0`},
		{"kshortest 0 6", `kshortest: want 3 arguments, got 2`},
		{"protect 0", `protect: want 2 arguments, got 1`},
		{"alloc 0", `alloc: want 2 arguments, got 1`},
		{"release", `release: want 1 arguments, got 0`},
		{"fail", `fail: want 1 arguments, got 0`},
		{"repair", `repair: want 1 arguments, got 0`},
		{"explain 0", `explain: want 2 arguments, got 1`},
		{"batch", `batch: want an even number of endpoints`},
		{"batch 0 6 3", `batch: want an even number of endpoints`},
		// Non-numeric arguments.
		{"route x 6", `route: bad argument "x"`},
		{"routefrom x", `routefrom: bad argument "x"`},
		{"kshortest 0 6 many", `kshortest: bad argument "many"`},
		{"protect 0 end", `protect: bad argument "end"`},
		{"batch 0 six", `batch: bad argument "six"`},
		{"alloc 0 6.5", `alloc: bad argument "6.5"`},
		{"release one", `release: bad argument "one"`},
		{"fail x", `fail: bad argument "x"`},
		{"repair x", `repair: bad argument "x"`},
		{"epoch x", `epoch: bad argument "x"`},
		{"stats x", `stats: bad argument "x"`},
		{"metrics x", `metrics: bad argument "x"`},
		{"explain 0 there", `explain: bad argument "there"`},
		// Out-of-range endpoints and links.
		{"route 999 0", `core: node out of range: source 999`},
		{"route 0 999", `core: node out of range: dest 999`},
		{"route -1 6", `core: node out of range: source -1`},
		{"routefrom 999", `core: node out of range: source 999`},
		{"kshortest 0 999 2", `core: node out of range: dest 999`},
		// K above the limit is refused before any search.
		{"kshortest 0 6 33", `kshortest: K 33 above the limit of 32`},
		{"kshortest 0 2 1000000", `kshortest: K 1000000 above the limit of 32`},
		{"protect 999 0", `core: node out of range: source 999`},
		{"alloc 0 999", `core: node out of range: dest 999`},
		{"explain 0 999", `core: node out of range: dest 999`},
		{"fail 99", `engine: link out of range: 99`},
		{"fail -1", `engine: link out of range: -1`},
		{"repair 99", `engine: link out of range: 99`},
		// Unknown leases and verbs, bad trace keyword.
		{"release 99", `engine: unknown owner: 99`},
		{"trace sideways", `trace: want on|off, got "sideways"`},
		{"trace on off", `trace: want on|off, got "on off"`},
		{"warp 1 2", `unknown command "warp"`},
	}
	for _, tc := range cases {
		var out bytes.Buffer
		sess := NewSession(eng, &out, nil)
		quit, err := sess.Exec(tc.line)
		if quit {
			t.Errorf("%q: requested shutdown", tc.line)
		}
		if err == nil {
			t.Errorf("%q: want error %q, got none (output %q)", tc.line, tc.want, out.String())
			continue
		}
		if err.Error() != tc.want {
			t.Errorf("%q: error = %q, want %q", tc.line, err.Error(), tc.want)
		}
	}
}

// TestKShortestAtTheLimit: K = 32, the largest kshortest accepts, is
// answered in full.
func TestKShortestAtTheLimit(t *testing.T) {
	eng := newEngine(t, "-topo", "paper")
	var out bytes.Buffer
	if _, err := NewSession(eng, &out, nil).Exec("kshortest 0 6 32"); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(out.String(), "  #"); got != 32 {
		t.Fatalf("%d paths for K=32:\n%s", got, out.String())
	}
}

// TestExecBlankAndCommentLinesAreNoOps covers the transport-facing edge
// the REPL filters before Exec but the TCP path must survive too.
func TestExecBlankAndCommentLinesAreNoOps(t *testing.T) {
	eng := newEngine(t, "-topo", "paper")
	var out bytes.Buffer
	sess := NewSession(eng, &out, nil)
	for _, line := range []string{"", "   ", "\t"} {
		quit, err := sess.Exec(line)
		if quit || err != nil {
			t.Fatalf("Exec(%q) = %v, %v; want no-op", line, quit, err)
		}
	}
	if out.Len() != 0 {
		t.Fatalf("blank lines produced output %q", out.String())
	}
	for line, want := range map[string]string{
		"# full comment":     "",
		"epoch # trailing":   "epoch",
		"  route 0 6  # hi ": "route 0 6",
	} {
		if got := CleanLine(line); got != want {
			t.Errorf("CleanLine(%q) = %q, want %q", line, got, want)
		}
	}
}

// TestSessionLeaseIDsAreProcessUnique verifies that sessions sharing an
// engine draw from one lease sequence: allocations on different
// sessions never collide, and a released ID is never reissued.
func TestSessionLeaseIDsAreProcessUnique(t *testing.T) {
	eng := newEngine(t, "-topo", "nsfnet", "-k", "6", "-seed", "3")
	var a, b bytes.Buffer
	sa := NewSession(eng, &a, nil)
	sb := NewSession(eng, &b, nil)
	for i := 0; i < 3; i++ {
		if _, err := sa.Exec("alloc 0 9"); err != nil {
			t.Fatalf("session a alloc %d: %v", i, err)
		}
		if _, err := sb.Exec("alloc 9 0"); err != nil {
			t.Fatalf("session b alloc %d: %v", i, err)
		}
	}
	seen := map[int64]bool{}
	for _, out := range []string{a.String(), b.String()} {
		for _, line := range strings.Split(out, "\n") {
			if id, ok := ParseLease(line); ok {
				if seen[id] {
					t.Fatalf("lease %d issued twice:\na: %s\nb: %s", id, a.String(), b.String())
				}
				seen[id] = true
			}
		}
	}
	if len(seen) != 6 {
		t.Fatalf("want 6 distinct leases, got %d", len(seen))
	}
	// Cross-session release: session b may free a lease session a took.
	if _, err := sb.Exec("release 1"); err != nil {
		t.Fatalf("cross-session release: %v", err)
	}
}

// TestTelemetryPerVerbLatency checks the serve-layer instruments move
// with request execution: totals, error counts and per-verb histogram
// counts.
func TestTelemetryPerVerbLatency(t *testing.T) {
	eng := newEngine(t, "-topo", "paper")
	tel := NewTelemetry(eng.Metrics())
	var out bytes.Buffer
	sess := NewSession(eng, &out, &SessionOptions{Telemetry: tel})
	lines := []string{"route 0 6", "route 0 6", "epoch", "warp", "route 0"}
	for _, l := range lines {
		if _, err := sess.Exec(l); err != nil {
			continue // protocol errors are part of the fixture
		}
	}
	if got := tel.requests.Value(); got != uint64(len(lines)) {
		t.Fatalf("serve_requests_total = %d, want %d", got, len(lines))
	}
	if got := tel.errors.Value(); got != 2 {
		t.Fatalf("serve_request_errors_total = %d, want 2 (unknown verb + bad arity)", got)
	}
	if got := tel.verbLatency["route"].Snapshot().Count; got != 3 {
		t.Fatalf("route verb latency count = %d, want 3 (two answers + one arity error)", got)
	}
	if got := tel.verbLatency["epoch"].Snapshot().Count; got != 1 {
		t.Fatalf("epoch verb latency count = %d, want 1", got)
	}
	if got := tel.reqLatency.Snapshot().Count; got != uint64(len(lines)) {
		t.Fatalf("serve_request_latency_ns count = %d, want %d", got, len(lines))
	}
}

// TestReplyLinesMatchFmt pins the strconv rendering of routefrom and
// batch reply lines to the fmt form the protocol was defined with, byte
// for byte: integers, fractions, the %g switch to exponents at ≥1e21 and
// <1e-4, and zero.
func TestReplyLinesMatchFmt(t *testing.T) {
	costs := []float64{
		0, 1, 20, 7, 123456789, 1 << 53,
		0.5, 0.1, 0.30000000000000004, 12.375, 2.9999999999999996, 1.0 / 3,
		1e20, 1e21, 1.5e21, 123456789e15, math.MaxFloat64,
		1e-4, 9.999e-5, 1e-5, 5e-324, math.SmallestNonzeroFloat64,
		math.Inf(1),
	}
	pairs := [][2]int{{0, 0}, {0, 9}, {13, 7}, {99, 100}, {1234567, 89}}
	for _, p := range pairs {
		for _, c := range costs {
			want := fmt.Sprintf("  %d -> %d: cost %g", p[0], p[1], c)
			if got := string(appendCost(appendPair(nil, p[0], p[1]), c)); got != want {
				t.Errorf("cost line = %q, fmt renders %q", got, want)
			}
		}
		want := fmt.Sprintf("  %d -> %d: ", p[0], p[1])
		if got := string(appendPair([]byte("kept"), p[0], p[1])); got != "kept"+want {
			t.Errorf("pair prefix = %q, fmt renders %q", got, "kept"+want)
		}
	}
}

// writeCounter counts Write calls in front of a buffer.
type writeCounter struct {
	bytes.Buffer
	writes int
}

func (w *writeCounter) Write(p []byte) (int, error) {
	w.writes++
	return w.Buffer.Write(p)
}

// TestTreeRepliesAreOneWrite: a routefrom or batch reply reaches the
// transport in a single Write, the same bytes whatever the session's
// buffer held before, with every outcome word in place.
func TestTreeRepliesAreOneWrite(t *testing.T) {
	eng := newEngine(t, "-topo", "paper")
	if _, err := eng.FailLink(0); err != nil { // cut something off so "blocked" shows up
		t.Fatal(err)
	}
	var out writeCounter
	sess := NewSession(eng, &out, nil)
	n := eng.Base().NumNodes()
	var first string
	for round := 0; round < 2; round++ {
		out.Reset()
		out.writes = 0
		for _, line := range []string{"routefrom 0", "batch 0 6 0 3 1 5 6 0 6 1", "routefrom 6"} {
			if _, err := sess.Exec(line); err != nil {
				t.Fatalf("%s: %v", line, err)
			}
		}
		if out.writes != 3 {
			t.Fatalf("3 replies took %d writes", out.writes)
		}
		if round == 0 {
			first = out.String()
		} else if out.String() != first {
			t.Fatalf("replies differ on a reused buffer:\n%s\nvs\n%s", out.String(), first)
		}
	}
	lines := strings.Split(strings.TrimSuffix(first, "\n"), "\n")
	if len(lines) != n+1+5+n {
		t.Fatalf("%d reply lines, want %d:\n%s", len(lines), n+1+5+n, first)
	}
	if want := fmt.Sprintf("batch of 5 at epoch %d:", eng.Epoch()); lines[n] != want {
		t.Fatalf("batch header %q, want %q", lines[n], want)
	}
	for _, word := range []string{": cost ", ": unreachable", ": blocked"} {
		if !strings.Contains(first, word) {
			t.Errorf("no %q line in:\n%s", word, first)
		}
	}
}
