package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"lightpath/internal/serve"
)

// repoRoot is the enclosing lightpath module: the tests run in
// benchmark/.
func repoRoot(t *testing.T) string {
	t.Helper()
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	return root
}

// TestSpecMatchesProgram pins BENCHMARK.json to the program: the same
// workloads and metric names, units and directions, inside the driver's
// limits.
func TestSpecMatchesProgram(t *testing.T) {
	sp, err := loadSpec(repoRoot(t))
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"bash", "benchmark/run.sh"}; !reflect.DeepEqual(sp.Command, want) {
		t.Errorf("command %v, want %v", sp.Command, want)
	}
	if want := []string{"benchmark"}; !reflect.DeepEqual(sp.Paths, want) {
		t.Errorf("paths %v, want %v", sp.Paths, want)
	}
	if sp.RunSeconds < 1 || sp.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", sp.RunSeconds)
	}
	if len(sp.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(sp.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if sp.Workloads[i].Name != w.name || sp.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)",
				i, sp.Workloads[i].Name, sp.Workloads[i].Why, w.name, w.why)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.name)
		}
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.\-]{1,16}$`)
	seen := map[string]bool{}
	check := func(kind string, got []specMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the program", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, the program %+v", kind, i, g, d)
			}
			if !nameRE.MatchString(d.name) || !unitRE.MatchString(d.unit) || seen[d.name] {
				t.Errorf("%s metric %q (%q): bad or repeated name or unit", kind, d.name, d.unit)
			}
			seen[d.name] = true
			if bounded && (g.Bound <= 0 || g.Bound > 0.25) {
				t.Errorf("%s metric %s: bound %g outside (0, 0.25]", kind, d.name, g.Bound)
			}
			if !bounded && g.Bound != 0 {
				t.Errorf("%s metric %s carries a bound", kind, d.name)
			}
		}
	}
	check("end_to_end", sp.EndToEnd, endToEndDefs, true)
	check("per_layer", sp.PerLayer, perLayerDefs(), false)
	if sp.bound("setup_s") == 0 {
		t.Error("end_to_end has no setup_s")
	}
}

func TestRounds(t *testing.T) {
	for _, tc := range []struct {
		seconds, n int
		each       float64
	}{{1, 1, 1}, {5, 1, 5}, {10, 2, 5}, {15, 3, 5}, {30, 3, 10}} {
		if n, each := rounds(tc.seconds); n != tc.n || each != tc.each {
			t.Errorf("rounds(%d) = %d x %g s, want %d x %g s", tc.seconds, n, each, tc.n, tc.each)
		}
	}
}

func transcript(s *script) string {
	var b strings.Builder
	for i := range s.ops {
		b.Write(s.ops[i].send)
		b.WriteString(s.ops[i].want)
	}
	return b.String()
}

// TestGeneratorDeterminism: the same seed gives byte-identical scripts
// and reference transcripts, another seed gives others.
func TestGeneratorDeterminism(t *testing.T) {
	for _, w := range workloads {
		const n = 300
		a, err := makePlan(w, 1, n)
		if err != nil {
			t.Fatal(err)
		}
		b, err := makePlan(w, 1, n)
		if err != nil {
			t.Fatal(err)
		}
		c, err := makePlan(w, 2, n)
		if err != nil {
			t.Fatal(err)
		}
		if transcript(a.conn0) != transcript(b.conn0) || transcript(a.conn1) != transcript(b.conn1) {
			t.Errorf("%s: two plans for seed 1 differ", w.name)
		}
		if a.blocked != b.blocked || a.leases != b.leases || a.finalEpoch != b.finalEpoch {
			t.Errorf("%s: reference facts differ between two plans for seed 1", w.name)
		}
		if transcript(a.conn0) == transcript(c.conn0) || transcript(a.conn1) == transcript(c.conn1) {
			t.Errorf("%s: seeds 1 and 2 give the same script", w.name)
		}
		if got := len(a.conn0.timed()); got < n || got > n+2 {
			t.Errorf("%s: %d timed operations, want about %d", w.name, got, n)
		}
		if w.readOnly && a.oracleOK < 50 {
			t.Errorf("%s: only %d costs checked against the oracle", w.name, a.oracleOK)
		}
		if w.readOnly && a.finalEpoch != 0 {
			t.Errorf("%s: read-only reference ends at epoch %d", w.name, a.finalEpoch)
		}
	}
}

// TestChurnScript: the leases mid_churn releases are the ones the
// reference engine minted, each exactly once, and the script ends with
// nothing held (makePlan refuses otherwise).
func TestChurnScript(t *testing.T) {
	p, err := makePlan(workloadByName("mid_churn"), 7, 2000)
	if err != nil {
		t.Fatal(err)
	}
	held := map[int]bool{}
	allocs, admitted, fails := 0, 0, 0
	for i := range p.conn0.ops {
		o := &p.conn0.ops[i]
		switch o.verb {
		case verbAlloc:
			allocs++
			if lease, ok := serve.ParseLease(strings.TrimSuffix(o.want, "\n")); ok {
				// ReserveOwner mints one id per alloc, admitted or not.
				if int(lease) != allocs || o.lease != lease {
					t.Fatalf("op %d: reference minted lease %d for alloc number %d, the script says %d", i, lease, allocs, o.lease)
				}
				held[allocs] = true
				admitted++
			} else if !isBlocked(o.want) {
				t.Fatalf("op %d: alloc answered %q", i, o.want)
			}
		case verbRelease:
			if !held[o.args[0]] {
				t.Fatalf("op %d: releases lease %d, which is not held", i, o.args[0])
			}
			delete(held, o.args[0])
			if !strings.HasPrefix(o.want, "released ") {
				t.Fatalf("op %d: release answered %q", i, o.want)
			}
		case verbFail:
			fails++
		}
	}
	if len(held) != 0 {
		t.Errorf("%d leases never released", len(held))
	}
	if admitted != p.leases || allocs-admitted != p.blocked {
		t.Errorf("script has %d admitted and %d blocked allocs, the plan says %d and %d",
			admitted, allocs-admitted, p.leases, p.blocked)
	}
	if p.blocked == 0 || fails == 0 {
		t.Errorf("want some blocked allocs and link failures at this load, got %d and %d", p.blocked, fails)
	}
	if p.conn0.timedStart == 0 || p.conn0.timedEnd == len(p.conn0.ops) {
		t.Error("mid_churn needs an untimed warm-up and an untimed drain")
	}
}

// TestOracleCatchesWrongReference: a reference whose costs are all off
// by one must not pass the oracle sample.
func TestOracleCatchesWrongReference(t *testing.T) {
	p, err := makePlan(workloadByName("nsf_read"), 1, 200)
	if err != nil {
		t.Fatal(err)
	}
	for i := range p.conn0.ops {
		o := &p.conn0.ops[i]
		cost, ok := serve.ParseCost(firstLine(o.want))
		if !ok {
			continue
		}
		o.want = strings.Replace(o.want, "cost ", "cost 1", 1)
		if got, _ := serve.ParseCost(firstLine(o.want)); got == cost {
			t.Fatalf("corruption did not change the cost of %q", o.want)
		}
	}
	if err := p.checkOracle(); err == nil {
		t.Error("oracle sample accepted a corrupted reference")
	}
}

// fakeServer answers the i-th line it receives with replies[i], whatever
// the line says.
func fakeServer(t *testing.T, replies []string) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		r := bufio.NewReader(conn)
		for _, reply := range replies {
			if _, err := r.ReadString('\n'); err != nil {
				return
			}
			if _, err := conn.Write([]byte(reply)); err != nil {
				return
			}
		}
	}()
	return ln.Addr().String()
}

// TestVerifierCatches: one corrupted cost, one unexpected busy and one
// wrong blocked/admitted outcome each count as a failure and turn the
// exit code non-zero; the untouched transcript passes.
func TestVerifierCatches(t *testing.T) {
	read, err := makePlan(workloadByName("nsf_read"), 1, 50)
	if err != nil {
		t.Fatal(err)
	}
	churn, err := makePlan(workloadByName("mid_churn"), 1, 50)
	if err != nil {
		t.Fatal(err)
	}
	admitted := -1
	for i := range churn.conn0.ops {
		if strings.HasPrefix(churn.conn0.ops[i].want, "lease ") {
			admitted = i
			break
		}
	}
	if admitted < 0 {
		t.Fatal("no admitted alloc in the churn script")
	}
	for _, tc := range []struct {
		name    string
		p       *plan
		corrupt func(replies []string)
		check   func(c *client) bool
	}{
		{"clean", read, func([]string) {}, func(c *client) bool { return c.failed() == 0 }},
		{"corrupted cost", read, func(r []string) { r[10] = strings.Replace(r[10], "cost ", "cost 1", 1) },
			func(c *client) bool { return c.mismatch == 1 && c.failed() == 1 }},
		{"unexpected busy", read, func(r []string) { r[20] = "busy\n" },
			func(c *client) bool { return c.busy == 1 && c.failed() == 1 }},
		{"admitted alloc answered as blocked", churn,
			func(r []string) { r[admitted] = "error: core: no semilightpath exists\n" },
			func(c *client) bool { return c.mismatch == 1 && c.failed() == 1 }},
	} {
		ops := tc.p.conn0.ops
		replies := make([]string, len(ops))
		for i := range ops {
			replies[i] = ops[i].want
		}
		tc.corrupt(replies)
		c, err := dial(fakeServer(t, replies))
		if err != nil {
			t.Fatal(err)
		}
		for i := range ops {
			c.do(&ops[i])
		}
		c.close()
		if c.err != nil {
			t.Fatalf("%s: transport: %v", tc.name, c.err)
		}
		if !tc.check(c) {
			t.Errorf("%s: busy %d protoErr %d mismatch %d blocked %d, notes %q",
				tc.name, c.busy, c.protoErr, c.mismatch, c.blocked, c.notes)
		}
		h := &halfResult{plan: tc.p, attempted: len(ops), failed: c.failed(), endToEnd: map[string]summary{}}
		sp := &spec{}
		var out bytes.Buffer
		if code := h.printDriverLine(&out, sp); (code != 0) != (c.failed() > 0) {
			t.Errorf("%s: exit code %d with %d failures", tc.name, code, c.failed())
		}
	}
}

// driverLine is the one JSON object the driver reads.
type driverLine struct {
	Correct   *bool `json:"correct"`
	Attempted *int  `json:"attempted"`
	Failed    *int  `json:"failed"`
	Metrics   map[string]struct {
		Value *float64 `json:"value"`
		Unit  string   `json:"unit"`
	} `json:"metrics"`
}

func lastLine(s string) string {
	lines := strings.Split(strings.TrimSpace(s), "\n")
	return lines[len(lines)-1]
}

// TestSmoke runs the whole benchmark against the real wdmserve with
// tiny op counts: all four workloads, every metric present with its
// unit, nothing failed — and the driver's single-workload form on both
// halves.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs wdmserve")
	}
	root := repoRoot(t)
	var out, errOut bytes.Buffer
	if code := run([]string{"-root", root, "-smoke"}, &out, &errOut); code != 0 {
		t.Fatalf("smoke run exited %d\n%s\n%s", code, errOut.String(), out.String())
	}
	var rep report
	if err := json.Unmarshal([]byte(lastLine(out.String())), &rep); err != nil {
		t.Fatalf("last line is not the report: %v", err)
	}
	if len(rep.Workloads) != len(workloads) || rep.Failed != 0 {
		t.Fatalf("report has %d workloads and %d failures", len(rep.Workloads), rep.Failed)
	}
	if rep.Provenance.NProc == 0 || rep.Provenance.GoVersion == "" || !strings.Contains(rep.Provenance.Load, "closed loop, 2 connections") {
		t.Errorf("incomplete provenance: %+v", rep.Provenance)
	}
	for i, wr := range rep.Workloads {
		if wr.Name != workloads[i].name || wr.Failed != 0 || wr.Ops == 0 {
			t.Errorf("workload %d: %s ops %d failed %d", i, wr.Name, wr.Ops, wr.Failed)
		}
		for _, d := range clientDefs() {
			if s, ok := wr.EndToEnd[d.name]; !ok || s.Unit != d.unit {
				t.Errorf("%s: end-to-end metric %s missing or without its unit", wr.Name, d.name)
			}
		}
		for _, d := range endToEndDefs {
			if wr.EndToEnd[d.name].Value <= 0 {
				t.Errorf("%s: end-to-end metric %s is %g; a gated metric is never 0", wr.Name, d.name, wr.EndToEnd[d.name].Value)
			}
		}
		for _, d := range perLayerDefs() {
			if s, ok := wr.PerLayer[d.name]; !ok || s.Unit != d.unit {
				t.Errorf("%s: per-layer metric %s missing or without its unit", wr.Name, d.name)
			}
		}
		epochs := wr.PerLayer["engine.epochs"].Value
		if workloads[i].readOnly != (epochs == 0) {
			t.Errorf("%s: %g epochs published inside the window", wr.Name, epochs)
		}
	}

	for trace, defs := range [][]metricDef{endToEndDefs, perLayerDefs()} {
		out.Reset()
		errOut.Reset()
		args := []string{"-root", root, "--workload", "mid_churn", "--seed", "3", "--seconds", "1", "--trace", string(rune('0' + trace))}
		if code := run(args, &out, &errOut); code != 0 {
			t.Fatalf("%v exited %d\n%s\n%s", args, code, errOut.String(), out.String())
		}
		var raw map[string]json.RawMessage
		var line driverLine
		if err := json.Unmarshal([]byte(lastLine(out.String())), &raw); err != nil {
			t.Fatalf("%v: last line: %v", args, err)
		}
		if err := json.Unmarshal([]byte(lastLine(out.String())), &line); err != nil {
			t.Fatalf("%v: last line: %v", args, err)
		}
		if len(raw) != 4 || line.Correct == nil || line.Attempted == nil || line.Failed == nil {
			t.Fatalf("%v: want exactly correct, attempted, failed and metrics, got %s", args, lastLine(out.String()))
		}
		if !*line.Correct || *line.Failed != 0 || *line.Attempted < 1 {
			t.Errorf("%v: correct %v attempted %d failed %d", args, *line.Correct, *line.Attempted, *line.Failed)
		}
		if len(line.Metrics) != len(defs) {
			t.Errorf("%v: %d metrics, want %d", args, len(line.Metrics), len(defs))
		}
		for _, d := range defs {
			if m, ok := line.Metrics[d.name]; !ok || m.Value == nil || m.Unit != d.unit {
				t.Errorf("%v: metric %s missing, without value or without its unit", args, d.name)
			}
		}
	}
}

// TestNoResultOutsideARepository: in a directory holding only
// BENCHMARK.json and benchmark/, the program finds no lightpath module
// and exits non-zero without printing a result.
func TestNoResultOutsideARepository(t *testing.T) {
	dir := t.TempDir()
	data, err := os.ReadFile(filepath.Join(repoRoot(t), "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "BENCHMARK.json"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errOut bytes.Buffer
	if code := run([]string{"-root", dir, "--workload", "nsf_read", "--trace", "0"}, &out, &errOut); code == 0 {
		t.Error("exit code 0 without a repository to build")
	}
	if out.Len() != 0 {
		t.Errorf("printed %q without a repository to build", out.String())
	}
}
