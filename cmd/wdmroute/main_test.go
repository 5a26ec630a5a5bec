package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRoutePaperExample(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-topo", "paper", "-from", "0", "-to", "6"}, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	s := out.String()
	for _, want := range []string{"optimal semilightpath 0 -> 6", "cost:  20", "pure lightpath"} {
		if !strings.Contains(s, want) {
			t.Fatalf("output missing %q:\n%s", want, s)
		}
	}
}

func TestRouteQueues(t *testing.T) {
	for _, q := range []string{"fibonacci", "binary", "linear"} {
		var out bytes.Buffer
		if err := run([]string{"-topo", "paper", "-from", "0", "-to", "6", "-queue", q}, &out); err != nil {
			t.Fatalf("queue %s: %v", q, err)
		}
		if !strings.Contains(out.String(), "cost:  20") {
			t.Fatalf("queue %s: wrong cost:\n%s", q, out.String())
		}
	}
	for _, q := range []string{"warp", "pairing"} {
		var out bytes.Buffer
		if err := run([]string{"-topo", "paper", "-queue", q}, &out); err == nil {
			t.Fatalf("unknown queue %s must fail", q)
		}
	}
}

func TestRouteAllFlag(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-topo", "paper", "-from", "0", "-all"}, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	s := out.String()
	if !strings.Contains(s, "costs from node 0") {
		t.Fatalf("missing header:\n%s", s)
	}
	// Node 0 cannot reach itself... it can (cost 0); every node listed.
	for _, want := range []string{"->   0", "->   6"} {
		if !strings.Contains(s, want) {
			t.Fatalf("missing row %q:\n%s", want, s)
		}
	}
}

func TestRouteNoPath(t *testing.T) {
	var out bytes.Buffer
	// Paper node 7 (our 6) has no outgoing links.
	if err := run([]string{"-topo", "paper", "-from", "6", "-to", "0"}, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(out.String(), "no semilightpath") {
		t.Fatalf("expected graceful no-route message:\n%s", out.String())
	}
}

func TestRouteFromInstanceFile(t *testing.T) {
	// A 2-node instance written by hand.
	path := filepath.Join(t.TempDir(), "net.json")
	doc := `{"nodes":2,"k":1,"links":[{"id":0,"from":0,"to":1,"channels":[{"lambda":0,"weight":3}]}],
	         "converter":{"kind":"none"}}`
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run([]string{"-net", path, "-from", "0", "-to", "1"}, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(out.String(), "cost:  3") {
		t.Fatalf("wrong cost:\n%s", out.String())
	}
}

func TestRouteBadEndpoints(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-topo", "paper", "-from", "0", "-to", "99"}, &out); err == nil {
		t.Fatal("bad endpoint must fail")
	}
	if err := run([]string{"-badflag"}, &out); err == nil {
		t.Fatal("bad flag must fail")
	}
}

func TestRouteWithConversionOutput(t *testing.T) {
	// Force a conversion: 3-node chain with disjoint wavelengths.
	path := filepath.Join(t.TempDir(), "conv.json")
	doc := `{"nodes":3,"k":2,"links":[
	  {"id":0,"from":0,"to":1,"channels":[{"lambda":0,"weight":1}]},
	  {"id":1,"from":1,"to":2,"channels":[{"lambda":1,"weight":1}]}],
	  "converter":{"kind":"uniform","c":0.5}}`
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run([]string{"-net", path, "-from", "0", "-to", "2"}, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	s := out.String()
	if !strings.Contains(s, "switch at node 1: λ1 -> λ2 (cost 0.5)") {
		t.Fatalf("conversion line missing:\n%s", s)
	}
	if !strings.Contains(s, "cost:  2.5") {
		t.Fatalf("wrong cost:\n%s", s)
	}
}

func TestRouteKShortest(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-topo", "paper", "-from", "0", "-to", "6", "-paths", "3"}, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	s := out.String()
	if !strings.Contains(s, "3 best semilightpaths 0 -> 6") {
		t.Fatalf("k-shortest header missing:\n%s", s)
	}
	if !strings.Contains(s, "#1 cost 20") {
		t.Fatalf("best path missing:\n%s", s)
	}
	if !strings.Contains(s, "#3") {
		t.Fatalf("third path missing:\n%s", s)
	}
}

func TestRouteExplain(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-topo", "paper", "-from", "0", "-to", "6", "-explain"}, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	s := out.String()
	if !strings.Contains(s, "cost breakdown") || !strings.Contains(s, "cumulative") {
		t.Fatalf("breakdown missing:\n%s", s)
	}
}

func TestRouteMaxHops(t *testing.T) {
	var out bytes.Buffer
	// Paper example: 1→7 is reachable in 2 hops; -max-hops 1 must fail.
	if err := run([]string{"-topo", "paper", "-from", "0", "-to", "6", "-max-hops", "1"}, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(out.String(), "no semilightpath") {
		t.Fatalf("1-hop should be infeasible:\n%s", out.String())
	}
	out.Reset()
	if err := run([]string{"-topo", "paper", "-from", "0", "-to", "6", "-max-hops", "2"}, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(out.String(), "cost:  20") {
		t.Fatalf("2-hop route should match the optimum:\n%s", out.String())
	}
}

// TestRouteRefusesIgnoredFlags: -all and -paths > 1 answer without a hop
// limit or a breakdown, so naming -max-hops or -explain beside them — or
// the two together — is an error that names both flags, not a reply that
// silently drops one.
func TestRouteRefusesIgnoredFlags(t *testing.T) {
	for _, tc := range []struct {
		args []string
		a, b string
	}{
		{[]string{"-all", "-paths", "2"}, "-all", "-paths"},
		{[]string{"-all", "-max-hops", "1"}, "-all", "-max-hops"},
		{[]string{"-all", "-explain"}, "-all", "-explain"},
		{[]string{"-paths", "2", "-max-hops", "1"}, "-paths", "-max-hops"},
		{[]string{"-paths", "2", "-explain"}, "-paths", "-explain"},
	} {
		t.Run(strings.Join(tc.args, " "), func(t *testing.T) {
			var out bytes.Buffer
			err := run(append([]string{"-topo", "paper", "-from", "0", "-to", "6"}, tc.args...), &out)
			if err == nil || !strings.Contains(err.Error(), tc.a) || !strings.Contains(err.Error(), tc.b) {
				t.Fatalf("err = %v, want a refusal naming %s and %s (output %q)", err, tc.a, tc.b, out.String())
			}
			if out.Len() != 0 {
				t.Fatalf("refused run printed %q", out.String())
			}
		})
	}
}
