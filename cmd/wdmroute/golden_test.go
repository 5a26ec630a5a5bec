package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/route.golden")

// TestRouteGolden pins wdmroute's stdout byte for byte over the paper's
// example and NSFNET at k=8 (seed 1): a point route, -explain, -all,
// -paths 3 and -max-hops 3. Every number printed is deterministic, so
// any difference is a change in what the router finds or reports.
// `go test ./cmd/wdmroute -run TestRouteGolden -update` rewrites the file.
func TestRouteGolden(t *testing.T) {
	var buf bytes.Buffer
	for _, args := range [][]string{
		{"-topo", "paper", "-from", "0", "-to", "6"},
		{"-topo", "paper", "-from", "0", "-to", "6", "-explain"},
		{"-topo", "paper", "-from", "0", "-all"},
		{"-topo", "paper", "-from", "0", "-to", "6", "-paths", "3"},
		{"-topo", "nsfnet", "-k", "8", "-from", "0", "-to", "13"},
		{"-topo", "nsfnet", "-k", "8", "-from", "0", "-to", "13", "-explain"},
		{"-topo", "nsfnet", "-k", "8", "-from", "0", "-all"},
		{"-topo", "nsfnet", "-k", "8", "-from", "0", "-to", "13", "-paths", "3"},
		{"-topo", "nsfnet", "-k", "8", "-from", "0", "-to", "13", "-max-hops", "3"},
	} {
		fmt.Fprintf(&buf, "$ wdmroute %s\n", strings.Join(args, " "))
		if err := run(args, &buf); err != nil {
			t.Fatalf("%v: %v", args, err)
		}
	}
	path := filepath.Join("testdata", "route.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run go test -run %s -update): %v", t.Name(), err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("output differs from %s:\n--- got ---\n%s\n--- want ---\n%s", path, buf.Bytes(), want)
	}
}
