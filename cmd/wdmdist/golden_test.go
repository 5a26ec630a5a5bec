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

var updateGolden = flag.Bool("update", false, "rewrite testdata/dist.golden")

// TestDistGolden pins wdmdist's stdout byte for byte: the per-round
// convergence trace on NSFNET (k=8, 0→13) and on a k0-bounded sparse
// network (n=120, k=8, k0=3, 0→60), both all-pairs modes on NSFNET, and
// the asynchronous model. Every number printed — messages, rounds, wire
// and inbox peaks, each round's active nodes — is deterministic, so any
// difference is a change in what the distributed runtime executes.
// `go test ./cmd/wdmdist -run TestDistGolden -update` rewrites the file.
func TestDistGolden(t *testing.T) {
	var buf bytes.Buffer
	for _, args := range [][]string{
		{"-topo", "nsfnet", "-k", "8", "-from", "0", "-to", "13", "-trace"},
		{"-topo", "sparse", "-n", "120", "-k", "8", "-k0", "3", "-from", "0", "-to", "60", "-trace"},
		{"-topo", "nsfnet", "-k", "8", "-allpairs"},
		{"-topo", "nsfnet", "-k", "8", "-allpairs", "-pipelined"},
		{"-topo", "nsfnet", "-k", "8", "-from", "0", "-to", "13", "-async"},
	} {
		fmt.Fprintf(&buf, "$ wdmdist %s\n", strings.Join(args, " "))
		if err := run(args, &buf); err != nil {
			t.Fatalf("%v: %v", args, err)
		}
	}
	path := filepath.Join("testdata", "dist.golden")
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
	if buf.String() == string(want) {
		return
	}
	// Name the first line that differs; the sentinel marks where the
	// shorter text ends.
	got := append(strings.Split(buf.String(), "\n"), "<end of output>")
	exp := append(strings.Split(string(want), "\n"), "<end of output>")
	i := 0
	for got[i] == exp[i] {
		i++
	}
	t.Fatalf("%s:%d differs:\n got: %q\nwant: %q", path, i+1, got[i], exp[i])
}
