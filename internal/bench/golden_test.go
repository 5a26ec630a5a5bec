package bench

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the testdata/*.golden files of the tests run")

// TestApplicationGolden pins the application experiments' tables byte for
// byte: X1 (RunSession), X2 (RunRWACompare) and X7
// (RunWavelengthRequirement) at seed 1998 and scale 0.25, rendered as CSV.
// None of the three tables holds a timing, so any difference is a change
// in admission behaviour. `go test ./internal/bench -run
// TestApplicationGolden -update` rewrites the file.
func TestApplicationGolden(t *testing.T) {
	checkGolden(t, "application.golden", RunSession, RunRWACompare, RunWavelengthRequirement)
}

// TestDistributedGolden pins the distributed runtime's counts: E5
// (RunDistributed — messages and rounds against the Theorem 3/5 bounds)
// and the synchronous-vs-asynchronous ablation (RunAsync) at seed 1998
// and scale 0.25, rendered as CSV. Neither table holds a timing, so any
// difference is a change in what the runtime executes or counts.
// `go test ./internal/bench -run TestDistributedGolden -update` rewrites
// the file.
func TestDistributedGolden(t *testing.T) {
	checkGolden(t, "distributed.golden", RunDistributed, RunAsync)
}

// checkGolden renders runs as CSV at seed 1998, scale 0.25, one rep, and
// compares the bytes with testdata/name (or rewrites it under -update).
func checkGolden(t *testing.T, name string, runs ...func(io.Writer, Config) error) {
	t.Helper()
	cfg := Config{Seed: 1998, Scale: 0.25, Reps: 1}
	var buf bytes.Buffer
	w := CSVWriter(&buf)
	for _, run := range runs {
		if err := run(w, cfg); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join("testdata", name)
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
