package bench

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/application.golden")

// TestApplicationGolden pins the application experiments' tables byte for
// byte: X1 (RunSession), X2 (RunRWACompare) and X7
// (RunWavelengthRequirement) at seed 1998 and scale 0.25, rendered as CSV.
// None of the three tables holds a timing, so any difference is a change
// in admission behaviour. `go test -run TestApplicationGolden -update
// ./internal/bench` rewrites the file.
func TestApplicationGolden(t *testing.T) {
	cfg := Config{Seed: 1998, Scale: 0.25, Reps: 1}
	var buf bytes.Buffer
	w := CSVWriter(&buf)
	for _, run := range []func(io.Writer, Config) error{RunSession, RunRWACompare, RunWavelengthRequirement} {
		if err := run(w, cfg); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join("testdata", "application.golden")
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
