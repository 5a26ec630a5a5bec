package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"lightpath/internal/analysis"
)

// buildLint compiles the driver once per test binary into a temp dir.
func buildLint(t *testing.T) (bin, root string) {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	root = filepath.Dir(filepath.Dir(wd)) // cmd/wdmlint -> module root
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Fatalf("module root not at %s: %v", root, err)
	}
	bin = filepath.Join(t.TempDir(), "wdmlint")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/wdmlint")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("build wdmlint: %v\n%s", err, out)
	}
	return bin, root
}

// TestCleanTreeExitsZero is the gate the Makefile relies on: the
// committed tree must lint clean.
func TestCleanTreeExitsZero(t *testing.T) {
	if testing.Short() {
		t.Skip("lints the whole module; skipped in -short")
	}
	bin, root := buildLint(t)
	cmd := exec.Command(bin, "./...")
	cmd.Dir = root
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("wdmlint ./... on the clean tree: %v\n%s", err, out)
	}
}

// TestBrokenFixtureExitsNonZero proves findings drive the exit code,
// and that every analyzer in the suite fires through the driver.
func TestBrokenFixtureExitsNonZero(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles the module; skipped in -short")
	}
	bin, root := buildLint(t)
	cmd := exec.Command(bin, "-dir", filepath.Join("internal", "analysis", "testdata", "src", "broken"))
	cmd.Dir = root
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("want exit 1 on broken fixture, got %v\nstdout: %s\nstderr: %s", err, stdout.String(), stderr.String())
	}
	got := stdout.String()
	for _, a := range analysis.Suite() {
		t.Run(a.Name, func(t *testing.T) {
			if !strings.Contains(got, ": "+a.Name+": ") {
				t.Errorf("broken fixture output missing %s finding:\n%s", a.Name, got)
			}
		})
	}
}

// TestListSorted pins the -list contract: one line per analyzer in
// Suite(), in lexicographic order.
func TestListSorted(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles the module; skipped in -short")
	}
	bin, _ := buildLint(t)
	out, err := exec.Command(bin, "-list").CombinedOutput()
	if err != nil {
		t.Fatalf("-list: %v\n%s", err, out)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var names []string
	for _, line := range lines {
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		names = append(names, fields[0])
	}
	if want := len(analysis.Suite()); len(names) != want {
		t.Fatalf("-list printed %d analyzers, want %d:\n%s", len(names), want, out)
	}
	for i := 1; i < len(names); i++ {
		if names[i] < names[i-1] {
			t.Errorf("-list not sorted: %q after %q", names[i], names[i-1])
		}
	}
}
