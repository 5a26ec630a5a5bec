package bench

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// tinyConfig keeps experiment runs fast under `go test`.
func tinyConfig() Config {
	return Config{Seed: 7, Scale: 0.04, Reps: 1}
}

func TestTableFormatting(t *testing.T) {
	tab := &Table{
		Title:   "demo",
		Note:    "a note",
		Headers: []string{"a", "bee"},
	}
	tab.AddRow(1, 2.5)
	tab.AddRow("x", 1500*time.Microsecond)
	tab.AddRow(3.0, 123.456)
	var buf bytes.Buffer
	tab.Fprint(&buf)
	out := buf.String()
	for _, want := range []string{"== demo ==", "a note", "bee", "2.500", "1.5ms", "123.5", "---"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestFormatFloat(t *testing.T) {
	cases := map[float64]string{
		3:        "3",
		3.25:     "3.250",
		250.7:    "250.7",
		1e19:     "inf",
		-400.123: "-400.1",
	}
	for in, want := range cases {
		if got := formatFloat(in); got != want {
			t.Errorf("formatFloat(%v) = %q, want %q", in, got, want)
		}
	}
	if got := formatFloat(nan()); got != "NaN" {
		t.Errorf("formatFloat(NaN) = %q", got)
	}
}

func nan() float64 {
	var zero float64
	return zero / zero
}

func TestMedianDuration(t *testing.T) {
	calls := 0
	d := medianDuration(3, func() { calls++ })
	if calls != 4 { // 1 warm-up + 3 reps
		t.Fatalf("calls = %d, want 4", calls)
	}
	if d < 0 {
		t.Fatalf("negative duration %v", d)
	}
	calls = 0
	medianDuration(0, func() { calls++ })
	if calls != 2 { // clamped to 1 rep + warm-up
		t.Fatalf("calls = %d, want 2", calls)
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if err := Run("nope", &bytes.Buffer{}, tinyConfig()); err == nil {
		t.Fatal("unknown experiment must error")
	}
}

// TestEveryExperimentRuns executes each experiment at tiny scale and
// checks it produces a table.
func TestEveryExperimentRuns(t *testing.T) {
	for _, name := range Names {
		name := name
		t.Run(name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := Run(name, &buf, tinyConfig()); err != nil {
				t.Fatalf("experiment %s: %v", name, err)
			}
			if !strings.Contains(buf.String(), "==") {
				t.Fatalf("experiment %s produced no table:\n%s", name, buf.String())
			}
		})
	}
}

func TestRunAll(t *testing.T) {
	if testing.Short() {
		t.Skip("RunAll covered per-experiment in TestEveryExperimentRuns")
	}
	var buf bytes.Buffer
	if err := RunAll(&buf, tinyConfig()); err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	// Every experiment prints at least one table header.
	if got := strings.Count(buf.String(), "== "); got < len(Names) {
		t.Fatalf("only %d tables for %d experiments", got, len(Names))
	}
}

func TestConfigHelpers(t *testing.T) {
	c := Config{Scale: 0.001}
	if got := c.scaled(100); got != 4 {
		t.Fatalf("scaled floor = %d, want 4", got)
	}
	c = Config{Scale: 2}
	if got := c.scaled(100); got != 200 {
		t.Fatalf("scaled = %d, want 200", got)
	}
	if (Config{}).reps() != 1 {
		t.Fatal("reps floor should be 1")
	}
}

func TestCSVRendering(t *testing.T) {
	tab := &Table{Title: "csv demo", Headers: []string{"a", "b"}}
	tab.AddRow(1, "x,y") // comma must be quoted
	var buf bytes.Buffer
	if err := tab.Render(&buf, FormatCSV); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"# csv demo", "a,b", `1,"x,y"`} {
		if !strings.Contains(out, want) {
			t.Fatalf("csv missing %q:\n%s", want, out)
		}
	}
	if err := tab.Render(&buf, Format(9)); err == nil {
		t.Fatal("unknown format must fail")
	}
	// Experiments honour a CSVWriter wrapper.
	var buf2 bytes.Buffer
	if err := Run("revisit", CSVWriter(&buf2), tinyConfig()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf2.String(), "# E6") {
		t.Fatalf("experiment did not render CSV:\n%s", buf2.String())
	}
}
