package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestBenchList(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-list"}, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, want := range []string{"example", "compare", "k-independence", "distributed"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("list missing %q:\n%s", want, out.String())
		}
	}
	listed := strings.Fields(out.String())
	// The generators behind these names are gone: -list must not offer
	// them and -experiment must refuse them.
	for _, retired := range []string{"engine", "obs", "churn", "goal"} {
		t.Run("retired/"+retired, func(t *testing.T) {
			for _, name := range listed {
				if name == retired {
					t.Fatalf("-list still offers %q", retired)
				}
			}
			if err := run([]string{"-experiment", retired}, &bytes.Buffer{}); err == nil {
				t.Fatalf("-experiment %s must fail", retired)
			}
		})
	}
}

func TestBenchSingleExperiment(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-experiment", "example", "-scale", "0.05", "-reps", "1"}, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(out.String(), "Fig. 2 wavelength shores") {
		t.Fatalf("example experiment output wrong:\n%s", out.String())
	}
}

func TestBenchErrors(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-experiment", "warp"}, &out); err == nil {
		t.Fatal("unknown experiment must fail")
	}
	if err := run([]string{"-scale", "-2"}, &out); err == nil {
		t.Fatal("negative scale must fail")
	}
	// -list makes a retired flag that parses again fail here at once
	// rather than after a full-scale run.
	for _, bad := range []string{"-zzz", "-engine-json", "-obs-json", "-churn-json", "-goal-json"} {
		t.Run(bad, func(t *testing.T) {
			if err := run([]string{bad, "x", "-list"}, &bytes.Buffer{}); err == nil {
				t.Fatalf("bad flag %s must fail", bad)
			}
		})
	}
}

func TestBenchRevisitExperiment(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-experiment", "revisit", "-scale", "0.05", "-reps", "1"}, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	s := out.String()
	if !strings.Contains(s, "Fig. 5 scenario") || !strings.Contains(s, "loop-freedom") {
		t.Fatalf("revisit output wrong:\n%s", s)
	}
}

func TestBenchCSVFormat(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-experiment", "revisit", "-scale", "0.05", "-reps", "1", "-format", "csv"}, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(out.String(), "# E6") {
		t.Fatalf("csv output wrong:\n%s", out.String())
	}
	if err := run([]string{"-format", "warp"}, &out); err == nil {
		t.Fatal("unknown format must fail")
	}
}
