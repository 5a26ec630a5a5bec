package analysis

// The golden-fixture harness: each analyzer has a package under
// testdata/src/<name> whose lines carry `// want `+"`regexp`"+``
// expectations. The fixture is loaded against the real module packages
// (fixtures import the real engine/obs/graph types), the analyzer runs
// alone, and the diagnostics must match the expectations exactly — an
// unexpected finding fails the test just like a missing one, so every
// fixture proves both that the analyzer fires on violations and that it
// stays silent on correct code.

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

func moduleRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("no go.mod above test working directory")
		}
		dir = parent
	}
}

// want is one expected diagnostic.
type want struct {
	file string
	line int
	re   *regexp.Regexp
	hit  bool
}

var wantRx = regexp.MustCompile("// want ((?:`[^`]*`\\s*)+)")
var wantPartRx = regexp.MustCompile("`[^`]*`")

func parseWants(t *testing.T, dir string) []*want {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var wants []*want
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			m := wantRx.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			for _, part := range wantPartRx.FindAllString(m[1], -1) {
				re, err := regexp.Compile(strings.Trim(part, "`"))
				if err != nil {
					t.Fatalf("%s:%d: bad want regexp: %v", path, i+1, err)
				}
				wants = append(wants, &want{file: path, line: i + 1, re: re})
			}
		}
	}
	return wants
}

// fixtureMismatches runs one analyzer over the fixture in dir and
// returns every disagreement between its diagnostics and the // want
// expectations — unexpected findings and unmet expectations alike. An
// empty result means the fixture is green.
func fixtureMismatches(t *testing.T, dir, analyzerName string) []string {
	t.Helper()
	pkgs, err := LoadDir(moduleRoot(t), dir)
	if err != nil {
		t.Fatalf("load fixture: %v", err)
	}
	var analyzer *Analyzer
	for _, a := range Suite() {
		if a.Name == analyzerName {
			analyzer = a
		}
	}
	if analyzer == nil {
		t.Fatalf("no analyzer named %q in Suite()", analyzerName)
	}
	diags, err := RunSuite(pkgs, []*Analyzer{analyzer})
	if err != nil {
		t.Fatalf("run %s: %v", analyzerName, err)
	}
	wants := parseWants(t, dir)
	if len(wants) == 0 {
		t.Fatalf("fixture %s has no // want expectations", dir)
	}
	var mismatches []string
	for _, d := range diags {
		matched := false
		for _, w := range wants {
			if w.hit || !sameFile(w.file, d.Pos.Filename) || w.line != d.Pos.Line {
				continue
			}
			if w.re.MatchString(d.Message) {
				w.hit = true
				matched = true
				break
			}
		}
		if !matched {
			mismatches = append(mismatches, fmt.Sprintf("unexpected diagnostic: %s", d))
		}
	}
	for _, w := range wants {
		if !w.hit {
			mismatches = append(mismatches, fmt.Sprintf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.re))
		}
	}
	return mismatches
}

func runFixture(t *testing.T, analyzerName string) {
	t.Helper()
	for _, m := range fixtureMismatches(t, filepath.Join("testdata", "src", analyzerName), analyzerName) {
		t.Error(m)
	}
}

func sameFile(a, b string) bool {
	aa, err1 := filepath.Abs(a)
	bb, err2 := filepath.Abs(b)
	if err1 != nil || err2 != nil {
		return filepath.Base(a) == filepath.Base(b)
	}
	return aa == bb
}

func TestInfCostFixture(t *testing.T)    { runFixture(t, "infcost") }
func TestMetricNameFixture(t *testing.T) { runFixture(t, "metricname") }
func TestErrDropFixture(t *testing.T)    { runFixture(t, "errdrop") }

// TestFixtureHarnessCatchesDrift strips one // want expectation from
// every analyzer's fixture and proves the harness reports the now-
// unexpected diagnostic — the guard against fixtures rotting into
// no-ops when analyzer messages drift.
func TestFixtureHarnessCatchesDrift(t *testing.T) {
	for _, a := range Suite() {
		name := a.Name
		t.Run(name, func(t *testing.T) {
			src := filepath.Join("testdata", "src", name, "fixture.go")
			data, err := os.ReadFile(src)
			if err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(string(data), "\n")
			stripped := false
			for i, line := range lines {
				if idx := strings.Index(line, "// want"); idx >= 0 && !stripped {
					lines[i] = strings.TrimRight(line[:idx], " \t")
					stripped = true
				}
			}
			if !stripped {
				t.Fatalf("fixture %s has no // want line to strip", src)
			}
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, "fixture.go"), []byte(strings.Join(lines, "\n")), 0o666); err != nil {
				t.Fatal(err)
			}
			if got := fixtureMismatches(t, dir, name); len(got) == 0 {
				t.Errorf("stripping a want expectation from the %s fixture went undetected", name)
			}
		})
	}
}

// TestSuiteRoster pins the roster to the fixtures, both ways: every
// analyzer in Suite() is documented and has a fixture directory, and
// every fixture directory but the driver's broken one names an
// analyzer in Suite().
func TestSuiteRoster(t *testing.T) {
	inSuite := make(map[string]bool)
	for _, a := range Suite() {
		if a.Name == "" || a.Doc == "" || a.Run == nil {
			t.Fatalf("analyzer %+v missing name/doc/run", a)
		}
		inSuite[a.Name] = true
		if _, err := os.Stat(filepath.Join("testdata", "src", a.Name)); err != nil {
			t.Errorf("analyzer %s has no fixture directory: %v", a.Name, err)
		}
	}
	entries, err := os.ReadDir(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() && e.Name() != "broken" && !inSuite[e.Name()] {
			t.Errorf("fixture directory %s names no analyzer in Suite()", e.Name())
		}
	}
}

// TestLoadPatterns smoke-checks the go-list loader on a real package.
func TestLoadPatterns(t *testing.T) {
	pkgs, err := LoadPatterns(moduleRoot(t), "lightpath/internal/obs")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 || pkgs[0].Path != "lightpath/internal/obs" {
		t.Fatalf("LoadPatterns = %v, %v", pkgs, err)
	}
	if pkgs[0].Types == nil || len(pkgs[0].Files) == 0 {
		t.Fatal("package not type-checked")
	}
}
