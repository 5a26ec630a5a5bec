package analysis

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// TestAuditTree scans a synthetic tree: real directives are inventoried
// in file/line order, directive-shaped text inside string literals is
// not, and testdata subtrees are skipped. Against the live roster, a
// directive naming a retired analyzer (snapshotescape, lockorder) is as
// unknown as a made-up one, even with a written reason.
func TestAuditTree(t *testing.T) {
	root := t.TempDir()
	write := func(rel, content string) {
		t.Helper()
		path := filepath.Join(root, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o777); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o666); err != nil {
			t.Fatal(err)
		}
	}
	write("a.go", `package p

func f() {
	//lint:ignore infcost the comparison is the sentinel test itself
	_ = 1
}

const msg = "annotate with //lint:ignore infcost <reason>"
`)
	write("sub/b.go", `package q

//lint:ignore errdrop
var x = 1

//lint:ignore nosuch because reasons
var y = 2

//lint:ignore snapshotescape x
var v = 5

//lint:ignore lockorder the registry runs callbacks after it unlocks
var u = 6
`)
	write("sub/b_test.go", `package q

//lint:ignore metricname test registers one name twice deliberately
var z = 3
`)
	write("testdata/skip.go", `package skipped

//lint:ignore infcost should not be inventoried
var w = 4
`)

	ignores, err := AuditTree(root)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]string, len(ignores))
	for i, ig := range ignores {
		got[i] = ig.File + ":" + ig.Analyzer
	}
	want := []string{
		"a.go:infcost",
		filepath.Join("sub", "b.go") + ":errdrop",
		filepath.Join("sub", "b.go") + ":nosuch",
		filepath.Join("sub", "b.go") + ":snapshotescape",
		filepath.Join("sub", "b.go") + ":lockorder",
		filepath.Join("sub", "b_test.go") + ":metricname",
	}
	if len(got) != len(want) {
		t.Fatalf("AuditTree = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("ignore[%d] = %q, want %q", i, got[i], want[i])
		}
	}

	known := make(map[string]bool)
	for _, a := range Suite() {
		known[a.Name] = true
	}
	problems := 0
	for _, ig := range ignores {
		if p := ig.Problem(known); p != "" {
			problems++
			switch ig.Analyzer {
			case "errdrop": // empty reason
			case "nosuch", "snapshotescape", "lockorder": // unknown; the last two are retired
				if want := fmt.Sprintf("unknown analyzer %q", ig.Analyzer); p != want {
					t.Errorf("%s: problem %q, want %q", ig.Analyzer, p, want)
				}
			default:
				t.Errorf("unexpected problem on %s: %s", ig.Analyzer, p)
			}
		}
	}
	if problems != 4 {
		t.Errorf("%d problem directives, want 4 (empty reason + three unknown analyzers)", problems)
	}
}

// TestAuditTreeRealModule pins the real tree's suppressions to the
// audited set: every directive has a known analyzer and a reason.
func TestAuditTreeRealModule(t *testing.T) {
	ignores, err := AuditTree(moduleRoot(t))
	if err != nil {
		t.Fatal(err)
	}
	known := make(map[string]bool)
	for _, a := range Suite() {
		known[a.Name] = true
	}
	for _, ig := range ignores {
		if p := ig.Problem(known); p != "" {
			t.Errorf("%s:%d: %s", ig.File, ig.Line, p)
		}
	}
}
