// Command wdmlint runs the repository's domain-aware static analyzers
// (internal/analysis) over the module:
//
//	wdmlint ./...                 # lint packages by go-list pattern
//	wdmlint -dir path/to/fixture  # lint one directory of Go files
//	wdmlint -list                 # print the analyzer roster (sorted)
//	wdmlint -audit                # list //lint:ignore suppressions
//
// Exit status:
//
//	0  the tree is clean (or -list/-audit succeeded)
//	1  findings were reported, or -audit found a directive with an
//	   empty reason, an unknown analyzer, or more suppressions than
//	   -audit-max allows
//	2  operational error (bad patterns, type-check failure, I/O)
//
// Findings are suppressed with an inline directive carrying a written
// reason, which -audit inventories:
//
//	//lint:ignore <analyzer> <reason>
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"lightpath/internal/analysis"
)

func main() {
	var (
		dir      = flag.String("dir", "", "lint a single directory of Go files instead of package patterns")
		list     = flag.Bool("list", false, "list analyzers and exit")
		audit    = flag.Bool("audit", false, "list every //lint:ignore suppression; exit 1 on empty reasons")
		auditMax = flag.Int("audit-max", -1, "with -audit: fail when the tree carries more than this many suppressions (-1 = no limit)")
	)
	flag.Parse()

	suite := analysis.Suite()
	if *list {
		byName := append([]*analysis.Analyzer(nil), suite...)
		sort.Slice(byName, func(i, j int) bool { return byName[i].Name < byName[j].Name })
		for _, a := range byName {
			fmt.Printf("%-16s %s\n", a.Name, a.Doc)
		}
		return
	}
	if *audit {
		os.Exit(runAudit(suite, *auditMax))
	}

	var (
		pkgs []*analysis.Package
		err  error
	)
	if *dir != "" {
		root, rerr := moduleRoot()
		if rerr != nil {
			fatal(rerr)
		}
		pkgs, err = analysis.LoadDir(root, *dir)
	} else {
		patterns := flag.Args()
		if len(patterns) == 0 {
			patterns = []string{"./..."}
		}
		pkgs, err = analysis.LoadPatterns(".", patterns...)
	}
	if err != nil {
		fatal(err)
	}

	diags, err := analysis.RunSuite(pkgs, suite)
	if err != nil {
		fatal(err)
	}
	for _, d := range diags {
		fmt.Println(d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "wdmlint: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "wdmlint:", err)
	os.Exit(2)
}

// runAudit prints the suppression inventory and returns the exit code:
// 0 when every directive is justified and within budget, 1 otherwise.
func runAudit(suite []*analysis.Analyzer, max int) int {
	root, err := moduleRoot()
	if err != nil {
		fatal(err)
	}
	ignores, err := analysis.AuditTree(root)
	if err != nil {
		fatal(err)
	}
	known := map[string]bool{"wdmlint": true}
	for _, a := range suite {
		known[a.Name] = true
	}
	bad := 0
	for _, ig := range ignores {
		if problem := ig.Problem(known); problem != "" {
			fmt.Printf("%s:%d: %s: %s (AUDIT FAIL)\n", ig.File, ig.Line, ig.Analyzer, problem)
			bad++
			continue
		}
		fmt.Printf("%s:%d: %s: %s\n", ig.File, ig.Line, ig.Analyzer, ig.Reason)
	}
	fmt.Printf("wdmlint: %d suppression(s)\n", len(ignores))
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "wdmlint: %d unjustified suppression(s)\n", bad)
		return 1
	}
	if max >= 0 && len(ignores) > max {
		fmt.Fprintf(os.Stderr, "wdmlint: suppression count %d exceeds budget %d; remove one or raise the budget deliberately\n", len(ignores), max)
		return 1
	}
	return 0
}

// moduleRoot locates the enclosing go.mod directory, so -dir works from
// anywhere inside the module.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(dir + "/go.mod"); err == nil {
			return dir, nil
		}
		parent := dir[:strings.LastIndex(dir, "/")+1]
		if parent == "" || parent == dir {
			return "", fmt.Errorf("no go.mod above working directory")
		}
		dir = strings.TrimSuffix(parent, "/")
		if dir == "" {
			dir = "/"
		}
	}
}
