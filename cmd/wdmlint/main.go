// Command wdmlint runs the repository's domain-aware static analyzers
// (internal/analysis) over the module:
//
//	wdmlint ./...                 # lint packages by go-list pattern
//	wdmlint -dir path/to/fixture  # lint one directory of Go files
//	wdmlint -list                 # print the analyzer roster (sorted)
//
// Exit status:
//
//	0  the tree is clean (or -list succeeded)
//	1  findings were reported
//	2  operational error (bad patterns, type-check failure, I/O)
//
// There is no suppression directive: a finding is fixed, not annotated.
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
		dir  = flag.String("dir", "", "lint a single directory of Go files instead of package patterns")
		list = flag.Bool("list", false, "list analyzers and exit")
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
