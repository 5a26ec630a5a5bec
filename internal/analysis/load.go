package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one type-checked package ready for analysis: its
// production files, without _test.go files.
type Package struct {
	Path  string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// listPkg is the subset of `go list -json` output the loader needs.
type listPkg struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	CgoFiles   []string
	Standard   bool
	DepOnly    bool
	Export     string
	Error      *struct{ Err string }
}

// goList runs `go list -export -deps -json` in dir over the given
// patterns and returns the decoded package records. -export compiles
// (or reuses from the build cache) export data for every package, which
// is what lets the type checker resolve imports with no network and no
// GOPATH install tree.
func goList(dir string, patterns []string) ([]*listPkg, error) {
	args := append([]string{"list", "-e", "-export", "-deps", "-json"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go list: %w\n%s", err, stderr.String())
	}
	var pkgs []*listPkg
	dec := json.NewDecoder(&stdout)
	for {
		p := new(listPkg)
		if err := dec.Decode(p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list: decode: %w", err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// exportImporter resolves imports from compiler export-data files
// produced by `go list -export`.
type exportImporter struct {
	exports map[string]string // import path -> export file
	under   types.ImporterFrom
}

func newExportImporter(fset *token.FileSet, exports map[string]string) *exportImporter {
	imp := &exportImporter{exports: exports}
	lookup := func(path string) (io.ReadCloser, error) {
		file, ok := imp.exports[path]
		if !ok || file == "" {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	}
	imp.under = importer.ForCompiler(fset, "gc", lookup).(types.ImporterFrom)
	return imp
}

func (imp *exportImporter) Import(path string) (*types.Package, error) {
	return imp.ImportFrom(path, "", 0)
}

func (imp *exportImporter) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	return imp.under.ImportFrom(path, dir, mode)
}

// LoadPatterns loads and type-checks the Go packages matched by the
// given `go list` patterns (e.g. "./..."), rooted at dir. Only
// production files are loaded; test files and external test packages
// (package foo_test) are not. Packages come back in `go list -deps`
// order, every package after the packages it imports.
func LoadPatterns(dir string, patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	listed, err := goList(dir, patterns)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	exports := make(map[string]string)
	var targets []*listPkg
	for _, lp := range listed {
		if lp.Error != nil && !lp.DepOnly {
			return nil, fmt.Errorf("load %s: %s", lp.ImportPath, lp.Error.Err)
		}
		if lp.Export != "" {
			exports[lp.ImportPath] = lp.Export
		}
		if !lp.DepOnly && !lp.Standard {
			targets = append(targets, lp)
		}
	}

	imp := newExportImporter(fset, exports)
	var pkgs []*Package
	for _, lp := range targets {
		if len(lp.CgoFiles) > 0 {
			return nil, fmt.Errorf("load %s: cgo packages are not supported", lp.ImportPath)
		}
		var files []string
		for _, f := range lp.GoFiles {
			files = append(files, filepath.Join(lp.Dir, f))
		}
		pkg, err := typeCheck(fset, imp, lp.ImportPath, files)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// LoadDir loads one directory of Go files as a single package — the
// fixture path: testdata directories are invisible to `go list`
// patterns, but their imports (standard library or module-internal) are
// still resolved through export data, so fixtures may import the real
// engine/obs/graph packages and be checked against the real types.
// moduleRoot anchors the `go list` call that resolves those imports.
func LoadDir(moduleRoot, dir string) ([]*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		files = append(files, filepath.Join(dir, name))
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("load %s: no Go files", dir)
	}
	sort.Strings(files)

	// Pre-parse to discover imports, then resolve them all (plus their
	// transitive dependencies) in one `go list -export` call.
	fset := token.NewFileSet()
	var parsed []*ast.File
	importSet := make(map[string]bool)
	for _, f := range files {
		af, err := parser.ParseFile(fset, f, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		parsed = append(parsed, af)
		for _, spec := range af.Imports {
			path := strings.Trim(spec.Path.Value, `"`)
			if path != "unsafe" {
				importSet[path] = true
			}
		}
	}
	exports := make(map[string]string)
	if len(importSet) > 0 {
		var imports []string
		for p := range importSet {
			imports = append(imports, p)
		}
		sort.Strings(imports)
		listed, err := goList(moduleRoot, imports)
		if err != nil {
			return nil, err
		}
		for _, lp := range listed {
			if lp.Error != nil {
				return nil, fmt.Errorf("load %s: dependency %s: %s", dir, lp.ImportPath, lp.Error.Err)
			}
			if lp.Export != "" {
				exports[lp.ImportPath] = lp.Export
			}
		}
	}
	imp := newExportImporter(fset, exports)
	pkg, err := typeCheckParsed(fset, imp, "fixture/"+filepath.Base(dir), parsed)
	if err != nil {
		return nil, err
	}
	return []*Package{pkg}, nil
}

func typeCheck(fset *token.FileSet, imp types.ImporterFrom, path string, filenames []string) (*Package, error) {
	var files []*ast.File
	for _, f := range filenames {
		af, err := parser.ParseFile(fset, f, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, af)
	}
	return typeCheckParsed(fset, imp, path, files)
}

func typeCheckParsed(fset *token.FileSet, imp types.ImporterFrom, path string, files []*ast.File) (*Package, error) {
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	var typeErrs []error
	conf := types.Config{
		Importer: imp,
		Error:    func(err error) { typeErrs = append(typeErrs, err) },
	}
	tpkg, _ := conf.Check(path, fset, files, info)
	if len(typeErrs) > 0 {
		var sb strings.Builder
		for i, e := range typeErrs {
			if i > 0 {
				sb.WriteString("\n")
			}
			sb.WriteString(e.Error())
		}
		return nil, fmt.Errorf("typecheck %s:\n%s", path, sb.String())
	}
	return &Package{
		Path:  path,
		Fset:  fset,
		Files: files,
		Types: tpkg,
		Info:  info,
	}, nil
}
