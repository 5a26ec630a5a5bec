// Package analysis is the repository's domain-aware static-analysis
// suite: a small analyzer framework on stdlib go/ast + go/types (the
// build environment has no module proxy, so golang.org/x/tools is
// deliberately not a dependency), plus three project-specific
// analyzers. Each one either has fixed a true finding in this tree or
// guards a hazard nothing else catches:
//
//   - infcost: the +Inf cost sentinel (graph.Inf, wdm.Inf, math.Inf) is
//     never compared or combined arithmetically outside blessed helpers.
//   - metricname: obs.Registry metric names, span names and span
//     attribute keys are compile-time constants in lower_snake form;
//     metric names are unique.
//   - errdrop: error returns of engine/facade/core public APIs are
//     never silently discarded.
//
// All three read production files only, and none needs control flow. The
// span lifecycle is not linted: the obs span API checks it at runtime
// (Tracer.Misuses). Lock order is not linted either: EXPERIMENTS.md X56
// tables what catches each lock hazard this tree can express.
//
// cmd/wdmlint is the driver; `make lint` runs it over the module.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Diagnostic is one analyzer finding at a source position.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

// String renders the diagnostic in the conventional
// file:line:col: analyzer: message form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Pass is everything an analyzer sees for one type-checked package.
type Pass struct {
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info

	analyzer string
	diags    *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.analyzer,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Analyzer is one named check. Run is called once per package; an
// analyzer that needs cross-package state (metricname's uniqueness)
// keeps it in the closure, so a fresh Suite must be built per lint run.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) error
}

// Suite builds fresh instances of every analyzer, in stable order.
// Instances hold per-run state and must not be shared across runs.
func Suite() []*Analyzer {
	return []*Analyzer{
		NewInfCost(),
		NewMetricName(),
		NewErrDrop(),
	}
}

// RunSuite runs every analyzer over every package and returns every
// finding, sorted by position. Packages must come from one Load* call so
// positions share a FileSet.
func RunSuite(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			pass := &Pass{
				Fset:     pkg.Fset,
				Files:    pkg.Files,
				Pkg:      pkg.Types,
				Info:     pkg.Info,
				analyzer: a.Name,
				diags:    &diags,
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
			}
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags, nil
}

// named reports whether t (after pointer indirection) is the named type
// pkgPath.name.
func named(t types.Type, pkgPath, name string) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == pkgPath && obj.Name() == name
}

// calleeFunc resolves the *types.Func a call invokes, or nil for
// builtins, conversions and indirect calls through function values.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fn
	case *ast.SelectorExpr:
		id = fn.Sel
	default:
		return nil
	}
	f, _ := info.Uses[id].(*types.Func)
	return f
}
