package analysis

// leasepair enforces the engine's ownership contract at its consumers:
// a lease acquired through Engine.Allocate/RouteAndAllocate or a circuit
// admitted through session.Manager.Admit must be released, stored, or
// returned — never silently dropped. A dropped lease pins wavelength channels for the
// life of the process, which in a benchmark or load generator skews
// every blocking-probability number measured after it.
//
// Scope is deliberately narrow: cmd/ binaries, internal/bench, fixture
// packages, and helper functions in _test.go files. Test bodies
// themselves (Test*/Benchmark*/Fuzz*/Example*) are exempt — tests
// routinely acquire leases precisely to assert on the held state and
// tear the whole engine down afterwards.
//
// The check is flow-insensitive within a function: an acquisition is
// discharged if its handle (the owner variable or constant) is
// mentioned by a release call anywhere in the function, stored,
// returned, or passed to another function (which then owns it — a
// helper that releases its argument is just a special case). Helper
// summaries add the opposite direction: a call whose callee *returns a
// fresh lease* (the mustAlloc pattern) counts as an acquisition at the
// call site, so discarding such a result is a finding too.

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strings"
)

const sessionPkgPath = "lightpath/internal/session"

// acquireKind says how a call mints a lease handle.
type acquireKind int

const (
	acqNone   acquireKind = iota
	acqOwner              // owner handle is argument 0 (engine APIs)
	acqResult             // handle is result 0 (Admit-style, mustAlloc helpers)
)

// engineAcquires maps Engine method names whose first argument is the
// owner handle being bound to channels.
var engineAcquires = map[string]bool{
	"Allocate":         true,
	"RouteAndAllocate": true,
}

// engineReleases maps Engine method names whose first argument is the
// owner handle being released.
var engineReleases = map[string]bool{
	"Release": true,
}

// sessionAcquires maps Manager methods returning a newly admitted
// circuit as result 0.
var sessionAcquires = map[string]bool{
	"Admit":          true,
	"AdmitPolicy":    true,
	"AdmitProtected": true,
}

// leaseSummary is the per-function ownership fact: returnsLease marks
// functions that acquire a lease and hand its handle back to the
// caller, making the call site an acquisition of its own.
type leaseSummary struct {
	returnsLease bool
}

type leasepair struct {
	sums *summaries[leaseSummary]
}

// NewLeasePair builds the leasepair analyzer.
func NewLeasePair() *Analyzer {
	a := &leasepair{sums: newSummaries(leaseSummary{})}
	return &Analyzer{
		Name:      "leasepair",
		Doc:       "engine leases and session circuits in cmd/, bench, and test helpers are released, stored, or returned",
		TestFiles: true,
		Run:       a.run,
	}
}

// inScopePkg reports whether findings apply to pkg at all.
func leaseScopePkg(path string) bool {
	return strings.HasPrefix(path, "lightpath/cmd/") ||
		path == "lightpath/internal/bench" ||
		strings.HasPrefix(path, "fixture/")
}

// testBodyName reports whether name is a test entry point (exempt).
func testBodyName(name string) bool {
	for _, prefix := range []string{"Test", "Benchmark", "Fuzz", "Example"} {
		if strings.HasPrefix(name, prefix) {
			return true
		}
	}
	return false
}

func (a *leasepair) run(pass *Pass) error {
	a.sums.index(pass)
	pkgInScope := leaseScopePkg(pass.Pkg.Path())
	for _, f := range pass.Files {
		inTest := pass.TestFile != nil && pass.TestFile(f)
		if !pkgInScope && !inTest {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if inTest && testBodyName(fd.Name.Name) {
				continue
			}
			a.checkFunc(pass, fd)
		}
	}
	return nil
}

// handleKey identifies a lease handle within one function: either a
// local variable or a constant owner value.
type handleKey struct {
	v     *types.Var
	konst string
}

type acquisition struct {
	pos  token.Pos
	what string // "lease (owner N)", "lease", "circuit"
}

// acquireAt classifies call as an acquisition and returns the handle
// expression plus a description. ReserveOwner alone is not an
// acquisition — minting an owner ID binds nothing.
func (a *leasepair) acquireAt(info *types.Info, call *ast.CallExpr) (acquireKind, ast.Expr, string) {
	f := calleeFunc(info, call)
	if f == nil || f.Pkg() == nil {
		return acqNone, nil, ""
	}
	sig := f.Type().(*types.Signature)
	if recv := sig.Recv(); recv != nil {
		switch {
		case f.Pkg().Path() == enginePath && named(recv.Type(), enginePath, "Engine"):
			if engineAcquires[f.Name()] && len(call.Args) > 0 {
				return acqOwner, call.Args[0], "lease"
			}
		case f.Pkg().Path() == sessionPkgPath && named(recv.Type(), sessionPkgPath, "Manager"):
			if sessionAcquires[f.Name()] {
				return acqResult, nil, "circuit"
			}
		}
		return acqNone, nil, ""
	}
	// Plain function whose summary says it returns a fresh lease
	// (mustAlloc-style helper).
	if a.sums.of(f, a.summarize).returnsLease {
		return acqResult, nil, "lease"
	}
	return acqNone, nil, ""
}

// releaseCall reports whether call is an engine/session release and
// returns the owner argument.
func releaseCall(info *types.Info, call *ast.CallExpr) (ast.Expr, bool) {
	f := calleeFunc(info, call)
	if f == nil || f.Pkg() == nil {
		return nil, false
	}
	sig := f.Type().(*types.Signature)
	recv := sig.Recv()
	if recv == nil || len(call.Args) == 0 {
		return nil, false
	}
	if f.Pkg().Path() == enginePath && named(recv.Type(), enginePath, "Engine") && engineReleases[f.Name()] {
		return call.Args[0], true
	}
	if f.Pkg().Path() == sessionPkgPath && named(recv.Type(), sessionPkgPath, "Manager") && f.Name() == "Release" {
		return call.Args[0], true
	}
	return nil, false
}

// keyOf resolves a handle expression to a comparable key: a local
// variable identity, or the exact constant value.
func keyOf(info *types.Info, e ast.Expr) (handleKey, bool) {
	e = ast.Unparen(e)
	if tv, ok := info.Types[e]; ok && tv.Value != nil {
		return handleKey{konst: tv.Value.ExactString()}, true
	}
	if v := exprVar(info, e); v != nil {
		return handleKey{v: v}, true
	}
	return handleKey{}, false
}

func (a *leasepair) checkFunc(pass *Pass, fd *ast.FuncDecl) {
	acquired := make(map[handleKey]*acquisition)
	var order []handleKey
	discharged := make(map[handleKey]bool)

	// varsIn collects every local-variable handle key mentioned inside
	// an expression — `m.Release(c.ID)` discharges c.
	varsIn := func(e ast.Expr, mark func(handleKey)) {
		ast.Inspect(e, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if v, _ := pass.Info.Uses[id].(*types.Var); v != nil {
					mark(handleKey{v: v})
				}
			}
			return true
		})
	}

	acquireHandles := func(call *ast.CallExpr, kind acquireKind, ownerArg ast.Expr, what string, lhs []ast.Expr) {
		switch kind {
		case acqOwner:
			key, ok := keyOf(pass.Info, ownerArg)
			if !ok {
				return // computed owner expression: give up silently
			}
			if key.konst != "" {
				what = "lease (owner " + formatOwner(pass.Info, ownerArg) + ")"
			}
			if acquired[key] == nil {
				acquired[key] = &acquisition{pos: call.Pos(), what: what}
				order = append(order, key)
			}
		case acqResult:
			if len(lhs) == 0 {
				pass.Reportf(call.Pos(), "%s returned here is discarded; release, store, or return it, or annotate with //lint:ignore leasepair <reason>", what)
				return
			}
			if id, ok := ast.Unparen(lhs[0]).(*ast.Ident); ok && id.Name == "_" {
				pass.Reportf(call.Pos(), "%s returned here is discarded; release, store, or return it, or annotate with //lint:ignore leasepair <reason>", what)
				return
			}
			if v := exprVar(pass.Info, lhs[0]); v != nil {
				key := handleKey{v: v}
				if acquired[key] == nil {
					acquired[key] = &acquisition{pos: call.Pos(), what: what}
					order = append(order, key)
				}
			}
		}
	}

	// Pass 1: find acquisitions (with their assignment context) and
	// releases; record which handles are discharged.
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, rhs := range n.Rhs {
				if call, ok := ast.Unparen(rhs).(*ast.CallExpr); ok {
					if kind, ownerArg, what := a.acquireAt(pass.Info, call); kind != acqNone {
						lhs := n.Lhs
						if len(n.Rhs) != 1 {
							lhs = nil
						}
						acquireHandles(call, kind, ownerArg, what, lhs)
					}
				}
			}
		case *ast.ExprStmt:
			if call, ok := ast.Unparen(n.X).(*ast.CallExpr); ok {
				if kind, ownerArg, what := a.acquireAt(pass.Info, call); kind != acqNone {
					acquireHandles(call, kind, ownerArg, what, nil)
				}
			}
		case *ast.CallExpr:
			if ownerArg, ok := releaseCall(pass.Info, n); ok {
				if key, ok := keyOf(pass.Info, ownerArg); ok && key.konst != "" {
					discharged[key] = true
				}
				varsIn(ownerArg, func(k handleKey) { discharged[k] = true })
			}
		}
		return true
	})

	if len(acquired) == 0 {
		return
	}

	// Pass 2: discharge handles that are stored, returned, or handed to
	// other functions. Any mention of the handle variable outside its
	// own acquisition call and outside release calls counts — except
	// pure comparisons and inc/dec, which are bookkeeping, not escapes.
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ReturnStmt:
			for _, res := range n.Results {
				varsIn(res, func(k handleKey) { discharged[k] = true })
			}
		case *ast.CallExpr:
			if _, isRelease := releaseCall(pass.Info, n); isRelease {
				return true
			}
			if kind, _, _ := a.acquireAt(pass.Info, n); kind != acqNone {
				// The acquisition itself doesn't discharge its own
				// handle, but scan non-owner arguments.
				for i, arg := range n.Args {
					if i == 0 && kind == acqOwner {
						continue
					}
					varsIn(arg, func(k handleKey) { discharged[k] = true })
				}
				return true
			}
			// Any other call escapes the handle to the callee, which
			// then owns it (releasing helpers are the common case).
			for _, arg := range n.Args {
				varsIn(arg, func(k handleKey) { discharged[k] = true })
			}
		case *ast.AssignStmt:
			// Handle stored somewhere (append target, struct field,
			// map entry) — the RHS mention discharges it, unless the
			// RHS is the acquisition call itself (handled above).
			for _, rhs := range n.Rhs {
				if call, ok := ast.Unparen(rhs).(*ast.CallExpr); ok {
					if kind, _, _ := a.acquireAt(pass.Info, call); kind != acqNone {
						continue
					}
				}
				varsIn(rhs, func(k handleKey) { discharged[k] = true })
			}
		case *ast.CompositeLit:
			for _, elt := range n.Elts {
				varsIn(elt, func(k handleKey) { discharged[k] = true })
			}
		case *ast.SendStmt:
			varsIn(n.Value, func(k handleKey) { discharged[k] = true })
		case *ast.BinaryExpr, *ast.IncDecStmt:
			// Comparisons and counter stepping are not escapes.
			return false
		}
		return true
	})

	for _, key := range order {
		if discharged[key] {
			continue
		}
		acq := acquired[key]
		pass.Reportf(acq.pos, "%s acquired here is never released, stored, or returned; pair it with Release or annotate with //lint:ignore leasepair <reason>", acq.what)
	}
}

func formatOwner(info *types.Info, e ast.Expr) string {
	if tv, ok := info.Types[ast.Unparen(e)]; ok && tv.Value != nil && tv.Value.Kind() == constant.Int {
		return tv.Value.ExactString()
	}
	return "?"
}

// summarize computes the ownership fact for a helper function.
func (a *leasepair) summarize(fb funcBody) leaseSummary {
	var sum leaseSummary

	// Fresh handles acquired inside the body.
	fresh := make(map[*types.Var]bool)
	ast.Inspect(fb.decl.Body, func(n ast.Node) bool {
		asg, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for _, rhs := range asg.Rhs {
			call, ok := ast.Unparen(rhs).(*ast.CallExpr)
			if !ok {
				continue
			}
			kind, ownerArg, _ := a.acquireAt(fb.info, call)
			switch kind {
			case acqOwner:
				if v := exprVar(fb.info, ownerArg); v != nil {
					fresh[v] = true
				}
			case acqResult:
				if len(asg.Rhs) == 1 && len(asg.Lhs) > 0 {
					if v := exprVar(fb.info, asg.Lhs[0]); v != nil {
						fresh[v] = true
					}
				}
			}
		}
		return true
	})

	// Does any return statement hand a fresh handle (or a parameter the
	// function bound with an acquire) back to the caller?
	ast.Inspect(fb.decl.Body, func(n ast.Node) bool {
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return true
		}
		for _, res := range ret.Results {
			ast.Inspect(res, func(m ast.Node) bool {
				if id, ok := m.(*ast.Ident); ok {
					if v, _ := fb.info.Uses[id].(*types.Var); v != nil && fresh[v] {
						sum.returnsLease = true
					}
				}
				return true
			})
		}
		return true
	})
	return sum
}
