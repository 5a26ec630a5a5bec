package analysis

import (
	"go/ast"
	"go/types"
)

const (
	enginePath = "lightpath/internal/engine"
	facadePath = "lightpath"
	corePath   = "lightpath/internal/core"
)

// errdropPaths are the packages whose public APIs must not have their
// errors discarded: their errors are load-bearing (ErrConflict drives
// the engine's optimistic retry loop, ErrBlocked is the facade's
// admission verdict, core.ErrNoRoute is the paper's blocking outcome).
var errdropPaths = map[string]bool{
	enginePath: true,
	facadePath: true,
	corePath:   true,
}

// NewErrDrop builds the errdrop analyzer.
//
// It flags calls to exported engine/facade/core functions and methods
// whose final result is an error when that error is discarded:
//
//   - the call stands alone as an expression statement (including
//     behind go/defer), or
//   - every error-typed result lands in the blank identifier.
//
// Explicit `_ =` discards are flagged too — in these packages a
// swallowed error always deserves handling. There is no suppression
// directive: a finding is fixed, not annotated.
func NewErrDrop() *Analyzer {
	a := &Analyzer{
		Name: "errdrop",
		Doc:  "flags discarded error results of engine/facade/core public APIs",
	}
	a.Run = func(pass *Pass) error {
		for _, f := range pass.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.ExprStmt:
					reportDroppedCall(pass, n.X)
				case *ast.GoStmt:
					reportDroppedCall(pass, n.Call)
				case *ast.DeferStmt:
					reportDroppedCall(pass, n.Call)
				case *ast.AssignStmt:
					checkBlankAssign(pass, n)
				}
				return true
			})
		}
		return nil
	}
	return a
}

// watchedErrorCall returns the qualified name of the watched API f
// invokes, if call's last result is an error from an exported
// engine/facade/core function.
func watchedErrorCall(pass *Pass, e ast.Expr) (string, bool) {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return "", false
	}
	f := calleeFunc(pass.Info, call)
	if f == nil || !f.Exported() || f.Pkg() == nil || !errdropPaths[f.Pkg().Path()] {
		return "", false
	}
	sig, ok := f.Type().(*types.Signature)
	if !ok || sig.Results().Len() == 0 {
		return "", false
	}
	last := sig.Results().At(sig.Results().Len() - 1)
	if !isErrorType(last.Type()) {
		return "", false
	}
	name := f.Name()
	if sig.Recv() != nil {
		t := sig.Recv().Type()
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		if n, ok := t.(*types.Named); ok {
			name = n.Obj().Name() + "." + name
		}
	}
	return name, true
}

func isErrorType(t types.Type) bool {
	return types.Identical(t, types.Universe.Lookup("error").Type())
}

func reportDroppedCall(pass *Pass, e ast.Expr) {
	if name, ok := watchedErrorCall(pass, e); ok {
		pass.Reportf(e.Pos(), "error result of %s is discarded; handle it", name)
	}
}

// checkBlankAssign flags `_ = f()` / `x, _ := f()` shapes where every
// error-typed result of a watched call goes to blank.
func checkBlankAssign(pass *Pass, as *ast.AssignStmt) {
	// Only the single-call form can discard an error result: with
	// len(Rhs) == len(Lhs) each RHS has one value.
	if len(as.Rhs) == 1 && len(as.Lhs) > len(as.Rhs) {
		name, ok := watchedErrorCall(pass, as.Rhs[0])
		if !ok {
			return
		}
		call := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
		f := calleeFunc(pass.Info, call)
		sig := f.Type().(*types.Signature)
		if sig.Results().Len() != len(as.Lhs) {
			return
		}
		errToBlank := true
		for i := 0; i < sig.Results().Len(); i++ {
			if !isErrorType(sig.Results().At(i).Type()) {
				continue
			}
			if id, isIdent := as.Lhs[i].(*ast.Ident); !isIdent || id.Name != "_" {
				errToBlank = false
			}
		}
		if errToBlank {
			pass.Reportf(as.Rhs[0].Pos(), "error result of %s is assigned to _; handle it", name)
		}
		return
	}
	if len(as.Rhs) == len(as.Lhs) {
		for i, rhs := range as.Rhs {
			if id, isIdent := as.Lhs[i].(*ast.Ident); isIdent && id.Name == "_" {
				if name, ok := watchedErrorCall(pass, rhs); ok {
					pass.Reportf(rhs.Pos(), "error result of %s is assigned to _; handle it", name)
				}
			}
		}
	}
}
