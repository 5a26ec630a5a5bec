package analysis

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/types"
	"regexp"
	"strconv"
)

const obsPath = "lightpath/internal/obs"

// metricCtors are the obs.Registry methods whose first argument names a
// metric.
var metricCtors = map[string]bool{
	"Counter":   true,
	"Gauge":     true,
	"GaugeFunc": true,
	"Histogram": true,
}

// attrSetters are the obs.Span methods whose first argument is an
// attribute key: compile-time lower_snake constants, duplicates allowed
// (the same key legitimately appears on many spans).
var attrSetters = map[string]bool{
	"SetInt":   true,
	"SetStr":   true,
	"SetBool":  true,
	"SetFloat": true,
}

var lowerSnake = regexp.MustCompile(`^[a-z][a-z0-9]*(_[a-z0-9]+)*$`)

// NewMetricName builds the metricname analyzer.
//
// Registry names are the public contract of the telemetry layer: they
// appear verbatim in /metrics JSON, /metrics.prom and the wdmserve stats verb.
// The analyzer requires every name passed to Registry.Counter / Gauge /
// GaugeFunc / Histogram to be a compile-time string constant (so the
// full metric namespace is greppable and knowable without running the
// code) in lower_snake form, and unique across the run: get-or-create
// makes a colliding registration silently share (or, for GaugeFunc,
// replace) another metric instead of failing.
//
// The same contract extends to the span-tracing layer: names passed to
// Tracer.Start / obs.StartTrace / Span.StartChild and attribute keys
// passed to Span.SetInt / SetStr / SetBool / SetFloat are the wire
// vocabulary of the flight recorder (tracejson replies, /debug/requests JSON), so
// they must also be lower_snake compile-time constants. Span names must
// additionally resolve to one shared constant declaration per name —
// two string literals (or two distinct constants) spelling the same
// span name would fork its definition — while attribute keys may repeat
// freely across spans.
//
// Cross-package uniqueness needs cross-package state, so the analyzer
// instance accumulates registrations; build a fresh Suite per run.
func NewMetricName() *Analyzer {
	seen := make(map[string]string) // metric name -> "file:line" of first registration
	type spanDecl struct {
		ident string // const identity ("pkg.ConstName"), or "" for a literal
		at    string // "file:line" of first use
	}
	spans := make(map[string]spanDecl) // span name -> first declaring use
	a := &Analyzer{
		Name: "metricname",
		Doc:  "requires unique lower_snake compile-time metric, span and attribute names in obs registrations",
	}
	a.Run = func(pass *Pass) error {
		for _, f := range pass.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok || len(call.Args) == 0 {
					return true
				}
				fn := calleeFunc(pass.Info, call)
				if fn == nil {
					return true
				}
				switch {
				case metricCtors[fn.Name()] && recvNamed(fn, obsPath, "Registry"):
					arg := call.Args[0]
					name, ok := constName(pass, arg, "metric name")
					if !ok {
						return true
					}
					pos := pass.Fset.Position(arg.Pos())
					at := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
					if first, dup := seen[name]; dup && first != at {
						pass.Reportf(arg.Pos(), "metric name %s already registered at %s; names must be unique", strconv.Quote(name), first)
						return true
					}
					seen[name] = at
				case fn.Name() == "Start" && recvNamed(fn, obsPath, "Tracer"),
					fn.Name() == "StartChild" && recvNamed(fn, obsPath, "Span"),
					fn.Name() == "StartTrace" && fn.Pkg() != nil && fn.Pkg().Path() == obsPath:
					arg := call.Args[0]
					name, ok := constName(pass, arg, "span name")
					if !ok {
						return true
					}
					ident := constIdent(pass, arg)
					pos := pass.Fset.Position(arg.Pos())
					at := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
					if first, dup := spans[name]; dup {
						if first.ident == "" || first.ident != ident {
							pass.Reportf(arg.Pos(), "span name %s already declared at %s; share one named constant", strconv.Quote(name), first.at)
						}
						return true
					}
					spans[name] = spanDecl{ident: ident, at: at}
				case attrSetters[fn.Name()] && recvNamed(fn, obsPath, "Span"):
					_, _ = constName(pass, call.Args[0], "span attribute key")
				}
				return true
			})
		}
		return nil
	}
	return a
}

// recvNamed reports whether fn is a method on pkgPath.name (after
// pointer indirection).
func recvNamed(fn *types.Func, pkgPath, name string) bool {
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() != nil && named(sig.Recv().Type(), pkgPath, name)
}

// constName requires arg to be a compile-time lower_snake string
// constant, reporting against the given role on violation. It returns
// the constant's value and whether both checks passed.
func constName(pass *Pass, arg ast.Expr, role string) (string, bool) {
	tv, ok := pass.Info.Types[arg]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		pass.Reportf(arg.Pos(), "%s must be a compile-time string constant", role)
		return "", false
	}
	name := constant.StringVal(tv.Value)
	if !lowerSnake.MatchString(name) {
		pass.Reportf(arg.Pos(), "%s %q is not lower_snake (want %s)", role, name, lowerSnake)
		return "", false
	}
	return name, true
}

// constIdent resolves the package-qualified name of the declared
// constant arg refers to ("pkg/path.ConstName"), or "" when arg is a
// literal or any other expression without a single declaring object.
func constIdent(pass *Pass, arg ast.Expr) string {
	var id *ast.Ident
	switch e := ast.Unparen(arg).(type) {
	case *ast.Ident:
		id = e
	case *ast.SelectorExpr:
		id = e.Sel
	default:
		return ""
	}
	c, ok := pass.Info.Uses[id].(*types.Const)
	if !ok || c.Pkg() == nil {
		return ""
	}
	return c.Pkg().Path() + "." + c.Name()
}
