package analysis

// spanfinish enforces the flight-recorder lifecycle from internal/obs:
// every *obs.ReqTrace obtained from Tracer.Start is passed to Finish or
// FinishRecentOnly on every path (explicitly or by defer), every
// *obs.Span from StartChild is End-ed on every path, neither is
// finished twice, and neither is mutated after its finish. Finishing
// pushes the trace into the recorder rings, so a double Finish
// duplicates ring entries and a mutation after Finish corrupts a
// published trace — both silently skew the telemetry the benchmarks
// read back.
//
// The check is a forward dataflow over the CFG with a small status set
// per tracked variable: unfinished, deferred-finish, finished, nil,
// escaped. Nil-comparison edges refine the state (Finish(nil) is a
// no-op, so a trace proven nil owes nothing); returning, storing, or
// passing a trace to an unknown function escapes it, transferring the
// obligation to the receiver. Helper functions are made transparent by
// per-parameter summaries: a helper that finishes its argument on all
// paths discharges the caller's obligation exactly like a direct call.

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
)

// traceFinishers are the obs.Tracer methods that finish the trace
// passed as their argument 0.
var traceFinishers = map[string]bool{
	"Finish":           true,
	"FinishRecentOnly": true,
}

// span status bits.
const (
	stUnfinished uint8 = 1 << iota
	stDeferred
	stFinished
	stNil
	stEscaped
)

type spanState map[*types.Var]uint8

func (s spanState) clone() spanState {
	c := make(spanState, len(s))
	for k, v := range s {
		c[k] = v
	}
	return c
}

// spanFact summarizes what a function does to one tracked parameter.
type spanFact uint8

const (
	spanFactUnknown  spanFact = iota // escape at the call site
	spanFactNone                     // parameter untouched: caller keeps obligation
	spanFactFinishes                 // finished on every path: discharges the caller
)

type spanSummary struct{ params []spanFact }

// span operation kinds recognized on the obs API.
type spanOp int

const (
	opNone spanOp = iota
	opStart
	opChild
	opFinish
	opEnd
	opMutate
	opRoot
)

type spanObligation struct {
	pos   token.Pos
	kind  string // "trace" or "span"
	name  string // the span-name literal when constant
	verbs [2]string
}

var traceVerbs = [2]string{"finished", "Finish"}
var spanVerbs = [2]string{"ended", "End"}

type spanfinish struct {
	sums *summaries[spanSummary]
}

// NewSpanFinish builds the spanfinish analyzer.
func NewSpanFinish() *Analyzer {
	a := &spanfinish{sums: newSummaries(spanSummary{})}
	return &Analyzer{
		Name:      "spanfinish",
		Doc:       "obs traces/spans are finished on every path, exactly once, and never mutated after",
		TestFiles: true,
		Run:       a.run,
	}
}

func (a *spanfinish) run(pass *Pass) error {
	if pass.Pkg.Path() == obsPath {
		return nil // the implementation manipulates its own lifecycle
	}
	a.sums.index(pass)
	funcDecls(pass, func(fd *ast.FuncDecl, fn *types.Func) {
		a.checkBody(pass.Info, fd.Body, pass.Reportf)
		for _, lit := range funcLits(fd.Body) {
			a.checkBody(pass.Info, lit.Body, pass.Reportf)
		}
	})
	return nil
}

// funcLits collects every function literal nested anywhere under body.
func funcLits(body *ast.BlockStmt) []*ast.FuncLit {
	var lits []*ast.FuncLit
	ast.Inspect(body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			lits = append(lits, lit)
		}
		return true
	})
	return lits
}

func isTrackedSpanType(t types.Type) bool {
	if t == nil {
		return false
	}
	return named(t, obsPath, "ReqTrace") || named(t, obsPath, "Span")
}

func spanKindOf(t types.Type) (kind string, verbs [2]string) {
	if named(t, obsPath, "ReqTrace") {
		return "trace", traceVerbs
	}
	return "span", spanVerbs
}

// classify resolves call against the obs API. target is the expression
// holding the trace/span the operation acts on (argument 0 for Finish,
// the receiver chain otherwise).
func classify(info *types.Info, call *ast.CallExpr) (spanOp, ast.Expr) {
	f := calleeFunc(info, call)
	if f == nil || f.Pkg() == nil || f.Pkg().Path() != obsPath {
		return opNone, nil
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return opNone, nil
	}
	sig := f.Type().(*types.Signature)
	if sig.Recv() == nil {
		return opNone, nil
	}
	switch {
	case named(sig.Recv().Type(), obsPath, "Tracer"):
		switch {
		case f.Name() == "Start":
			return opStart, nil
		case traceFinishers[f.Name()] && len(call.Args) > 0:
			return opFinish, call.Args[0]
		}
	case named(sig.Recv().Type(), obsPath, "ReqTrace"):
		if f.Name() == "Root" {
			return opRoot, sel.X
		}
	case named(sig.Recv().Type(), obsPath, "Span"):
		switch {
		case f.Name() == "StartChild":
			return opChild, sel.X
		case f.Name() == "End":
			return opEnd, sel.X
		case attrSetters[f.Name()]:
			return opMutate, sel.X
		}
	}
	return opNone, nil
}

// baseVar resolves an expression to the tracked local variable it
// denotes, looking through parens and Root() chains: req, (req), and
// req.Root() all resolve to req.
func baseVar(info *types.Info, e ast.Expr) *types.Var {
	e = ast.Unparen(e)
	if call, ok := e.(*ast.CallExpr); ok {
		if op, recv := classify(info, call); op == opRoot {
			return baseVar(info, recv)
		}
		return nil
	}
	v := exprVar(info, e)
	if v != nil && isTrackedSpanType(v.Type()) {
		return v
	}
	return nil
}

// spanNameOf extracts the constant span-name argument for diagnostics.
func spanNameOf(info *types.Info, call *ast.CallExpr) string {
	if len(call.Args) == 0 {
		return ""
	}
	if tv, ok := info.Types[call.Args[0]]; ok && tv.Value != nil && tv.Value.Kind() == constant.String {
		return constant.StringVal(tv.Value)
	}
	return ""
}

// checker carries one function's analysis: the obligations discovered
// and the report sink (nil while computing a summary).
type spanChecker struct {
	a           *spanfinish
	info        *types.Info
	obligations map[*types.Var]*spanObligation
	report      func(pos token.Pos, format string, args ...any)
}

func (a *spanfinish) checkBody(info *types.Info, body *ast.BlockStmt, reportf func(pos token.Pos, format string, args ...any)) {
	c := &spanChecker{a: a, info: info, obligations: make(map[*types.Var]*spanObligation), report: reportf}
	c.solve(BuildCFG(info, body), spanState{})
}

// summarize computes the per-parameter facts of fb silently.
func (a *spanfinish) summarize(fb funcBody) spanSummary {
	fn := fb.info.Defs[fb.decl.Name].(*types.Func)
	sig := fn.Type().(*types.Signature)
	entry := spanState{}
	var trackedParams []*types.Var
	for i := 0; i < sig.Params().Len(); i++ {
		p := sig.Params().At(i)
		if isTrackedSpanType(p.Type()) {
			entry[p] = stUnfinished
		}
		trackedParams = append(trackedParams, p)
	}
	c := &spanChecker{a: a, info: fb.info, obligations: make(map[*types.Var]*spanObligation)}
	exit := c.solve(BuildCFG(fb.info, fb.decl.Body), entry)
	sum := spanSummary{params: make([]spanFact, len(trackedParams))}
	for i, p := range trackedParams {
		if !isTrackedSpanType(p.Type()) {
			sum.params[i] = spanFactNone
			continue
		}
		bits := exit[p]
		switch {
		case bits&stEscaped != 0:
			sum.params[i] = spanFactUnknown
		case bits&stUnfinished != 0:
			if bits&(stFinished|stDeferred) != 0 {
				sum.params[i] = spanFactUnknown // finished on some paths only
			} else {
				sum.params[i] = spanFactNone
			}
		case bits&(stFinished|stDeferred) != 0:
			sum.params[i] = spanFactFinishes
		default:
			sum.params[i] = spanFactNone
		}
	}
	return sum
}

// solve runs the dataflow and the exit check; it returns the state at
// function exit for summary extraction. The fixpoint iteration runs
// silently (transfer may repeat per block); diagnostics come from a
// single replay of each reached block against its fixed entry state.
func (c *spanChecker) solve(cfg *CFG, entry spanState) spanState {
	rep := c.report
	c.report = nil
	in, reached := Solve(cfg, FlowProblem[spanState]{
		Entry: entry,
		Meet: func(a, b spanState) spanState {
			m := a.clone()
			for v, bits := range b {
				m[v] |= bits
			}
			return m
		},
		Transfer: func(s spanState, blk *Block) spanState {
			st := s.clone()
			for _, n := range blk.Nodes {
				c.node(st, n, false)
			}
			return st
		},
		Refine: c.refine,
		Equal: func(a, b spanState) bool {
			if len(a) != len(b) {
				return false
			}
			for v, bits := range a {
				if b[v] != bits {
					return false
				}
			}
			return true
		},
	})
	c.report = rep
	if c.report != nil {
		for _, blk := range cfg.Blocks {
			if !reached[blk.Index] {
				continue
			}
			st := in[blk.Index].clone()
			for _, n := range blk.Nodes {
				c.node(st, n, false)
			}
		}
	}
	exit := in[cfg.Exit.Index]
	if reached[cfg.Exit.Index] && c.report != nil {
		for v, ob := range c.obligations {
			bits := exit[v]
			if bits&stUnfinished != 0 && bits&stEscaped == 0 {
				c.report(ob.pos, "%s %q started here is not %s on every path; %s it (or defer that) or annotate with //lint:ignore spanfinish <reason>",
					ob.kind, ob.name, ob.verbs[0], ob.verbs[1])
			}
		}
	}
	return exit
}

// refine sharpens the state along `v == nil` / `v != nil` edges: a
// trace proven nil owes no Finish (every obs method is nil-tolerant),
// so the nil arm of `if req != nil { defer t.Finish(req) }` carries no
// obligation.
func (c *spanChecker) refine(s spanState, cond ast.Expr, sense bool) spanState {
	bin, ok := ast.Unparen(cond).(*ast.BinaryExpr)
	if !ok || (bin.Op != token.EQL && bin.Op != token.NEQ) {
		return s
	}
	var v *types.Var
	switch {
	case isNilIdent(c.info, bin.Y):
		v = baseVar(c.info, bin.X)
	case isNilIdent(c.info, bin.X):
		v = baseVar(c.info, bin.Y)
	}
	if v == nil {
		return s
	}
	bits, ok := s[v]
	if !ok {
		return s
	}
	isNil := sense == (bin.Op == token.EQL)
	st := s.clone()
	if isNil {
		st[v] = stNil
	} else if bits&^stNil != 0 {
		st[v] = bits &^ stNil
	}
	return st
}

// node folds one CFG node over the state. inDefer marks a call hoisted
// out of a DeferStmt: a deferred Finish/End counts as a finish-on-exit.
func (c *spanChecker) node(st spanState, n ast.Node, inDefer bool) {
	switch n := n.(type) {
	case *ast.DeferStmt:
		c.call(st, n.Call, true)
	case *ast.GoStmt:
		c.call(st, n.Call, false)
	case *ast.ReturnStmt:
		for _, res := range n.Results {
			c.scan(st, res)
		}
		for _, res := range n.Results {
			if v := baseVar(c.info, res); v != nil {
				st[v] = stEscaped
			}
		}
	case *ast.AssignStmt:
		c.assign(st, n.Lhs, n.Rhs)
	case *ast.DeclStmt:
		if gd, ok := n.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok || len(vs.Values) == 0 {
					continue
				}
				lhs := make([]ast.Expr, len(vs.Names))
				for i, name := range vs.Names {
					lhs[i] = name
				}
				c.assign(st, lhs, vs.Values)
			}
		}
	case ast.Stmt:
		c.scan(st, n)
	case ast.Expr:
		c.scan(st, n)
	}
}

// assign handles lhs := rhs / lhs = rhs, creating obligations for
// Start/StartChild results and escaping traces stored elsewhere.
func (c *spanChecker) assign(st spanState, lhs, rhs []ast.Expr) {
	// Single-call multi-assign (x, y := f()) cannot produce a tracked
	// obligation from the obs API (Start and StartChild return one
	// value), so only the 1:1 pairing needs the special cases.
	if len(lhs) == len(rhs) {
		for i := range lhs {
			c.assignOne(st, lhs[i], rhs[i])
		}
		return
	}
	for _, r := range rhs {
		c.scan(st, r)
	}
	for _, l := range lhs {
		c.scan(st, l)
	}
}

func (c *spanChecker) assignOne(st spanState, lhs, rhs ast.Expr) {
	if call, ok := ast.Unparen(rhs).(*ast.CallExpr); ok {
		op, target := classify(c.info, call)
		if op == opStart || op == opChild {
			if op == opChild {
				// Starting a child both mutates and uses the parent
				// chain: check it like any other mutator first.
				c.useMutator(st, target, call.Pos())
			}
			v := exprVar(c.info, lhs)
			if v == nil {
				if id, ok := ast.Unparen(lhs).(*ast.Ident); ok && id.Name == "_" {
					c.reportDropped(call, op)
					return
				}
				// Stored into a field/slot: the obligation escapes
				// with the value; nothing to track.
				c.scan(st, lhs)
				return
			}
			if old, tracked := st[v]; tracked && old&stUnfinished != 0 && old&stEscaped == 0 {
				if ob := c.obligations[v]; ob != nil && c.report != nil {
					c.report(call.Pos(), "%s %q overwrites a %s that is not yet %s", kindWord(op), spanNameOf(c.info, call), ob.kind, ob.verbs[0])
				}
			}
			kind, verbs := spanKindOf(v.Type())
			c.obligations[v] = &spanObligation{pos: call.Pos(), kind: kind, name: spanNameOf(c.info, call), verbs: verbs}
			st[v] = stUnfinished
			return
		}
	}
	// Generic assignment: scan the RHS (handles calls, escapes), then
	// model the effect on a tracked LHS variable.
	c.scan(st, rhs)
	v := exprVar(c.info, lhs)
	if v == nil || !isTrackedSpanType(v.Type()) {
		c.scan(st, lhs)
		// A tracked value stored into a non-local slot escapes.
		if rv := baseVar(c.info, rhs); rv != nil {
			st[rv] = stEscaped
		}
		return
	}
	if isNilIdent(c.info, rhs) {
		st[v] = stNil
		return
	}
	if rv := baseVar(c.info, rhs); rv != nil {
		// Alias: both variables now refer to the same trace; give up
		// precisely and escape both.
		st[rv] = stEscaped
	}
	st[v] = stEscaped
}

func kindWord(op spanOp) string {
	if op == opStart {
		return "trace"
	}
	return "span"
}

func (c *spanChecker) reportDropped(call *ast.CallExpr, op spanOp) {
	if c.report == nil {
		return
	}
	verbs := traceVerbs
	if op == opChild {
		verbs = spanVerbs
	}
	c.report(call.Pos(), "result of %s is discarded; the %s can never be %s", calleeFunc(c.info, call).Name(), kindWord(op), verbs[0])
}

// scan walks an expression or simple statement, interpreting obs calls
// and escaping tracked variables that flow into unknown places.
func (c *spanChecker) scan(st spanState, n ast.Node) {
	switch n := n.(type) {
	case nil:
		return
	case *ast.CallExpr:
		c.call(st, n, false)
	case *ast.FuncLit:
		// A closure may stash or finish the trace at any later time;
		// captured tracked variables escape.
		ast.Inspect(n.Body, func(m ast.Node) bool {
			if id, ok := m.(*ast.Ident); ok {
				if v, _ := c.info.Uses[id].(*types.Var); v != nil && isTrackedSpanType(v.Type()) {
					if _, tracked := st[v]; tracked {
						st[v] = stEscaped
					}
				}
			}
			return true
		})
	case *ast.CompositeLit:
		for _, elt := range n.Elts {
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				elt = kv.Value
			}
			if v := baseVar(c.info, elt); v != nil {
				st[v] = stEscaped
			}
			c.scan(st, elt)
		}
	case *ast.UnaryExpr:
		if n.Op == token.AND {
			if v := baseVar(c.info, n.X); v != nil {
				st[v] = stEscaped
			}
		}
		c.scan(st, n.X)
	case *ast.SendStmt:
		if v := baseVar(c.info, n.Value); v != nil {
			st[v] = stEscaped
		}
		c.scan(st, n.Chan)
		c.scan(st, n.Value)
	case *ast.ExprStmt:
		c.scan(st, n.X)
	case *ast.IncDecStmt:
		c.scan(st, n.X)
	case *ast.AssignStmt:
		// Assignments nested in if-init position arrive here.
		c.assign(st, n.Lhs, n.Rhs)
	case *ast.RangeStmt:
		c.scan(st, n.X)
	case ast.Expr:
		// Generic expression: recurse through children; plain reads
		// (comparisons, selector loads) have no lifecycle effect.
		for _, child := range exprChildren(n) {
			c.scan(st, child)
		}
	case ast.Stmt:
		ast.Inspect(n, func(m ast.Node) bool {
			if m == n {
				return true
			}
			if e, ok := m.(ast.Expr); ok {
				c.scan(st, e)
				return false
			}
			return true
		})
	}
}

// exprChildren returns the direct sub-expressions of e.
func exprChildren(e ast.Expr) []ast.Expr {
	var out []ast.Expr
	ast.Inspect(e, func(n ast.Node) bool {
		if n == e {
			return true
		}
		if sub, ok := n.(ast.Expr); ok {
			out = append(out, sub)
			return false
		}
		return true
	})
	return out
}

// call interprets one call expression: obs lifecycle operations mutate
// the state directly; other calls apply the callee's summary to
// tracked arguments, escaping them when the callee is opaque.
func (c *spanChecker) call(st spanState, call *ast.CallExpr, deferred bool) {
	op, target := classify(c.info, call)
	switch op {
	case opFinish, opEnd:
		v := baseVar(c.info, target)
		if v == nil {
			c.scan(st, target)
			return
		}
		c.finish(st, v, call.Pos(), deferred)
		return
	case opMutate:
		c.useMutator(st, target, call.Pos())
		// Mutator arguments are plain values; still scan them for
		// nested calls.
		for _, arg := range call.Args {
			c.scan(st, arg)
		}
		return
	case opStart, opChild:
		// Result discarded (expression statement): the obligation is
		// unsatisfiable.
		if op == opChild {
			c.useMutator(st, target, call.Pos())
		}
		c.reportDropped(call, op)
		return
	case opRoot:
		c.useRead(st, target)
		return
	}

	// Not an obs lifecycle call: scan arguments for nested calls and
	// apply the callee's summary to tracked identifier arguments.
	f := calleeFunc(c.info, call)
	var sum spanSummary
	known := false
	if f != nil {
		sum = c.a.sums.of(f, c.a.summarize)
		known = true
	}
	sig, _ := c.info.TypeOf(call.Fun).(*types.Signature)
	for i, arg := range call.Args {
		c.scan(st, arg)
		v := baseVar(c.info, arg)
		if v == nil {
			continue
		}
		if _, tracked := st[v]; !tracked {
			// Not an obligation of this function (e.g. a parameter in
			// check mode); nothing to update.
			continue
		}
		fact := spanFactUnknown
		if known {
			// Map the argument index onto the parameter index,
			// saturating at the variadic tail.
			pi := i
			if sig != nil && sig.Variadic() && pi >= sig.Params().Len()-1 {
				pi = sig.Params().Len() - 1
			}
			if pi < len(sum.params) {
				fact = sum.params[pi]
			}
		}
		switch fact {
		case spanFactFinishes:
			c.finish(st, v, call.Pos(), deferred)
		case spanFactNone:
			// Transparent helper: obligation stays with the caller.
		default:
			st[v] = stEscaped
		}
	}
	// Receiver of an unknown method call: a method may retain its
	// receiver; escape tracked receivers conservatively.
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if v := baseVar(c.info, sel.X); v != nil {
			if _, tracked := st[v]; tracked {
				st[v] = stEscaped
			}
		}
		c.scan(st, sel.X)
	}
}

// finish transitions v through Finish/End, reporting double finishes.
func (c *spanChecker) finish(st spanState, v *types.Var, pos token.Pos, deferred bool) {
	bits, tracked := st[v]
	if !tracked {
		return
	}
	ob := c.obligations[v]
	if ob != nil && c.report != nil &&
		bits&(stFinished|stDeferred) != 0 && bits&(stUnfinished|stNil|stEscaped) == 0 {
		c.report(pos, "%s %q is %s more than once on this path", ob.kind, ob.name, ob.verbs[0])
	}
	if deferred {
		st[v] = stDeferred
	} else {
		st[v] = stFinished
	}
}

// useMutator checks a mutation (SetX, StartChild) against the state:
// mutating a trace/span that is definitely finished is a finding.
func (c *spanChecker) useMutator(st spanState, target ast.Expr, pos token.Pos) {
	v := baseVar(c.info, target)
	if v == nil {
		c.scan(st, target)
		return
	}
	bits, tracked := st[v]
	if !tracked {
		return
	}
	ob := c.obligations[v]
	if ob != nil && c.report != nil &&
		bits == stFinished {
		c.report(pos, "%s %q is used after it is %s", ob.kind, ob.name, ob.verbs[0])
	}
}

// useRead handles pure reads (Root); reads after Finish are legal —
// Finish empties the trace, so Root then returns nil, and only a
// mutation can corrupt the published copy in the recorder rings.
func (c *spanChecker) useRead(st spanState, target ast.Expr) {
	if v := baseVar(c.info, target); v != nil {
		return
	}
	c.scan(st, target)
}
