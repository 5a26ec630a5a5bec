package analysis

import (
	"go/ast"
	"go/types"
)

const (
	enginePath = "lightpath/internal/engine"
	corePath   = "lightpath/internal/core"
)

// advancingMethods are the *engine.Engine methods that (may) bump the
// epoch and republish the snapshot. A snapshot pinned before one of
// these calls is stale afterwards: routing on it still works (snapshots
// are immutable) but any Allocate of its paths will conflict, so
// holding one across an advance is almost always a bug.
var advancingMethods = map[string]bool{
	"Allocate":         true,
	"Release":          true,
	"RouteAndAllocate": true,
	"FailLink":         true,
	"RepairLink":       true,
}

// NewSnapshotEscape builds the snapshotescape analyzer.
//
// Invariant (DESIGN.md §7): a *engine.Snapshot is a per-call pin of the
// routing view. It must stay a local: storing one in a struct field, a
// package-level variable, a container, a channel, or a closure that
// outlives the call defeats the epoch protocol (the holder routes on
// arbitrarily stale residual capacity without ever observing an epoch
// change). Within a function, a pinned snapshot must not be used after
// an epoch-advancing engine call — re-pin instead. The same applies to
// the *core.Aux graph a snapshot wraps.
//
// The engine package itself is exempt: it is the implementation of the
// protocol and legitimately owns the published snapshot.
func NewSnapshotEscape() *Analyzer {
	a := &Analyzer{
		Name: "snapshotescape",
		Doc:  "flags engine snapshots that escape their pinning call or are used after an epoch advance",
	}
	a.Run = func(pass *Pass) error {
		if pass.Pkg.Path() == enginePath {
			return nil
		}
		for _, f := range pass.Files {
			checkEscapes(pass, f)
		}
		for _, f := range pass.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				fn, ok := n.(*ast.FuncDecl)
				if ok && fn.Body != nil {
					st := &taintState{pass: pass, live: map[*types.Var]bool{}, derived: map[*types.Var]string{}, tainted: map[*types.Var]string{}}
					st.walkStmts(fn.Body.List)
					return false
				}
				return true
			})
		}
		return nil
	}
	return a
}

// isSnapshotType reports whether t is (a pointer to) engine.Snapshot.
func isSnapshotType(t types.Type) bool {
	return named(t, enginePath, "Snapshot")
}

// isSnapshotSource reports whether e pins snapshot state: a
// snapshot-typed expression, or the aux graph / residual network a
// snapshot wraps (snap.Aux(), snap.Network()) — those share the
// snapshot's lifetime contract even though their types also occur
// outside the engine.
func isSnapshotSource(pass *Pass, e ast.Expr) (string, bool) {
	e = ast.Unparen(e)
	if t := pass.TypeOf(e); t != nil && isSnapshotType(t) {
		return "*engine.Snapshot", true
	}
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return "", false
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || (sel.Sel.Name != "Aux" && sel.Sel.Name != "Network") {
		return "", false
	}
	if t := pass.TypeOf(sel.X); t != nil && isSnapshotType(t) {
		return "Snapshot." + sel.Sel.Name + "()", true
	}
	return "", false
}

// snapshotVar returns the snapshot-typed variable an identifier uses,
// or nil.
func snapshotVar(pass *Pass, id *ast.Ident) *types.Var {
	v, ok := pass.Info.Uses[id].(*types.Var)
	if ok && !v.IsField() && isSnapshotType(v.Type()) {
		return v
	}
	return nil
}

// checkEscapes flags the storage-shaped escapes: snapshot-typed struct
// fields, package-level vars, container/composite storage, channel
// sends, and closures that capture a snapshot and themselves escape.
func checkEscapes(pass *Pass, f *ast.File) {
	for _, decl := range f.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok {
			continue
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			for _, name := range vs.Names {
				if obj := pass.Info.Defs[name]; obj != nil && isSnapshotType(obj.Type()) {
					pass.Reportf(name.Pos(), "package-level variable %s holds a %s; snapshots must be pinned per call (engine.Snapshot())", name.Name, obj.Type())
				}
			}
		}
	}
	var stack []ast.Node
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return false
		}
		stack = append(stack, n)
		switch n := n.(type) {
		case *ast.StructType:
			for _, field := range n.Fields.List {
				if t := pass.TypeOf(field.Type); t != nil && isSnapshotType(t) {
					pass.Reportf(field.Pos(), "struct field of type %s outlives the pinning call; hold the *engine.Engine and pin per operation", t)
				}
			}
		case *ast.SendStmt:
			if what, ok := isSnapshotSource(pass, n.Value); ok {
				pass.Reportf(n.Value.Pos(), "sending %s on a channel lets it outlive the pinning call", what)
			}
		case *ast.AssignStmt:
			if len(n.Lhs) == len(n.Rhs) {
				for i, rhs := range n.Rhs {
					what, ok := isSnapshotSource(pass, rhs)
					if !ok {
						continue
					}
					if durableTarget(pass, n.Lhs[i]) {
						pass.Reportf(rhs.Pos(), "storing %s in a durable location lets it outlive the pinning call", what)
					}
				}
			}
		case *ast.CompositeLit:
			if _, isStruct := n.Type.(*ast.StructType); isStruct {
				break // fields already flagged via the StructType case
			}
			for _, elt := range n.Elts {
				v := elt
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					v = kv.Value
				}
				if what, ok := isSnapshotSource(pass, v); ok {
					pass.Reportf(v.Pos(), "storing %s in a composite value lets it outlive the pinning call", what)
				}
			}
		case *ast.FuncLit:
			if capt := capturedSnapshot(pass, n); capt != nil && closureEscapes(stack) {
				pass.Reportf(n.Pos(), "closure captures snapshot %s and escapes the pinning call; pin inside the closure instead", capt.Name())
			}
		}
		return true
	})
}

// durableTarget reports whether an assignment target outlives the
// enclosing call: a field selector, an index into a container, a
// dereference, or a package-level variable.
func durableTarget(pass *Pass, lhs ast.Expr) bool {
	switch lhs := ast.Unparen(lhs).(type) {
	case *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
		return true
	case *ast.Ident:
		v, ok := pass.Info.ObjectOf(lhs).(*types.Var)
		return ok && v.Parent() == pass.Pkg.Scope()
	}
	return false
}

// capturedSnapshot returns a snapshot-typed variable the literal
// captures from an enclosing scope, or nil.
func capturedSnapshot(pass *Pass, lit *ast.FuncLit) *types.Var {
	var capt *types.Var
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if capt != nil {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		if v := snapshotVar(pass, id); v != nil && v.Pos() < lit.Pos() {
			capt = v
		}
		return true
	})
	return capt
}

// closureEscapes reports whether the FuncLit on top of stack is used in
// a way that may outlive the enclosing call: anything but an immediate
// invocation, a plain call argument, or a go/defer statement.
func closureEscapes(stack []ast.Node) bool {
	if len(stack) < 2 {
		return true
	}
	lit := stack[len(stack)-1]
	switch parent := stack[len(stack)-2].(type) {
	case *ast.CallExpr:
		// Immediately invoked, or handed to a call (worker pools, batch
		// runners) — bounded by the callee's dynamic extent by convention.
		_ = parent
		return false
	case *ast.GoStmt, *ast.DeferStmt:
		return false
	case *ast.ParenExpr:
		return closureEscapes(append(stack[:len(stack)-2:len(stack)-2], parent, lit))
	}
	return true
}

// taintState is the per-function walk that flags snapshot uses after an
// epoch-advancing engine call. It is a straight-line, source-order
// approximation: an advance anywhere in a statement taints every
// snapshot variable then in scope; a later use of a tainted variable is
// reported unless the variable was re-pinned (reassigned) first.
// Sibling branches of an if/switch do not taint each other.
//
// Beyond *engine.Snapshot itself the walk tracks snapshot-DERIVED
// variables: the aux graph and residual network pulled out of a pin
// (snap.Aux(), snap.Network()) and any delta overlay layered on those
// (Aux.ApplyDelta, Network.PatchChannels). Their types also occur
// outside the engine, so membership in `derived` — value provenance,
// not type — is what subjects them to the staleness contract.
type taintState struct {
	pass        *Pass
	live        map[*types.Var]bool   // snapshot vars declared so far
	derived     map[*types.Var]string // snapshot-derived vars -> provenance
	tainted     map[*types.Var]string // var -> name of the advancing call
	lastAdvance string                // most recent advancing call seen
}

func (st *taintState) clone() *taintState {
	c := &taintState{pass: st.pass, live: map[*types.Var]bool{}, derived: map[*types.Var]string{}, tainted: map[*types.Var]string{}, lastAdvance: st.lastAdvance}
	for v := range st.live {
		c.live[v] = true
	}
	for v, p := range st.derived {
		c.derived[v] = p
	}
	for v, m := range st.tainted {
		c.tainted[v] = m
	}
	return c
}

func (st *taintState) absorb(o *taintState) {
	for v := range o.live {
		st.live[v] = true
	}
	for v, p := range o.derived {
		st.derived[v] = p
	}
	for v, m := range o.tainted {
		st.tainted[v] = m
	}
	if o.lastAdvance != "" {
		st.lastAdvance = o.lastAdvance
	}
}

// derivedSource reports whether e produces a snapshot-derived value: a
// snap.Aux()/snap.Network() accessor call, or a delta overlay built on
// an already-derived variable (aux.ApplyDelta, net.PatchChannels). The
// returned provenance string names the chain for the diagnostic.
func (st *taintState) derivedSource(e ast.Expr) (string, bool) {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return "", false
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	switch sel.Sel.Name {
	case "Aux", "Network":
		if t := st.pass.TypeOf(sel.X); t != nil && isSnapshotType(t) {
			return "Snapshot." + sel.Sel.Name + "()", true
		}
	case "ApplyDelta", "PatchChannels":
		id, ok := ast.Unparen(sel.X).(*ast.Ident)
		if !ok {
			return "", false
		}
		if v, ok := st.pass.Info.Uses[id].(*types.Var); ok {
			if prov, isDerived := st.derived[v]; isDerived {
				return sel.Sel.Name + " of " + prov, true
			}
		}
	}
	return "", false
}

func (st *taintState) walkStmts(stmts []ast.Stmt) {
	for _, s := range stmts {
		st.walkStmt(s)
	}
}

func (st *taintState) walkStmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		st.walkStmts(s.List)
	case *ast.IfStmt:
		if s.Init != nil {
			st.walkStmt(s.Init)
		}
		st.scanExpr(s.Cond)
		thenSt := st.clone()
		thenSt.walkStmt(s.Body)
		elseSt := st.clone()
		if s.Else != nil {
			elseSt.walkStmt(s.Else)
		}
		st.absorb(thenSt)
		st.absorb(elseSt)
	case *ast.ForStmt:
		if s.Init != nil {
			st.walkStmt(s.Init)
		}
		st.scanExpr(s.Cond)
		st.walkStmt(s.Body)
		if s.Post != nil {
			st.walkStmt(s.Post)
		}
	case *ast.RangeStmt:
		st.scanExpr(s.X)
		st.declare(s.Key)
		st.declare(s.Value)
		st.walkStmt(s.Body)
	case *ast.SwitchStmt:
		if s.Init != nil {
			st.walkStmt(s.Init)
		}
		st.scanExpr(s.Tag)
		st.walkClauses(s.Body)
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			st.walkStmt(s.Init)
		}
		st.walkClauses(s.Body)
	case *ast.SelectStmt:
		st.walkClauses(s.Body)
	case *ast.LabeledStmt:
		st.walkStmt(s.Stmt)
	case *ast.AssignStmt:
		for _, rhs := range s.Rhs {
			st.scanExpr(rhs)
		}
		advanced := false
		for _, rhs := range s.Rhs {
			advanced = st.advanceIn(rhs) || advanced
		}
		for _, lhs := range s.Lhs {
			st.scanAssignTarget(lhs)
		}
		if advanced {
			st.taintAll(s.Rhs)
		}
		// Reassignment (or fresh declaration) re-pins: clear after the
		// taint so `snap = eng.Snapshot()` following an advance is clean.
		for _, lhs := range s.Lhs {
			if id, ok := lhs.(*ast.Ident); ok {
				st.declare(id)
				if v, ok := st.pass.Info.Uses[id].(*types.Var); ok && isSnapshotType(v.Type()) {
					st.live[v] = true
					delete(st.tainted, v)
				}
				if v, ok := st.pass.Info.Defs[id].(*types.Var); ok && isSnapshotType(v.Type()) {
					st.live[v] = true
					delete(st.tainted, v)
				}
			}
		}
		st.trackDerived(s)
	case *ast.DeclStmt:
		st.scanExpr(s)
		if st.advanceIn(s) {
			st.taintAll(nil)
		}
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, name := range vs.Names {
						st.declare(name)
					}
				}
			}
		}
	default:
		st.scanExpr(s)
		if st.advanceIn(s) {
			st.taintAll(nil)
		}
	}
}

func (st *taintState) walkClauses(body *ast.BlockStmt) {
	merged := st.clone()
	for _, clause := range body.List {
		c := st.clone()
		switch clause := clause.(type) {
		case *ast.CaseClause:
			for _, e := range clause.List {
				c.scanExpr(e)
			}
			c.walkStmts(clause.Body)
		case *ast.CommClause:
			if clause.Comm != nil {
				c.walkStmt(clause.Comm)
			}
			c.walkStmts(clause.Body)
		}
		merged.absorb(c)
	}
	st.absorb(merged)
}

// trackDerived updates derived-value provenance for an assignment:
// targets assigned from a derivedSource join the tracked set (clean —
// deriving from a fresh pin re-pins), targets assigned from anything
// else leave it. Go call results are positional, so in the multi-value
// form `aux, err := prev.ApplyDelta(...)` only Lhs[0] carries the
// derived value.
func (st *taintState) trackDerived(s *ast.AssignStmt) {
	srcs := make([]ast.Expr, len(s.Lhs))
	if len(s.Lhs) == len(s.Rhs) {
		copy(srcs, s.Rhs)
	} else if len(s.Rhs) == 1 {
		srcs[0] = s.Rhs[0]
	}
	for i, lhs := range s.Lhs {
		id, ok := lhs.(*ast.Ident)
		if !ok || id.Name == "_" {
			continue
		}
		v := identVar(st.pass, id)
		if v == nil || isSnapshotType(v.Type()) {
			continue
		}
		if srcs[i] != nil {
			if prov, ok := st.derivedSource(srcs[i]); ok {
				st.derived[v] = prov
				delete(st.tainted, v)
				continue
			}
		}
		if _, was := st.derived[v]; was {
			delete(st.derived, v)
			delete(st.tainted, v)
		}
	}
}

// identVar resolves an assignment-target identifier to its variable,
// whether the statement defines it (:=) or reuses it (=).
func identVar(pass *Pass, id *ast.Ident) *types.Var {
	if v, ok := pass.Info.Defs[id].(*types.Var); ok {
		return v
	}
	if v, ok := pass.Info.Uses[id].(*types.Var); ok {
		return v
	}
	return nil
}

// declare registers snapshot variables defined by id.
func (st *taintState) declare(e ast.Expr) {
	id, ok := e.(*ast.Ident)
	if !ok {
		return
	}
	if v, ok := st.pass.Info.Defs[id].(*types.Var); ok && isSnapshotType(v.Type()) {
		st.live[v] = true
	}
}

// scanExpr reports uses of tainted snapshot variables inside n,
// skipping nested function literals (their bodies run later).
func (st *taintState) scanExpr(n ast.Node) {
	if n == nil {
		return
	}
	ast.Inspect(n, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		if v := snapshotVar(st.pass, id); v != nil {
			if method, stale := st.tainted[v]; stale {
				st.pass.Reportf(id.Pos(), "snapshot %s used after epoch-advancing call %s; re-pin with Snapshot() after mutating", id.Name, method)
			}
			return true
		}
		if v, ok := st.pass.Info.Uses[id].(*types.Var); ok && !v.IsField() {
			if prov, isDerived := st.derived[v]; isDerived {
				if method, stale := st.tainted[v]; stale {
					st.pass.Reportf(id.Pos(), "snapshot-derived %s (%s) used after epoch-advancing call %s; re-pin with Snapshot() and re-derive", id.Name, prov, method)
				}
			}
		}
		return true
	})
}

// scanAssignTarget reports tainted uses inside a non-ident assignment
// target (index/selector expressions evaluate their operands).
func (st *taintState) scanAssignTarget(lhs ast.Expr) {
	if _, ok := lhs.(*ast.Ident); ok {
		return
	}
	st.scanExpr(lhs)
}

// advanceIn reports whether n contains an epoch-advancing engine call,
// again treating function literals as opaque.
func (st *taintState) advanceIn(n ast.Node) bool {
	found := false
	ast.Inspect(n, func(n ast.Node) bool {
		if found {
			return false
		}
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if name, ok := advancingCall(st.pass, call); ok {
			st.lastAdvance = name
			found = true
		}
		return true
	})
	return found
}

// taintAll marks every live snapshot variable — and every
// snapshot-derived one — stale.
func (st *taintState) taintAll(_ []ast.Expr) {
	for v := range st.live {
		st.tainted[v] = st.lastAdvance
	}
	for v := range st.derived {
		st.tainted[v] = st.lastAdvance
	}
}

// advancingCall reports whether call invokes an epoch-advancing method
// on *engine.Engine (directly or through a session.Manager is out of
// scope — the manager owns its engine and never exposes snapshots).
func advancingCall(pass *Pass, call *ast.CallExpr) (string, bool) {
	f := calleeFunc(pass.Info, call)
	if f == nil || !advancingMethods[f.Name()] {
		return "", false
	}
	sig, ok := f.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return "", false
	}
	if !named(sig.Recv().Type(), enginePath, "Engine") {
		return "", false
	}
	return "Engine." + f.Name(), true
}
