package analysis

// lockorder builds the mutex acquisition graph across the whole lint
// run and enforces two contracts:
//
//  1. No re-entry: calling a method that locks mutex M while M is
//     already held on the same object self-deadlocks (Go mutexes are
//     not reentrant). This is exactly lightpath.SessionManager's
//     discipline — locked exported methods must only call unlocked
//     internal helpers — generalized to every type in the module.
//  2. No cycles: if some path acquires A then B while another acquires
//     B then A, the two can deadlock under concurrency. Edges are
//     collected per call site as packages are analyzed; cycle detection
//     runs once at the end of the run (Analyzer.Finalize), because no
//     single package sees both halves of a cycle.
//
// Mutex identity is type-level: pkg.Type.field for struct-field
// mutexes, pkg.var for package-level ones. Held-ness is tracked
// object-sensitively (by receiver expression) with a forward dataflow
// over the CFG, so `a.mu.Lock(); b.mu.Unlock()` on distinct objects of
// the same type does not confuse the checker. Function summaries
// record which mutexes a callee may acquire (transitively), making
// helpers transparent.
//
// Known unsound corner (documented in DESIGN.md §13): closures
// registered for later execution (obs.Registry GaugeFunc callbacks)
// are analyzed as their own functions, not as calls of the registrar —
// lock edges through deferred callback invocation are invisible.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// lockSummary records, per function, which mutexes the function may
// acquire anywhere in its body (transitively through callees) and
// which it locks directly on its own receiver.
type lockSummary struct {
	acquires  map[string]bool
	recvLocks map[string]bool
}

// lockEdge is one "acquired B while holding A" observation.
type lockEdge struct {
	from, to string
	pos      token.Position
	detail   string
}

type lockorder struct {
	sums  *summaries[lockSummary]
	edges []lockEdge
}

// NewLockOrder builds the lockorder analyzer.
func NewLockOrder() *Analyzer {
	a := &lockorder{sums: newSummaries(lockSummary{})}
	return &Analyzer{
		Name:      "lockorder",
		Doc:       "mutex acquisition graph is acyclic and locked methods are never re-entered",
		TestFiles: true,
		Run:       a.run,
		Finalize:  a.finalize,
	}
}

// mutexID names a mutex at type level: "pkg.Type.field" for fields,
// "pkg.var" for package-level mutexes, "" when unidentifiable.
func mutexID(info *types.Info, e ast.Expr) string {
	e = ast.Unparen(e)
	switch e := e.(type) {
	case *ast.SelectorExpr:
		sel, ok := info.Selections[e]
		if !ok {
			// Qualified package-level var (pkg.mu).
			if v, ok := info.Uses[e.Sel].(*types.Var); ok && v.Pkg() != nil && !v.IsField() {
				return v.Pkg().Path() + "." + v.Name()
			}
			return ""
		}
		field, ok := sel.Obj().(*types.Var)
		if !ok || !field.IsField() {
			return ""
		}
		recv := sel.Recv()
		if ptr, ok := recv.(*types.Pointer); ok {
			recv = ptr.Elem()
		}
		if n, ok := recv.(*types.Named); ok && n.Obj().Pkg() != nil {
			return n.Obj().Pkg().Path() + "." + n.Obj().Name() + "." + field.Name()
		}
		return ""
	case *ast.Ident:
		if v, ok := info.Uses[e].(*types.Var); ok && v.Pkg() != nil && !v.IsField() && v.Parent() == v.Pkg().Scope() {
			return v.Pkg().Path() + "." + v.Name()
		}
	}
	return ""
}

// isMutexType reports whether t (possibly via pointer) is sync.Mutex
// or sync.RWMutex.
func isMutexType(t types.Type) bool {
	return named(t, "sync", "Mutex") || named(t, "sync", "RWMutex")
}

// lockSite classifies call as a Lock/RLock (acquire=true) or
// Unlock/RUnlock (acquire=false) on a mutex expression, returning the
// mutex expression (e.g. `m.mu` in `m.mu.Lock()`).
func lockSite(info *types.Info, call *ast.CallExpr) (mutex ast.Expr, acquire, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return nil, false, false
	}
	f, _ := info.Uses[sel.Sel].(*types.Func)
	if f == nil || f.Pkg() == nil || f.Pkg().Path() != "sync" {
		return nil, false, false
	}
	if !isMutexType(info.TypeOf(sel.X)) {
		return nil, false, false
	}
	switch f.Name() {
	case "Lock", "RLock", "TryLock", "TryRLock":
		return sel.X, true, true
	case "Unlock", "RUnlock":
		return sel.X, false, true
	}
	return nil, false, false
}

// heldKey identifies one held mutex object-sensitively: the rendered
// owner expression plus the type-level mutex identity.
type heldKey struct {
	obj string
	id  string
}

type lockState map[heldKey]token.Pos

func (s lockState) clone() lockState {
	c := make(lockState, len(s))
	for k, v := range s {
		c[k] = v
	}
	return c
}

// ownerOf renders the owner part of a mutex expression (`m` in
// `m.mu`), which scopes held-ness to one object.
func ownerOf(e ast.Expr) string {
	e = ast.Unparen(e)
	if sel, ok := e.(*ast.SelectorExpr); ok {
		return exprString(sel.X)
	}
	return exprString(e)
}

// exprString renders simple expressions (identifier chains) for use as
// object keys; anything more complex gets a stable opaque form.
func exprString(e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprString(e.X) + "." + e.Sel.Name
	case *ast.CallExpr:
		return exprString(e.Fun) + "()"
	case *ast.IndexExpr:
		return exprString(e.X) + "[...]"
	case *ast.StarExpr:
		return "*" + exprString(e.X)
	default:
		return fmt.Sprintf("expr@%d", e.Pos())
	}
}

func (a *lockorder) run(pass *Pass) error {
	a.sums.index(pass)
	funcDecls(pass, func(fd *ast.FuncDecl, fn *types.Func) {
		a.checkBody(pass, fd.Body)
		for _, lit := range funcLits(fd.Body) {
			a.checkBody(pass, lit.Body)
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

// summarize computes which mutexes fb may acquire. Nested function
// literals are excluded: a closure passed to a registry runs later,
// not during this call.
func (a *lockorder) summarize(fb funcBody) lockSummary {
	sum := lockSummary{acquires: make(map[string]bool), recvLocks: make(map[string]bool)}
	var recvName string
	if fb.decl.Recv != nil && len(fb.decl.Recv.List) == 1 && len(fb.decl.Recv.List[0].Names) == 1 {
		recvName = fb.decl.Recv.List[0].Names[0].Name
	}
	ast.Inspect(fb.decl.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if mutex, acquire, ok := lockSite(fb.info, call); ok {
			if !acquire {
				return true
			}
			id := mutexID(fb.info, mutex)
			if id == "" {
				return true
			}
			sum.acquires[id] = true
			if recvName != "" && ownerOf(mutex) == recvName {
				sum.recvLocks[id] = true
			}
			return true
		}
		// Propagate through callees; recursion bottoms out at the
		// summary store's in-flight guard.
		if f := calleeFunc(fb.info, call); f != nil {
			callee := a.sums.of(f, a.summarize)
			for id := range callee.acquires {
				sum.acquires[id] = true
			}
			// A same-receiver method call transfers its receiver locks.
			if recvName != "" {
				if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && exprString(sel.X) == recvName {
					for id := range callee.recvLocks {
						sum.recvLocks[id] = true
					}
				}
			}
		}
		return true
	})
	return sum
}

// checkBody runs the held-set dataflow over one function body, then
// replays each reached block once against its fixed entry state to
// emit diagnostics and ordering edges exactly once.
func (a *lockorder) checkBody(pass *Pass, body *ast.BlockStmt) {
	cfg := BuildCFG(pass.Info, body)
	in, reached := Solve(cfg, FlowProblem[lockState]{
		Entry: lockState{},
		Meet: func(x, y lockState) lockState {
			// Union: a mutex held on either path is possibly held.
			m := x.clone()
			for k, pos := range y {
				if _, ok := m[k]; !ok {
					m[k] = pos
				}
			}
			return m
		},
		Transfer: func(s lockState, blk *Block) lockState {
			st := s.clone()
			for _, n := range blk.Nodes {
				a.transferNode(pass, st, n, false)
			}
			return st
		},
		Equal: func(x, y lockState) bool {
			if len(x) != len(y) {
				return false
			}
			for k := range x {
				if _, ok := y[k]; !ok {
					return false
				}
			}
			return true
		},
	})
	for _, blk := range cfg.Blocks {
		if !reached[blk.Index] {
			continue
		}
		st := in[blk.Index].clone()
		for _, n := range blk.Nodes {
			a.transferNode(pass, st, n, true)
		}
	}
}

// transferNode folds one node over the held set; with report set it
// also emits re-entry findings and records cross-mutex edges.
func (a *lockorder) transferNode(pass *Pass, st lockState, n ast.Node, report bool) {
	ast.Inspect(n, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.FuncLit:
			return false
		case *ast.DeferStmt:
			// A deferred Unlock keeps the mutex held for the rest of
			// the body (it releases at return); a deferred anything
			// else is treated at registration like a call.
			if _, acquire, ok := lockSite(pass.Info, m.Call); ok && !acquire {
				return false
			}
			return true
		case *ast.CallExpr:
			a.transferCall(pass, st, m, report)
			return true
		}
		return true
	})
}

func (a *lockorder) transferCall(pass *Pass, st lockState, call *ast.CallExpr, report bool) {
	if mutex, acquire, ok := lockSite(pass.Info, call); ok {
		id := mutexID(pass.Info, mutex)
		if id == "" {
			return
		}
		key := heldKey{obj: ownerOf(mutex), id: id}
		if !acquire {
			delete(st, key)
			return
		}
		if _, held := st[key]; held && report {
			pass.Reportf(call.Pos(), "%s is locked again while already held (non-reentrant); unlock first or annotate with //lint:ignore lockorder <reason>", exprString(mutex))
		}
		if report {
			// Record ordering edges against everything currently held.
			a.recordEdges(pass, st, call.Pos(), map[string]bool{id: true}, "locks "+exprString(mutex)+" directly")
		}
		st[key] = call.Pos()
		return
	}

	f := calleeFunc(pass.Info, call)
	if f == nil {
		return
	}
	sum := a.sums.of(f, a.summarize)
	if len(sum.acquires) == 0 || !report {
		return
	}
	// Re-entry: callee locks a mutex already held on the same object.
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && len(sum.recvLocks) > 0 {
		obj := exprString(sel.X)
		for id := range sum.recvLocks {
			if _, held := st[heldKey{obj: obj, id: id}]; held {
				pass.Reportf(call.Pos(), "call to %s while %s's %s is held; the callee locks the same mutex (self-deadlock); restructure or annotate with //lint:ignore lockorder <reason>",
					f.Name(), obj, shortMutex(id))
			}
		}
	}
	a.recordEdges(pass, st, call.Pos(), sum.acquires, "via call to "+f.Name())
}

// recordEdges notes "acquired `to` while holding `from`" for every
// held mutex and every acquired mutex with a different identity.
func (a *lockorder) recordEdges(pass *Pass, st lockState, pos token.Pos, acquired map[string]bool, detail string) {
	for held := range st {
		for to := range acquired {
			if held.id == to {
				continue
			}
			a.edges = append(a.edges, lockEdge{
				from:   held.id,
				to:     to,
				pos:    pass.Fset.Position(pos),
				detail: detail,
			})
		}
	}
}

// shortMutex trims the package path off a mutex id for messages.
func shortMutex(id string) string {
	if i := strings.LastIndex(id, "/"); i >= 0 {
		return id[i+1:]
	}
	return id
}

// finalize runs cycle detection over the accumulated acquisition graph
// and reports every call site whose edge participates in a cycle.
func (a *lockorder) finalize(report func(Diagnostic)) {
	// Tarjan-free SCC via Kosaraju on the small mutex graph.
	nodes := make(map[string]bool)
	succs := make(map[string]map[string]bool)
	for _, e := range a.edges {
		nodes[e.from], nodes[e.to] = true, true
		if succs[e.from] == nil {
			succs[e.from] = make(map[string]bool)
		}
		succs[e.from][e.to] = true
	}
	comp := sccComponents(nodes, succs)
	seen := make(map[string]bool)
	for _, e := range a.edges {
		if comp[e.from] == 0 || comp[e.from] != comp[e.to] {
			continue
		}
		key := fmt.Sprintf("%s|%d|%d", e.pos.Filename, e.pos.Line, e.pos.Column) + e.from + e.to
		if seen[key] {
			continue
		}
		seen[key] = true
		report(Diagnostic{
			Analyzer: "lockorder",
			Pos:      e.pos,
			Message: fmt.Sprintf("lock-order cycle: %s is acquired here (%s) while %s is held, and the opposite order exists elsewhere; pick one order or annotate with //lint:ignore lockorder <reason>",
				shortMutex(e.to), e.detail, shortMutex(e.from)),
		})
	}
}

// sccComponents assigns each node a component number; nodes in a
// nontrivial strongly connected component (size > 1, or a self-loop)
// share a nonzero id, all others get 0.
func sccComponents(nodes map[string]bool, succs map[string]map[string]bool) map[string]int {
	var order []string
	visited := make(map[string]bool)
	var dfs1 func(n string)
	dfs1 = func(n string) {
		if visited[n] {
			return
		}
		visited[n] = true
		for m := range succs[n] {
			dfs1(m)
		}
		order = append(order, n)
	}
	var sorted []string
	for n := range nodes {
		sorted = append(sorted, n)
	}
	sort.Strings(sorted)
	for _, n := range sorted {
		dfs1(n)
	}

	preds := make(map[string]map[string]bool)
	for n, ss := range succs {
		for m := range ss {
			if preds[m] == nil {
				preds[m] = make(map[string]bool)
			}
			preds[m][n] = true
		}
	}
	comp := make(map[string]int)
	assigned := make(map[string]bool)
	next := 0
	for i := len(order) - 1; i >= 0; i-- {
		root := order[i]
		if assigned[root] {
			continue
		}
		next++
		var members []string
		var dfs2 func(n string)
		dfs2 = func(n string) {
			if assigned[n] {
				return
			}
			assigned[n] = true
			members = append(members, n)
			for m := range preds[n] {
				dfs2(m)
			}
		}
		dfs2(root)
		nontrivial := len(members) > 1
		if len(members) == 1 && succs[members[0]][members[0]] {
			nontrivial = true
		}
		for _, m := range members {
			if nontrivial {
				comp[m] = next
			} else {
				comp[m] = 0
			}
		}
	}
	return comp
}
