package analysis

// Control-flow graphs over go/ast, plus a generic forward-dataflow
// solver — the core lockorder is built on.
//
// The builder lowers one function body to basic blocks. Statements land
// in Block.Nodes in execution order, branch conditions included; the
// successors carry no condition, so a state flows into both arms of a
// branch unchanged. Calls to functions that never return (panic,
// os.Exit, t.Fatal and friends, log.Fatal, runtime.Goexit) terminate
// their block with no successors, which is what lets
// `if err != nil { t.Fatal(err) }` count as handling a path.
//
// Deliberate approximations, documented in DESIGN.md §13: defer bodies
// are analyzed at their registration point rather than at function
// exit, and goroutine/closure bodies are not part of the spawning
// function's graph.

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Block is a basic block: nodes executed in order, then a transfer of
// control along one of Succs. A block with no successors either returns
// from the function (reaching CFG.Exit) or ends in a no-return call.
type Block struct {
	Index int
	Nodes []ast.Node
	Succs []*Block
}

// CFG is the control-flow graph of one function body. Exit is a
// synthetic empty block: every return statement and the natural end of
// the body flow into it, so "state at Exit" is the all-paths function
// postcondition.
type CFG struct {
	Blocks []*Block
	Entry  *Block
	Exit   *Block
}

// loopFrame tracks the jump targets of the innermost enclosing
// for/range/switch/select for break and continue, plus the statement's
// label (if any) for labeled jumps.
type loopFrame struct {
	label       string
	breakTo     *Block
	continueTo  *Block // nil inside switch/select frames
	isLoop      bool
	isSwitchish bool
}

type cfgBuilder struct {
	info   *types.Info
	cfg    *CFG
	cur    *Block
	frames []loopFrame
	labels map[string]*Block
	gotos  []struct {
		from  *Block
		label string
	}
	// nextLabel carries a pending statement label from a LabeledStmt to
	// the frame its inner for/range/switch/select pushes.
	nextLabel string
}

// BuildCFG lowers body to a control-flow graph. info may be nil, in
// which case no-return call detection is disabled.
func BuildCFG(info *types.Info, body *ast.BlockStmt) *CFG {
	b := &cfgBuilder{
		info:   info,
		cfg:    &CFG{},
		labels: make(map[string]*Block),
	}
	b.cfg.Entry = b.newBlock()
	b.cfg.Exit = b.newBlock()
	b.cur = b.cfg.Entry
	b.stmts(body.List)
	b.moveTo(b.cfg.Exit)
	for _, g := range b.gotos {
		if target, ok := b.labels[g.label]; ok {
			g.from.Succs = append(g.from.Succs, target)
		}
	}
	return b.cfg
}

func (b *cfgBuilder) newBlock() *Block {
	blk := &Block{Index: len(b.cfg.Blocks)}
	b.cfg.Blocks = append(b.cfg.Blocks, blk)
	return blk
}

// moveTo ends the current block with an unconditional edge to next and
// makes next current. A nil current block (dead code after return/
// break) just resumes at next with no incoming edge.
func (b *cfgBuilder) moveTo(next *Block) {
	if b.cur != nil {
		b.cur.Succs = append(b.cur.Succs, next)
	}
	b.cur = next
}

// edgeTo adds an edge from the current block without changing it.
func (b *cfgBuilder) edgeTo(to *Block) {
	if b.cur != nil {
		b.cur.Succs = append(b.cur.Succs, to)
	}
}

// append records a node in the current block, resurrecting an
// unreachable block for dead code so analyzers still see its nodes
// (they just carry no incoming state).
func (b *cfgBuilder) append(n ast.Node) {
	if b.cur == nil {
		b.cur = b.newBlock()
	}
	b.cur.Nodes = append(b.cur.Nodes, n)
}

func (b *cfgBuilder) stmts(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

func (b *cfgBuilder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmts(s.List)

	case *ast.IfStmt:
		if s.Init != nil {
			b.append(s.Init)
		}
		b.append(s.Cond)
		thenBlk := b.newBlock()
		join := b.newBlock()
		b.edgeTo(thenBlk)
		if s.Else != nil {
			elseBlk := b.newBlock()
			b.edgeTo(elseBlk)
			b.cur = elseBlk
			b.stmt(s.Else)
			b.moveTo(join)
		} else {
			b.edgeTo(join)
		}
		b.cur = thenBlk
		b.stmts(s.Body.List)
		b.moveTo(join)

	case *ast.ForStmt:
		if s.Init != nil {
			b.append(s.Init)
		}
		head := b.newBlock()
		body := b.newBlock()
		after := b.newBlock()
		post := head
		if s.Post != nil {
			post = b.newBlock()
		}
		b.moveTo(head)
		b.cur = head
		b.edgeTo(body)
		if s.Cond != nil {
			b.append(s.Cond)
			b.edgeTo(after)
		}
		b.pushFrame(loopFrame{label: b.pendingLabel(s), breakTo: after, continueTo: post, isLoop: true})
		b.cur = body
		b.stmts(s.Body.List)
		if s.Post != nil {
			b.moveTo(post)
			b.append(s.Post)
			b.moveTo(head)
		} else {
			b.moveTo(head)
		}
		b.popFrame()
		b.cur = after

	case *ast.RangeStmt:
		head := b.newBlock()
		body := b.newBlock()
		after := b.newBlock()
		b.moveTo(head)
		b.cur = head
		// The RangeStmt itself carries the key/value assignment and the
		// ranged expression; analyzers see it once per loop head.
		b.append(s)
		b.edgeTo(body)
		b.edgeTo(after)
		b.pushFrame(loopFrame{label: b.pendingLabel(s), breakTo: after, continueTo: head, isLoop: true})
		b.cur = body
		b.stmts(s.Body.List)
		b.moveTo(head)
		b.popFrame()
		b.cur = after

	case *ast.SwitchStmt:
		if s.Init != nil {
			b.append(s.Init)
		}
		if s.Tag != nil {
			b.append(s.Tag)
		}
		b.caseClauses(s, s.Body.List, func(cc *ast.CaseClause) []ast.Stmt { return cc.Body })

	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			b.append(s.Init)
		}
		b.append(s.Assign)
		b.caseClauses(s, s.Body.List, func(cc *ast.CaseClause) []ast.Stmt { return cc.Body })

	case *ast.SelectStmt:
		head := b.cur
		after := b.newBlock()
		b.pushFrame(loopFrame{label: b.pendingLabel(s), breakTo: after, isSwitchish: true})
		for _, clause := range s.Body.List {
			cc := clause.(*ast.CommClause)
			blk := b.newBlock()
			if head != nil {
				head.Succs = append(head.Succs, blk)
			}
			b.cur = blk
			if cc.Comm != nil {
				b.stmt(cc.Comm)
			}
			b.stmts(cc.Body)
			b.moveTo(after)
		}
		b.popFrame()
		if len(s.Body.List) == 0 {
			// `select {}` blocks forever: after is unreachable.
			b.cur = after
			return
		}
		b.cur = after

	case *ast.LabeledStmt:
		target := b.newBlock()
		b.moveTo(target)
		b.labels[s.Label.Name] = target
		// Hand the label down so the labeled for/switch/select frame can
		// resolve `break L` / `continue L`.
		b.nextLabel = s.Label.Name
		b.stmt(s.Stmt)
		b.nextLabel = ""

	case *ast.BranchStmt:
		switch s.Tok {
		case token.BREAK:
			if t := b.findBreak(labelName(s.Label)); t != nil {
				b.moveTo(t)
			}
			b.cur = nil
		case token.CONTINUE:
			if t := b.findContinue(labelName(s.Label)); t != nil {
				b.moveTo(t)
			}
			b.cur = nil
		case token.GOTO:
			if b.cur != nil {
				b.gotos = append(b.gotos, struct {
					from  *Block
					label string
				}{b.cur, labelName(s.Label)})
			}
			b.cur = nil
		case token.FALLTHROUGH:
			// Handled structurally by caseClauses (the clause-end edge
			// goes to the next clause body); nothing to record here.
		}

	case *ast.ReturnStmt:
		b.append(s)
		b.moveTo(b.cfg.Exit)
		b.cur = nil

	default:
		// Straight-line statements: assignments, calls, declarations,
		// defers, go statements, sends, inc/dec.
		b.append(s)
		if b.terminates(s) {
			b.cur = nil
		}
	}
}

// pendingLabel consumes the label a surrounding LabeledStmt set for the
// statement being lowered.
func (b *cfgBuilder) pendingLabel(ast.Stmt) string {
	l := b.nextLabel
	b.nextLabel = ""
	return l
}

// caseClauses lowers switch/type-switch bodies: every clause is entered
// from the head block, fallthrough chains clause bodies, and a missing
// default adds a direct head→after edge.
func (b *cfgBuilder) caseClauses(s ast.Stmt, clauses []ast.Stmt, body func(*ast.CaseClause) []ast.Stmt) {
	head := b.cur
	after := b.newBlock()
	b.pushFrame(loopFrame{label: b.pendingLabel(s), breakTo: after, isSwitchish: true})
	blocks := make([]*Block, len(clauses))
	hasDefault := false
	for i, clause := range clauses {
		blocks[i] = b.newBlock()
		if len(clause.(*ast.CaseClause).List) == 0 {
			hasDefault = true
		}
	}
	for i, clause := range clauses {
		cc := clause.(*ast.CaseClause)
		if head != nil {
			head.Succs = append(head.Succs, blocks[i])
		}
		b.cur = blocks[i]
		for _, e := range cc.List {
			b.append(e)
		}
		stmts := body(cc)
		fallsThrough := false
		if n := len(stmts); n > 0 {
			if br, ok := stmts[n-1].(*ast.BranchStmt); ok && br.Tok == token.FALLTHROUGH {
				fallsThrough = true
			}
		}
		b.stmts(stmts)
		if fallsThrough && i+1 < len(clauses) {
			b.moveTo(blocks[i+1])
			b.cur = nil
		} else {
			b.moveTo(after)
		}
	}
	b.popFrame()
	if !hasDefault && head != nil {
		head.Succs = append(head.Succs, after)
	}
	b.cur = after
}

func (b *cfgBuilder) pushFrame(f loopFrame) { b.frames = append(b.frames, f) }
func (b *cfgBuilder) popFrame()             { b.frames = b.frames[:len(b.frames)-1] }

func (b *cfgBuilder) findBreak(label string) *Block {
	for i := len(b.frames) - 1; i >= 0; i-- {
		f := b.frames[i]
		if label == "" || f.label == label {
			return f.breakTo
		}
	}
	return nil
}

func (b *cfgBuilder) findContinue(label string) *Block {
	for i := len(b.frames) - 1; i >= 0; i-- {
		f := b.frames[i]
		if !f.isLoop {
			continue
		}
		if label == "" || f.label == label {
			return f.continueTo
		}
	}
	return nil
}

func labelName(id *ast.Ident) string {
	if id == nil {
		return ""
	}
	return id.Name
}

// terminates reports whether s unconditionally transfers control out of
// the function (a call that never returns).
func (b *cfgBuilder) terminates(s ast.Stmt) bool {
	es, ok := s.(*ast.ExprStmt)
	if !ok {
		return false
	}
	call, ok := es.X.(*ast.CallExpr)
	if !ok {
		return false
	}
	return CallTerminates(b.info, call)
}

// noReturnFuncs are package-level functions that never return to the
// caller, keyed by (*types.Func).FullName().
var noReturnFuncs = map[string]bool{
	"os.Exit":        true,
	"runtime.Goexit": true,
	"log.Fatal":      true,
	"log.Fatalf":     true,
	"log.Fatalln":    true,
	"log.Panic":      true,
	"log.Panicf":     true,
	"log.Panicln":    true,
}

// noReturnTestingMethods are methods of testing.T/B/F/TB that stop the
// goroutine via runtime.Goexit.
var noReturnTestingMethods = map[string]bool{
	"Fatal":   true,
	"Fatalf":  true,
	"FailNow": true,
	"Skip":    true,
	"Skipf":   true,
	"SkipNow": true,
}

// CallTerminates reports whether call never returns control to the
// caller. info may be nil (then only builtin panic is recognized).
func CallTerminates(info *types.Info, call *ast.CallExpr) bool {
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
		if info == nil {
			return true
		}
		if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
			return true
		}
	}
	if info == nil {
		return false
	}
	f := calleeFunc(info, call)
	if f == nil {
		return false
	}
	if noReturnFuncs[f.FullName()] {
		return true
	}
	if f.Pkg() != nil && f.Pkg().Path() == "testing" && noReturnTestingMethods[f.Name()] {
		return true
	}
	return false
}

// ReversePostorder returns the CFG's blocks in reverse postorder from
// Entry — the iteration order that makes forward dataflow converge
// fastest. Blocks unreachable from Entry come after, in index order, so
// analyzers still visit dead code deterministically.
func (c *CFG) ReversePostorder() []*Block {
	seen := make([]bool, len(c.Blocks))
	var post []*Block
	var visit func(*Block)
	visit = func(blk *Block) {
		if seen[blk.Index] {
			return
		}
		seen[blk.Index] = true
		for _, succ := range blk.Succs {
			visit(succ)
		}
		post = append(post, blk)
	}
	visit(c.Entry)
	out := make([]*Block, 0, len(c.Blocks))
	for i := len(post) - 1; i >= 0; i-- {
		out = append(out, post[i])
	}
	for _, blk := range c.Blocks {
		if !seen[blk.Index] {
			out = append(out, blk)
		}
	}
	return out
}

// FlowProblem defines a forward dataflow analysis over a CFG for state
// type S. States must be treated as immutable by Transfer (copy before
// mutating); a nil-equivalent "unreachable" is represented
// by the solver, not by S.
type FlowProblem[S any] struct {
	// Entry is the state on entry to the function.
	Entry S
	// Meet joins two reachable predecessor states.
	Meet func(a, b S) S
	// Transfer folds one block's nodes over the incoming state.
	Transfer func(s S, blk *Block) S
	// Equal reports state equality, bounding the fixpoint iteration.
	Equal func(a, b S) bool
}

// Solve runs the problem to fixpoint and returns the state at the
// *entry* of every block (indexed by Block.Index) plus the state at
// CFG.Exit's entry (the function's all-paths postcondition). The
// returned reached slice flags blocks reachable from Entry; analyzers
// must not report on unreached blocks' states.
func Solve[S any](c *CFG, p FlowProblem[S]) (in []S, reached []bool) {
	order := c.ReversePostorder()
	in = make([]S, len(c.Blocks))
	reached = make([]bool, len(c.Blocks))
	out := make([]S, len(c.Blocks))
	outSet := make([]bool, len(c.Blocks))

	in[c.Entry.Index] = p.Entry
	reached[c.Entry.Index] = true

	for changed := true; changed; {
		changed = false
		for _, blk := range order {
			if !reached[blk.Index] {
				continue
			}
			o := p.Transfer(in[blk.Index], blk)
			if !outSet[blk.Index] || !p.Equal(out[blk.Index], o) {
				out[blk.Index] = o
				outSet[blk.Index] = true
				changed = true
			}
			for _, succ := range blk.Succs {
				s := out[blk.Index]
				ti := succ.Index
				if !reached[ti] {
					in[ti] = s
					reached[ti] = true
					changed = true
				} else if merged := p.Meet(in[ti], s); !p.Equal(in[ti], merged) {
					in[ti] = merged
					changed = true
				}
			}
		}
	}
	return in, reached
}
