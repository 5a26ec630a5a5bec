package analysis

// Per-function summaries: the mechanism that lets lockorder see
// through helper functions. An interprocedural analyzer owns a
// summaries[T] holding one fact of type T per function, keyed by
// (*types.Func).FullName(), computed on demand from the function's body
// and memoized for the rest of the lint run.
//
// Bodies are indexed per package as packages are analyzed; because the
// loader returns packages in dependency order, a callee's body has
// always been indexed by the time a caller in another package asks for
// its summary. Functions with no indexed body (the standard library,
// recursion in flight) get the analyzer's conservative default.

import (
	"go/ast"
	"go/types"
)

// summaries memoizes one fact per function for a single analyzer
// instance. The zero value is not ready; use newSummaries.
type summaries[T any] struct {
	facts  map[string]T
	inFly  map[string]bool
	bodies map[string]funcBody
	// fallback is returned for unknown functions and for recursion
	// cycles mid-computation — the analyzer's "assume nothing" value.
	fallback T
}

type funcBody struct {
	decl *ast.FuncDecl
	info *types.Info
}

func newSummaries[T any](fallback T) *summaries[T] {
	return &summaries[T]{
		facts:    make(map[string]T),
		inFly:    make(map[string]bool),
		bodies:   make(map[string]funcBody),
		fallback: fallback,
	}
}

// index records every function declaration in the pass's files so
// later compute calls can find bodies by FullName. Files outside the
// pass (filtered test files) are deliberately invisible.
func (s *summaries[T]) index(pass *Pass) {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := pass.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			s.bodies[fn.FullName()] = funcBody{decl: fd, info: pass.Info}
		}
	}
}

// of returns the memoized summary for fn, computing it via compute on
// first use. Unknown bodies and recursion cycles yield the fallback.
// compute receives the declaration and the *types.Info of its defining
// package (which may differ from the current pass's).
func (s *summaries[T]) of(fn *types.Func, compute func(fb funcBody) T) T {
	if fn == nil {
		return s.fallback
	}
	key := fn.FullName()
	if fact, ok := s.facts[key]; ok {
		return fact
	}
	fb, ok := s.bodies[key]
	if !ok || s.inFly[key] {
		return s.fallback
	}
	s.inFly[key] = true
	fact := compute(fb)
	delete(s.inFly, key)
	s.facts[key] = fact
	return fact
}

// funcDecls yields every function declaration with a body in the
// pass's files along with its *types.Func.
func funcDecls(pass *Pass, yield func(fd *ast.FuncDecl, fn *types.Func)) {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := pass.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			yield(fd, fn)
		}
	}
}
