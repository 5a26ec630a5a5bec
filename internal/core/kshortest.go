package core

import (
	"fmt"
	"slices"
	"sort"

	"lightpath/internal/graph"
	"lightpath/internal/wdm"
)

// This file implements K-shortest semilightpath enumeration — the
// alternate-routing primitive of dynamic RWA systems (if the best path's
// wavelengths are contended, try the second best, and so on). It runs
// Yen's algorithm over the same auxiliary graph G_{s,t} the single-path
// solver uses, so every candidate is simple in the auxiliary graph:
// distinct candidates may still revisit *physical* nodes on different
// wavelengths, exactly like the optimal path itself (Fig. 5 semantics).

// KShortest returns up to count lowest-cost semilightpaths from s to t
// in nondecreasing cost order. The first result equals Route's optimum.
// Fewer than count paths are returned when the auxiliary graph admits
// fewer simple paths.
func (a *Aux) KShortest(s, t, count int) ([]*Result, error) {
	if s < 0 || s >= a.nw.NumNodes() {
		return nil, fmt.Errorf("%w: source %d", ErrNodeRange, s)
	}
	if t < 0 || t >= a.nw.NumNodes() {
		return nil, fmt.Errorf("%w: dest %d", ErrNodeRange, t)
	}
	if count <= 0 {
		return nil, fmt.Errorf("core: count must be positive, got %d", count)
	}
	if s == t {
		return []*Result{{Path: &wdm.Semilightpath{}, Source: s, Dest: t}}, nil
	}

	// Yen's bookkeeping wants single endpoints, so unlike Route the query
	// materializes s′ and t″ — on a copy-on-write clone of G′. Every
	// segment the query writes is replaced by a fresh slice, never
	// appended to, so the compiled graph's shared pages stay untouched.
	qg := a.g.CloneCOW()
	src := qg.AddNodes(2)
	sink := src + 1
	out := make([]graph.Arc, len(a.yLambdas[s]))
	for yi := range out {
		out[yi] = graph.Arc{To: a.yStart[s] + int32(yi), Tag: tagSuper}
	}
	if err := qg.ReplaceOut(src, out); err != nil {
		return nil, err
	}
	for xi := range a.xLambdas[t] {
		x := int(a.xStart[t]) + xi
		arcs := append(slices.Clip(qg.Out(x)), graph.Arc{To: int32(sink), Tag: tagSuper})
		if err := qg.ReplaceOut(x, arcs); err != nil {
			return nil, err
		}
	}

	y := &yenState{g: qg, src: src, sink: sink, sc: graph.NewScratch(qg.NumNodes())}
	auxPaths, err := y.run(count)
	if err != nil {
		return nil, err
	}
	if len(auxPaths) == 0 {
		return nil, fmt.Errorf("%w: from %d to %d", ErrNoRoute, s, t)
	}

	results := make([]*Result, 0, len(auxPaths))
	for _, p := range auxPaths {
		path := a.auxArcsToPath(qg, p.arcs)
		results = append(results, &Result{
			Path:   path,
			Cost:   p.cost,
			Source: s,
			Dest:   t,
		})
	}
	return results, nil
}

// auxArcsToPath converts a query-graph arc walk into a semilightpath.
func (a *Aux) auxArcsToPath(qg *graph.Digraph, arcs []graph.HopRef) *wdm.Semilightpath {
	path := &wdm.Semilightpath{}
	for _, h := range arcs {
		arc := qg.Out(h.From)[h.ArcIndex]
		if arc.Tag < 0 {
			continue
		}
		path.Hops = append(path.Hops, wdm.Hop{
			Link:       int(arc.Tag),
			Wavelength: a.info[h.From].Lambda,
		})
	}
	return path
}

// auxPath is one enumerated path through the query graph.
type auxPath struct {
	arcs []graph.HopRef
	cost float64
}

// yenState runs Yen's loopless K-shortest-paths algorithm on the query
// graph, every spur search on one reused scratch.
type yenState struct {
	g    *graph.Digraph
	src  int
	sink int
	sc   *graph.Scratch
}

func (y *yenState) run(count int) ([]auxPath, error) {
	first, err := y.shortest(y.src, nil, nil)
	if err != nil {
		return nil, err
	}
	if first == nil {
		return nil, nil
	}
	accepted := []auxPath{*first}
	var candidates []auxPath

	for len(accepted) < count {
		prev := accepted[len(accepted)-1]
		var rootArcs []graph.HopRef
		var rootNodes []int
		rootCost := 0.0
		// Spur from every node of the previous path except the sink.
		for i, h := range prev.arcs {
			// Ban the next arc of every accepted path sharing this root,
			// so the spur search must deviate here.
			var banArcs []int
			for _, acc := range accepted {
				if len(acc.arcs) > i && sameRoot(acc.arcs, prev.arcs, i) {
					banArcs = append(banArcs, acc.arcs[i].ArcIndex)
				}
			}

			// Ban the root's nodes (all but the spur node) to keep
			// candidates loopless.
			spur, err := y.shortest(h.From, banArcs, rootNodes)
			if err != nil {
				return nil, err
			}
			if spur != nil {
				cand := auxPath{
					arcs: append(append([]graph.HopRef{}, rootArcs...), spur.arcs...),
					cost: rootCost + spur.cost,
				}
				if !containsPath(candidates, cand) && !containsPath(accepted, cand) {
					candidates = append(candidates, cand)
				}
			}

			rootArcs = append(rootArcs, h)
			rootNodes = append(rootNodes, h.From)
			rootCost += y.g.Out(h.From)[h.ArcIndex].Weight
		}
		if len(candidates) == 0 {
			break
		}
		sort.Slice(candidates, func(i, j int) bool { return candidates[i].cost < candidates[j].cost })
		accepted = append(accepted, candidates[0])
		candidates = candidates[1:]
	}
	return accepted, nil
}

func sameRoot(a, b []graph.HopRef, i int) bool {
	if len(a) < i || len(b) < i {
		return false
	}
	for j := 0; j < i; j++ {
		if a[j] != b[j] {
			return false
		}
	}
	return true
}

func containsPath(list []auxPath, p auxPath) bool {
	for _, q := range list {
		if len(q.arcs) != len(p.arcs) {
			continue
		}
		same := true
		for i := range q.arcs {
			if q.arcs[i] != p.arcs[i] {
				same = false
				break
			}
		}
		if same {
			return true
		}
	}
	return false
}

// shortest returns the cheapest path from start to the sink that leaves
// start by none of the banArcs (indexes into its out-segment) and passes
// through no banNodes, or nil when there is none. It runs the shared
// binary-heap search with those segments patched for the call: start's
// filtered, each banned node's emptied (a node that cannot be left is on
// no path to the sink); both are restored before it returns.
func (y *yenState) shortest(start int, banArcs, banNodes []int) (*auxPath, error) {
	saved := make([][]graph.Arc, len(banNodes))
	for i, u := range banNodes {
		saved[i] = y.g.Out(u)
		if err := y.g.ReplaceOut(u, nil); err != nil {
			return nil, err
		}
	}
	orig := y.g.Out(start)
	kept := make([]int, 0, len(orig)) // filtered arc index → original
	arcs := make([]graph.Arc, 0, len(orig))
	for i, arc := range orig {
		if !slices.Contains(banArcs, i) {
			kept = append(kept, i)
			arcs = append(arcs, arc)
		}
	}
	if err := y.g.ReplaceOut(start, arcs); err != nil {
		return nil, err
	}
	tree, err := graph.DijkstraSeedsUntilScratch(y.g, []int{start}, []int{y.sink}, graph.QueueBinary, y.sc, nil, nil, graph.Inf)
	if err != nil {
		return nil, err
	}
	var found *auxPath
	if tree.Reached(y.sink) {
		hops := graph.HopsTo(tree.Parent, tree.ViaArc, y.sink)
		hops[0].ArcIndex = kept[hops[0].ArcIndex]
		found = &auxPath{arcs: hops, cost: tree.Dist[y.sink]}
	}
	if err := y.g.ReplaceOut(start, orig); err != nil {
		return nil, err
	}
	for i, u := range banNodes {
		if err := y.g.ReplaceOut(u, saved[i]); err != nil {
			return nil, err
		}
	}
	return found, nil
}
