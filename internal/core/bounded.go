package core

import (
	"fmt"
	"math"

	"lightpath/internal/graph"
	"lightpath/internal/wdm"
)

// This file implements hop-bounded optimal routing. The paper's
// introduction lists "lightwave dispersions that limit the physical
// length of a lightpath" among the constraints motivating
// semilightpaths; bounding the number of physical hops is the standard
// discrete stand-in for such reach limits.
//
// The solver is a layered Bellman–Ford over the auxiliary graph where
// only E_org arcs (physical hops) consume budget — gadget arcs are
// intra-node and free — costing O(maxHops · |E'|) time, which is the
// textbook bound for the hop-constrained shortest path problem (the
// problem with BOTH a hop bound and general costs cannot use plain
// Dijkstra, whose settled-is-final invariant breaks under the second
// criterion).

// RouteBounded finds the minimum-cost semilightpath from s to t using at
// most maxHops physical links. It returns ErrNoRoute when t is not
// reachable within the bound; RouteBounded with a generous bound matches
// Route exactly.
//
// Options are honored like Route: Span opens a timed
// core_bounded_search child carrying the search anatomy. The layered DP
// has no priority queue, so Options.Queue (and Directed) apply only when
// the bound provably cannot bind — maxHops ≥ |V'|, where any optimal
// semilightpath fits — in which case the query delegates to Route
// wholesale.
func (a *Aux) RouteBounded(s, t, maxHops int, opts *Options) (*Result, error) {
	if s < 0 || s >= a.nw.NumNodes() {
		return nil, fmt.Errorf("%w: source %d", ErrNodeRange, s)
	}
	if t < 0 || t >= a.nw.NumNodes() {
		return nil, fmt.Errorf("%w: dest %d", ErrNodeRange, t)
	}
	if maxHops < 0 {
		return nil, fmt.Errorf("core: maxHops must be non-negative, got %d", maxHops)
	}
	if s == t {
		return &Result{Path: &wdm.Semilightpath{}, Source: s, Dest: t}, nil
	}

	nAux := a.NumAuxNodes()
	if maxHops >= nAux {
		// An optimal semilightpath can always be chosen simple in the
		// auxiliary graph (non-negative weights), so it crosses fewer
		// than |V'| E_org arcs and the hop bound cannot exclude it:
		// delegate to the unbounded search, which honors the configured
		// queue kind and directed mode.
		return a.Route(s, t, opts)
	}

	inf := math.Inf(1)
	// dist[h][v]: cheapest cost reaching aux node v with exactly ≤h
	// physical hops consumed. Two rolling layers suffice for the DP, but
	// path reconstruction needs all layers' parents.
	type parentRef struct {
		hop      int16 // layer the predecessor lives in
		from     int32 // predecessor aux node
		arcIndex int32
	}
	layers := make([][]float64, maxHops+1)
	parents := make([][]parentRef, maxHops+1)
	for h := range layers {
		layers[h] = make([]float64, nAux)
		parents[h] = make([]parentRef, nAux)
		for v := range layers[h] {
			layers[h][v] = inf
			parents[h][v] = parentRef{from: -1}
		}
	}
	for _, seed := range a.sourceSeeds(nil, s) {
		layers[0][seed] = 0
	}

	// DP work counters, reported through Result.Stats and the span like
	// Route's: a "settled" state is one finite (layer, node) expansion, a
	// "relaxation" one arc examined out of it.
	settled, relaxed := 0, 0

	// Within a layer, relax gadget arcs to a fixpoint (each aux node has
	// at most one gadget arc on any path — X→Y — so a single pass over
	// X-side nodes suffices given our node ordering is per-node X then Y).
	relaxGadgets := func(h int) {
		for v := 0; v < nAux; v++ {
			dv := layers[h][v]
			if graph.IsInf(dv) {
				continue
			}
			settled++
			for i, arc := range a.g.Out(v) {
				if arc.Tag != tagConversion {
					continue
				}
				relaxed++
				if nd := dv + arc.Weight; nd < layers[h][arc.To] {
					layers[h][arc.To] = nd
					parents[h][arc.To] = parentRef{hop: int16(h), from: int32(v), arcIndex: int32(i)}
				}
			}
		}
	}
	relaxGadgets(0)
	for h := 1; h <= maxHops; h++ {
		// Carrying over: using fewer hops is always allowed. Copied
		// parent entries keep their original layer index, so the
		// reconstruction walk naturally drops into the right layer.
		copy(layers[h], layers[h-1])
		copy(parents[h], parents[h-1])
		// Physical hops from layer h-1 to layer h.
		for v := 0; v < nAux; v++ {
			dv := layers[h-1][v]
			if graph.IsInf(dv) {
				continue
			}
			settled++
			for i, arc := range a.g.Out(v) {
				if arc.Tag < 0 {
					continue // gadget arcs handled per layer
				}
				relaxed++
				if nd := dv + arc.Weight; nd < layers[h][arc.To] {
					layers[h][arc.To] = nd
					parents[h][arc.To] = parentRef{hop: int16(h - 1), from: int32(v), arcIndex: int32(i)}
				}
			}
		}
		relaxGadgets(h)
	}
	stats := a.searchStats(s, t, settled, relaxed)

	// Virtual super sink over X_t at the final layer.
	best, bestX := inf, -1
	for xi := range a.xLambdas[t] {
		x := int(a.xStart[t]) + xi
		if layers[maxHops][x] < best {
			best = layers[maxHops][x]
			bestX = x
		}
	}
	if bestX < 0 {
		return nil, fmt.Errorf("%w: from %d to %d within %d hops", ErrNoRoute, s, t, maxHops)
	}

	// Reconstruct by walking parents across layers.
	var hops []wdm.Hop
	h, v := maxHops, bestX
	for steps := 0; ; steps++ {
		if steps > (maxHops+1)*(nAux+1) {
			return nil, fmt.Errorf("core: bounded reconstruction runaway")
		}
		p := parents[h][v]
		if p.from < 0 {
			break // reached a seed
		}
		arc := a.g.Out(int(p.from))[p.arcIndex]
		if arc.Tag >= 0 {
			hops = append(hops, wdm.Hop{Link: int(arc.Tag), Wavelength: a.info[p.from].Lambda})
		}
		h, v = int(p.hop), int(p.from)
	}
	for i, j := 0, len(hops)-1; i < j; i, j = i+1, j-1 {
		hops[i], hops[j] = hops[j], hops[i]
	}
	path := &wdm.Semilightpath{Hops: hops}
	return &Result{
		Path:   path,
		Cost:   best,
		Source: s,
		Dest:   t,
		Stats:  stats,
	}, nil
}
