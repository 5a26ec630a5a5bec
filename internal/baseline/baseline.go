// Package baseline reimplements the comparator algorithm of Chlamtac,
// Faragó & Zhang, "Lightpath (wavelength) routing in large WDM networks"
// (IEEE JSAC 14(5), 1996) — reference [4] of the reproduced paper — so the
// Sec. III-C comparison experiments have a faithful head-to-head opponent.
//
// CFZ reduce the optimal-semilightpath problem to shortest paths on the
// wavelength graph WG: a layered graph with exactly k·n nodes, one per
// (wavelength, network-node) pair, regardless of which wavelengths are
// actually available anywhere. Arcs are
//
//	(λ, u) → (λ, v)  with weight w(⟨u,v⟩, λ)      when λ ∈ Λ(⟨u,v⟩), and
//	(λp, v) → (λq, v) with weight c_v(λp, λq)      when the conversion exists.
//
// Run with the linear-scan Dijkstra of the era, the algorithm costs
// O((kn)·(k+n)) = O(k²n + kn²): every node of WG has at most (k−1)+d_out
// out-neighbours. The reproduced paper's Sec. I additionally notes WG
// must be represented with adjacency lists — an adjacency matrix alone
// already costs Θ(k²n²) to initialize; BenchmarkWGRepresentation (E9)
// demonstrates that erratum empirically.
//
// # Semantic caveat: conversion chaining
//
// A WG walk may traverse several conversion arcs consecutively at one
// node — converting λp→λr→λq — which Equation (1) of the semilightpath
// model cannot express: the path cost there charges the DIRECT cost
// c_v(λp,λq) at each junction. The two models coincide exactly when the
// conversion function is transitively closed (c_v(p,q) ≤ c_v(p,r) +
// c_v(r,q) for all r, with ∞ propagating); uniform and unbounded-range
// distance converters are closed, but sparse tables and bounded-radius
// converters need not be. On non-closed instances WG's optimum can be
// strictly cheaper than every valid semilightpath, and the extracted hop
// sequence can fail wdm.Semilightpath.Validate. Liang & Shen's gadget
// construction (package core) is immune: each gadget is a single
// bipartite X_v→Y_v layer, so a path performs at most one conversion per
// node visit — it is both faster AND a correctness refinement. The test
// TestChainedConversionDivergence pins this behaviour down.
package baseline

import (
	"errors"
	"fmt"

	"lightpath/internal/graph"
	"lightpath/internal/wdm"
)

// Errors returned by the baseline solver.
var (
	// ErrNoRoute is returned when no semilightpath exists from s to t.
	ErrNoRoute = errors.New("baseline: no semilightpath exists")
	// ErrNodeRange is returned for out-of-range endpoints.
	ErrNodeRange = errors.New("baseline: node out of range")
	// ErrNilNetwork is returned when the network is nil.
	ErrNilNetwork = errors.New("baseline: nil network")
)

// Arc tags: non-negative tags are physical link IDs, tagConv marks
// conversion arcs, tagSuper marks super-terminal arcs.
const (
	tagConv  int32 = -1
	tagSuper int32 = -2
)

// WavelengthGraph is the compiled WG of a network plus the indexing
// needed to map shortest paths back to semilightpaths.
//
// Node layout: WG node for (λ, v) is λ*n + v; node k*n is the reserved
// super source (re-wired per query like core.Aux).
type WavelengthGraph struct {
	nw       *wdm.Network
	g        *graph.Digraph
	superSrc int
}

// NewWavelengthGraph compiles WG with adjacency lists, costing
// O(k²n + kn²) time — the representation CFZ's complexity analysis
// actually requires (see the package comment).
func NewWavelengthGraph(nw *wdm.Network) (*WavelengthGraph, error) {
	if nw == nil {
		return nil, ErrNilNetwork
	}
	n, k := nw.NumNodes(), nw.K()
	wg := &WavelengthGraph{
		nw:       nw,
		g:        graph.New(k*n + 1),
		superSrc: k * n,
	}

	// Link arcs: (λ,u) → (λ,v) for each channel λ of each link.
	for _, l := range nw.Links() {
		for _, ch := range l.Channels {
			u := int(ch.Lambda)*n + l.From
			v := int(ch.Lambda)*n + l.To
			if err := wg.g.AddArc(u, v, ch.Weight, int32(l.ID)); err != nil {
				return nil, fmt.Errorf("baseline: link arc %d: %w", l.ID, err)
			}
		}
	}

	// Conversion arcs: (λp,v) → (λq,v) for every node and wavelength
	// pair. This k²n loop — over ALL of Λ², available or not — is
	// precisely where CFZ pay more than the reproduced paper's
	// construction, which only touches wavelengths incident to v.
	conv := nw.Converter()
	if conv != nil {
		for v := 0; v < n; v++ {
			for p := 0; p < k; p++ {
				for q := 0; q < k; q++ {
					if p == q {
						continue
					}
					c := conv.Cost(v, wdm.Wavelength(p), wdm.Wavelength(q))
					// AddArc drops infinite weights (unsupported pairs).
					if err := wg.g.AddArc(p*n+v, q*n+v, c, tagConv); err != nil {
						return nil, fmt.Errorf("baseline: conversion arc at %d: %w", v, err)
					}
				}
			}
		}
	}
	return wg, nil
}

// NumArcs reports |E(WG)| (excluding current super-source wiring).
func (wg *WavelengthGraph) NumArcs() int {
	return wg.g.NumArcs() - wg.g.OutDegree(wg.superSrc)
}

// Result mirrors core.Result for the baseline algorithm.
type Result struct {
	Path   *wdm.Semilightpath
	Cost   float64
	Source int
	Dest   int
	// Settled and Relaxed count Dijkstra work for the comparison tables.
	Settled int
	Relaxed int
}

// Route finds an optimal semilightpath from s to t on the wavelength
// graph. The queue kind selects the CFZ-era linear-scan Dijkstra
// (graph.QueueLinear, the published O(k²n+kn²) algorithm) or a modernized
// heap variant for ablations. Calls must be externally serialized.
func (wg *WavelengthGraph) Route(s, t int, kind graph.QueueKind) (*Result, error) {
	n := wg.nw.NumNodes()
	if s < 0 || s >= n {
		return nil, fmt.Errorf("%w: source %d", ErrNodeRange, s)
	}
	if t < 0 || t >= n {
		return nil, fmt.Errorf("%w: dest %d", ErrNodeRange, t)
	}
	if s == t {
		return &Result{Path: &wdm.Semilightpath{}, Source: s, Dest: t}, nil
	}
	// Wire the super source to (λ, s) for every wavelength.
	wg.g.ClearOut(wg.superSrc)
	k := wg.nw.K()
	for lam := 0; lam < k; lam++ {
		_ = wg.g.AddArc(wg.superSrc, lam*n+s, 0, tagSuper)
	}

	tree, err := graph.Dijkstra(wg.g, wg.superSrc, -1, kind)
	if err != nil {
		return nil, fmt.Errorf("baseline: dijkstra: %w", err)
	}

	best, bestNode := graph.Inf, -1
	for lam := 0; lam < k; lam++ {
		if d := tree.Dist[lam*n+t]; d < best {
			best = d
			bestNode = lam*n + t
		}
	}
	if bestNode < 0 {
		return nil, fmt.Errorf("%w: from %d to %d", ErrNoRoute, s, t)
	}
	path, err := wg.extractPath(tree, bestNode)
	if err != nil {
		return nil, err
	}
	return &Result{
		Path:    path,
		Cost:    best,
		Source:  s,
		Dest:    t,
		Settled: tree.Settled,
		Relaxed: tree.Relaxed,
	}, nil
}

// extractPath maps a WG shortest path back to a semilightpath: link arcs
// carry their link ID in the tag, and the wavelength is the layer of the
// arc's tail node.
func (wg *WavelengthGraph) extractPath(tree *graph.ShortestPathTree, goal int) (*wdm.Semilightpath, error) {
	hops, err := tree.ArcsTo(goal)
	if err != nil {
		return nil, fmt.Errorf("baseline: reconstruct: %w", err)
	}
	n := wg.nw.NumNodes()
	path := &wdm.Semilightpath{}
	for _, h := range hops {
		arc := wg.g.Out(h.From)[h.ArcIndex]
		if arc.Tag < 0 {
			continue
		}
		path.Hops = append(path.Hops, wdm.Hop{
			Link:       int(arc.Tag),
			Wavelength: wdm.Wavelength(h.From / n),
		})
	}
	return path, nil
}

// FindSemilightpath is the one-shot convenience wrapper: build WG and
// answer a single query with the published linear-scan algorithm.
func FindSemilightpath(nw *wdm.Network, s, t int) (*Result, error) {
	wg, err := NewWavelengthGraph(nw)
	if err != nil {
		return nil, err
	}
	return wg.Route(s, t, graph.QueueLinear)
}
