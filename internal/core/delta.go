package core

import (
	"fmt"

	"lightpath/internal/graph"
	"lightpath/internal/wdm"
)

// This file implements incremental auxiliary-graph maintenance. The
// observation (Liang & Shen's construction, read structurally): G' is a
// union of per-node gadget fragments glued by E_org arcs, and a residual
// mutation on link e = (u,v) only perturbs the E_org arcs (e,λ) — all of
// which leave Y_u shore nodes. Conversion arcs depend on the shore
// wavelength sets and the converter only, and with a fixed layout
// (NewAuxWithLayout) the shores never move. So the next epoch's compiled
// graph is the parent's graph with the out-segments of the affected Y_u
// nodes re-emitted, everything else shared — O(affected fragment)
// instead of O(k²n + km).

// ApplyDelta produces the compiled auxiliary graph of the next residual
// network from this one by copy-on-write: the adjacency page table is
// copied (|V'|/32 pointers) and only the out-segments of Y-shore nodes
// incident to the changed links are re-emitted, each copying the spine
// page it sits on once; every other segment — all gadget conversion arcs
// and the E_org arcs of untouched links — is shared structurally with the
// parent. Shore indexes, node identities, the pass-through mask and the
// scratch pool are shared outright. Cost: O(|changed| · k · d_out + pages
// touched).
//
// next must be a sub-network of this graph's layout, differing from the
// current residual only on the links listed in changed (listing an
// unchanged link is harmless, just wasted re-emission). A mutation the
// layout cannot express — a channel on a wavelength outside the layout
// shores, changed topology — returns ErrDeltaShape; callers fall back
// to a full NewAuxWithLayout compile.
//
// The result is equivalent to NewAuxWithLayout(layout, next) arc-for-arc
// (same node IDs, same per-segment arc order), so routing on a delta
// chain is indistinguishable — including tie-breaking — from routing on
// a fresh full compile of the same layout.
func (a *Aux) ApplyDelta(next *wdm.Network, changed []int) (*Aux, error) {
	if next == nil {
		return nil, ErrNilNetwork
	}
	// A residual patched from this graph's own shares its topology by
	// construction, and that one was checked when it was compiled; any
	// other input is compared against the layout link by link.
	if !next.SameTopology(a.nw) {
		if err := checkSubNetwork(a.layout, next); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrDeltaShape, err)
		}
	}

	child := &Aux{
		nw:          next,
		layout:      a.layout,
		g:           a.g.CloneCOW(),
		info:        a.info,
		xStart:      a.xStart,
		xLambdas:    a.xLambdas,
		yStart:      a.yStart,
		yLambdas:    a.yLambdas,
		yPass:       a.yPass,
		bucketWidth: a.bucketWidth,
		treePays:    a.treePays,
		boundGrid:   a.boundGrid,
		stats:       a.stats,
		depth:       a.depth + 1,
		pool:        a.pool,
	}

	// The affected fragment: for each changed link e=(u,v), every
	// wavelength the *layout* installs on e names a Y_u(λ) whose
	// out-segment may gain or lose the (e,λ) arc. Wavelengths beyond the
	// layout set cannot appear (checked here), and wavelengths on other
	// links of u are untouched by e.
	room := 0
	for _, id := range changed {
		if id < 0 || id >= a.layout.NumLinks() {
			return nil, fmt.Errorf("%w: changed link %d of %d", ErrDeltaShape, id, a.layout.NumLinks())
		}
		ll := a.layout.Link(id)
		for _, ch := range next.Link(id).Channels {
			if _, ok := ll.Has(ch.Lambda); !ok {
				return nil, fmt.Errorf("%w: λ%d on link %d is outside the layout channel set",
					ErrDeltaShape, ch.Lambda, id)
			}
		}
		room += len(ll.Channels) * next.OutDegree(ll.From)
	}

	// Re-emit each touched segment from the next residual into one arena,
	// every segment at full capacity. Since a Y_u(λ) segment holds the arcs
	// of *every* link leaving u that carries λ, re-emission scans all of
	// u's outgoing links; arc order matches the full compile, because
	// Network.Out lists link IDs ascending, exactly the order pass 3 of
	// NewAuxWithLayout visits them. Two changed links leaving one node
	// re-emit the wavelengths they share twice, to the same result.
	arena := make([]graph.Arc, 0, room)
	for _, id := range changed {
		u := a.layout.Link(id).From
		for _, ch := range a.layout.Link(id).Channels {
			lam := ch.Lambda
			y, ok := a.yIndex(u, lam)
			if !ok {
				return nil, fmt.Errorf("%w: λ%d missing from layout shore Y_%d", ErrDeltaShape, lam, u)
			}
			start := len(arena)
			for _, lid := range next.Out(u) {
				link := next.Link(int(lid))
				w, ok := link.Has(lam)
				if !ok {
					continue
				}
				x, ok := a.xIndex(link.To, lam)
				if !ok {
					return nil, fmt.Errorf("%w: λ%d missing from layout shore X_%d", ErrDeltaShape, lam, link.To)
				}
				arena = append(arena, graph.Arc{To: int32(x), Weight: w, Tag: int32(link.ID)})
			}
			if err := child.g.ReplaceOut(y, arena[start:len(arena):len(arena)]); err != nil {
				return nil, fmt.Errorf("core: patch segment Y_%d(λ%d): %w", u, lam, err)
			}
		}
	}

	child.stats.OrgArcs = child.g.NumArcs() - child.stats.GadgetArcs
	child.stats.MultigraphArc = next.TotalChannels()
	return child, nil
}
