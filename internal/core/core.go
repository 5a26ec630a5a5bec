// Package core implements the paper's contribution: optimal
// lightpath/semilightpath routing by reduction to single-source shortest
// paths on a layered auxiliary graph (Liang & Shen, Sec. III).
//
// The construction pipeline is:
//
//	G           the physical WDM network (package wdm)
//	G_M         directed multigraph: one arc per (link, λ∈Λ(e)) pair
//	G_v         per-node bipartite conversion gadget Λ_in(G_M,v) → Λ_out(G_M,v)
//	G'          union of the gadgets plus E_org (the G_M arcs re-targeted
//	            at gadget nodes)
//	G_{s,t}     G' plus super-source s' and super-sink t''
//
// A shortest s'→t” path in G_{s,t} maps one-to-one onto an optimal
// semilightpath of G, including its per-link wavelength assignment and
// conversion switch settings (Theorem 1).
//
// Aux is the reusable compiled form of G'; Route answers (s,t) queries on
// it, and AllPairs realizes Corollary 1 via the G_all construction.
package core

import (
	"errors"
	"fmt"

	"lightpath/internal/graph"
	"lightpath/internal/wdm"
)

// Errors returned by the solver.
var (
	// ErrNoRoute is returned when no semilightpath exists from s to t.
	ErrNoRoute = errors.New("core: no semilightpath exists")
	// ErrNodeRange is returned for out-of-range endpoints.
	ErrNodeRange = errors.New("core: node out of range")
	// ErrNilNetwork is returned when the network is nil.
	ErrNilNetwork = errors.New("core: nil network")
	// ErrLayoutMismatch is returned when a residual network does not fit
	// the layout network's node space (NewAuxWithLayout, ApplyDelta).
	ErrLayoutMismatch = errors.New("core: residual network does not match layout")
	// ErrDeltaShape is returned by ApplyDelta for a mutation the parent
	// layout cannot express (e.g. a channel outside the layout shores).
	// Callers handle it by falling back to a full compile.
	ErrDeltaShape = errors.New("core: delta not expressible in parent layout")
)

// Arc tags on the auxiliary graph. Non-negative tags are physical link
// IDs (E_org arcs); negative tags mark intra-gadget and super arcs.
const (
	tagConversion int32 = -1 // gadget arc: wavelength conversion at a node
	tagSuper      int32 = -2 // super-source/sink arc, weight 0
)

// Side distinguishes the two shores of a conversion gadget.
type Side uint8

// Gadget shores: X holds incoming wavelengths, Y outgoing ones.
const (
	SideX Side = iota + 1 // x ∈ X_v ↔ λ ∈ Λ_in(G_M, v)
	SideY                 // y ∈ Y_v ↔ λ ∈ Λ_out(G_M, v)
)

// AuxNode describes one node of G': the gadget shore entry (Node, Lambda,
// Side). Exposed for tests and the distributed embedding.
type AuxNode struct {
	Node   int32
	Lambda wdm.Wavelength
	Side   Side
}

// Aux is the compiled auxiliary graph G' of a network, plus the index
// structures needed to answer routing queries and map shortest paths back
// to semilightpaths. Build it once with NewAux; the compiled graph is
// immutable, so any number of Route/RouteFrom/KShortest queries may run
// concurrently on one Aux.
//
// The gadget-node space (the shores) is derived from a *layout* network;
// for NewAux that is the compiled network itself, while NewAuxWithLayout
// and ApplyDelta compile a residual sub-network inside a wider fixed
// layout so node IDs stay stable across residual churn.
type Aux struct {
	nw     *wdm.Network // the network whose arcs are compiled (residual)
	layout *wdm.Network // the network whose shores define the node space

	g *graph.Digraph // G', gadget nodes 0..numAux-1

	info     []AuxNode // aux ID -> identity
	xStart   []int32   // per network node: first X_v aux ID
	xLambdas [][]wdm.Wavelength
	yStart   []int32 // per network node: first Y_v aux ID
	yLambdas [][]wdm.Wavelength
	// yPass[id] reports info[id].Side == SideY: the pass-through mask of
	// the binary-heap search. G' is bipartite (X_v → Y_v conversion arcs,
	// Y_u → X_v link arcs), so a Y node only ever forwards its key along
	// its link arcs and the queue need hold the X shore alone.
	yPass []bool
	// bucketWidth is the bucket width of the goal-less search
	// (graph.QueueBucket), from the layout's weight range: with the Y shore
	// passed through, a hop from one queued X node to the next crosses one
	// conversion arc and one link arc, so it weighs at least the lightest
	// layout channel and at most the heaviest plus the dearest conversion.
	// A residual holds a subset of the layout's channels, so the bounds
	// hold down the whole delta chain.
	bucketWidth float64
	// treePays is TreePays(DirectedAStar): max(2, ⌈|X shore| / n⌉), a
	// layout constant like bucketWidth.
	treePays int
	// boundGrid is the grid the physical bound pass rounds link minima
	// down to (bound.go), from the layout's node count and heaviest
	// channel: a layout constant like bucketWidth.
	boundGrid float64

	stats BuildStats
	depth int // ApplyDelta steps since the last full compile

	// pool recycles per-query Dijkstra scratch, keyed by this graph's
	// node count; delta-built children share their parent's pool since
	// the node space is identical.
	pool *scratchPool
}

// NewAux compiles G' for the given network. Cost: O(k²n + km) time and
// space (Observation 3); with per-link wavelength counts bounded by k0,
// O(d²nk0² + mk0) (Observation 5).
func NewAux(nw *wdm.Network) (*Aux, error) {
	return NewAuxWithLayout(nw, nw)
}

// NewAuxWithLayout compiles the auxiliary graph of residual inside the
// gadget-node layout of layout: shores and conversion arcs come from
// layout's wavelength sets, E_org arcs from residual's channels.
// residual must be a sub-network of layout — same node count, same
// wavelength count, same links (IDs and endpoints), with each link's
// channel set a subset of its layout channel set.
//
// Wavelengths present in layout but residually exhausted become
// unreachable gadget nodes rather than disappearing, so an Aux compiled
// this way answers every query with the same costs as NewAux(residual)
// while keeping node IDs stable as the residual churns — the property
// ApplyDelta's copy-on-write reuse depends on.
func NewAuxWithLayout(layout, residual *wdm.Network) (*Aux, error) {
	if layout == nil || residual == nil {
		return nil, ErrNilNetwork
	}
	if err := checkSubNetwork(layout, residual); err != nil {
		return nil, err
	}
	n := layout.NumNodes()
	a := &Aux{
		nw:       residual,
		layout:   layout,
		xStart:   make([]int32, n),
		xLambdas: make([][]wdm.Wavelength, n),
		yStart:   make([]int32, n),
		yLambdas: make([][]wdm.Wavelength, n),
	}

	// Pass 1: gadget shores. Λ_in(G_M,v)/Λ_out(G_M,v) equal the unions of
	// the channel sets on incident links (the multigraph adds no new
	// wavelengths, it only splits links into parallel arcs).
	total, xShore := 0, 0
	for v := 0; v < n; v++ {
		a.xLambdas[v] = layout.LambdaIn(v)
		a.yLambdas[v] = layout.LambdaOut(v)
		a.xStart[v] = int32(total)
		total += len(a.xLambdas[v])
		xShore += len(a.xLambdas[v])
		a.yStart[v] = int32(total)
		total += len(a.yLambdas[v])
	}
	a.info = make([]AuxNode, total)
	a.yPass = make([]bool, total)
	for v := 0; v < n; v++ {
		for i, l := range a.xLambdas[v] {
			a.info[int(a.xStart[v])+i] = AuxNode{Node: int32(v), Lambda: l, Side: SideX}
		}
		for i, l := range a.yLambdas[v] {
			a.info[int(a.yStart[v])+i] = AuxNode{Node: int32(v), Lambda: l, Side: SideY}
			a.yPass[int(a.yStart[v])+i] = true
		}
	}
	a.g = graph.New(total)

	// Pass 2: gadget arcs E_v (conversion edges, Observation 1/4 sizes).
	conv := layout.Converter()
	gadgetArcs := 0
	maxConv := 0.0
	for v := 0; v < n; v++ {
		for xi, p := range a.xLambdas[v] {
			x := int(a.xStart[v]) + xi
			for yi, q := range a.yLambdas[v] {
				y := int(a.yStart[v]) + yi
				var c float64
				switch {
				case p == q:
					c = 0
				case conv == nil:
					continue
				default:
					c = conv.Cost(v, p, q)
					if graph.Finite(c) {
						maxConv = max(maxConv, c)
					}
				}
				if err := a.g.AddArc(x, y, c, tagConversion); err != nil {
					return nil, fmt.Errorf("core: gadget arc at node %d: %w", v, err)
				}
			}
		}
	}
	gadgetArcs = a.g.NumArcs()
	minW, maxW := graph.Inf, 0.0
	for id := 0; id < layout.NumLinks(); id++ {
		for _, ch := range layout.Link(id).Channels {
			minW, maxW = min(minW, ch.Weight), max(maxW, ch.Weight)
		}
	}
	a.bucketWidth = graph.BucketWidth(minW, maxW+maxConv)
	a.treePays = max(2, (xShore+n-1)/max(n, 1)) // ⌈xShore / n⌉
	a.boundGrid = boundGrid(n, maxW)

	// Pass 3: E_org — one arc per (link, channel), Y_u(λ) → X_v(λ) with
	// weight w(e,λ). Wavelength positions are found by binary search in
	// the sorted shore lists.
	for _, l := range residual.Links() {
		for _, ch := range l.Channels {
			yID, ok := a.yIndex(l.From, ch.Lambda)
			if !ok {
				return nil, fmt.Errorf("core: internal: λ%d missing from Y_%d", ch.Lambda, l.From)
			}
			xID, ok := a.xIndex(l.To, ch.Lambda)
			if !ok {
				return nil, fmt.Errorf("core: internal: λ%d missing from X_%d", ch.Lambda, l.To)
			}
			if err := a.g.AddArc(yID, xID, ch.Weight, int32(l.ID)); err != nil {
				return nil, fmt.Errorf("core: E_org arc for link %d: %w", l.ID, err)
			}
		}
	}
	// Full compiles produce the contiguous (CSR) arc arena the Dijkstra
	// hot loop iterates; delta children patch segments out of it.
	a.g.Compact()

	a.stats = BuildStats{
		Nodes:         residual.NumNodes(),
		Links:         residual.NumLinks(),
		K:             residual.K(),
		K0:            residual.MaxChannelsPerLink(),
		MaxDegree:     residual.MaxDegree(),
		AuxNodes:      total,
		GadgetArcs:    gadgetArcs,
		OrgArcs:       a.g.NumArcs() - gadgetArcs,
		MultigraphArc: residual.TotalChannels(),
	}
	a.pool = newScratchPool(total)
	return a, nil
}

// checkSubNetwork verifies residual fits inside layout's node space:
// equal node/wavelength/link counts and matching link endpoints. Channel
// subset-ness is enforced arc-by-arc during compilation (a residual
// channel outside the layout shores cannot be indexed).
func checkSubNetwork(layout, residual *wdm.Network) error {
	if layout.NumNodes() != residual.NumNodes() || layout.K() != residual.K() {
		return fmt.Errorf("%w: layout %d nodes/k=%d vs residual %d nodes/k=%d",
			ErrLayoutMismatch, layout.NumNodes(), layout.K(), residual.NumNodes(), residual.K())
	}
	if layout.NumLinks() != residual.NumLinks() {
		return fmt.Errorf("%w: layout has %d links, residual %d",
			ErrLayoutMismatch, layout.NumLinks(), residual.NumLinks())
	}
	for _, l := range residual.Links() {
		ll := layout.Link(l.ID)
		if ll.From != l.From || ll.To != l.To {
			return fmt.Errorf("%w: link %d is %d->%d in layout, %d->%d in residual",
				ErrLayoutMismatch, l.ID, ll.From, ll.To, l.From, l.To)
		}
	}
	return nil
}

// Network returns the network this auxiliary graph was compiled from
// (the residual network for layout/delta-built graphs).
func (a *Aux) Network() *wdm.Network { return a.nw }

// Layout returns the network whose wavelength sets define this graph's
// gadget-node space. For NewAux it is Network(); for NewAuxWithLayout
// and ApplyDelta chains it is the fixed layout the chain was rooted at.
func (a *Aux) Layout() *wdm.Network { return a.layout }

// DeltaDepth reports how many ApplyDelta steps separate this graph from
// its last full compile (0 for NewAux/NewAuxWithLayout results).
func (a *Aux) DeltaDepth() int { return a.depth }

// Stats reports the measured construction sizes (Observations 1–5).
func (a *Aux) Stats() BuildStats { return a.stats }

// ReverseGraph returns the transpose of the compiled auxiliary graph,
// compacted into one arc arena: arc-for-arc Digraph.Reverse() of the
// forward graph. It is built afresh on every call: no search runs on
// it, so no Aux keeps one.
func (a *Aux) ReverseGraph() *graph.Digraph {
	r := a.g.Reverse()
	r.Compact()
	return r
}

// NumAuxNodes reports |V'|.
func (a *Aux) NumAuxNodes() int { return len(a.info) }

// NumAuxArcs reports |E'|.
func (a *Aux) NumAuxArcs() int { return a.g.NumArcs() }

// NodeInfo returns the identity of auxiliary node id.
func (a *Aux) NodeInfo(id int) AuxNode { return a.info[id] }

// XShore returns the wavelengths of X_v in ascending order (Λ_in(G_M,v)).
func (a *Aux) XShore(v int) []wdm.Wavelength { return a.xLambdas[v] }

// YShore returns the wavelengths of Y_v in ascending order (Λ_out(G_M,v)).
func (a *Aux) YShore(v int) []wdm.Wavelength { return a.yLambdas[v] }

// GadgetArcs returns the conversion arcs of gadget G_v as (from,to)
// wavelength pairs with costs, for inspection and the paper-example tests.
func (a *Aux) GadgetArcs(v int) []wdm.Conversion {
	var out []wdm.Conversion
	for xi := range a.xLambdas[v] {
		x := int(a.xStart[v]) + xi
		for _, arc := range a.g.Out(x) {
			if arc.Tag != tagConversion {
				continue
			}
			to := a.info[arc.To]
			out = append(out, wdm.Conversion{
				Node: v,
				From: a.info[x].Lambda,
				To:   to.Lambda,
				Cost: arc.Weight,
			})
		}
	}
	return out
}

func (a *Aux) xIndex(v int, l wdm.Wavelength) (int, bool) {
	i, ok := searchLambda(a.xLambdas[v], l)
	return int(a.xStart[v]) + i, ok
}

func (a *Aux) yIndex(v int, l wdm.Wavelength) (int, bool) {
	i, ok := searchLambda(a.yLambdas[v], l)
	return int(a.yStart[v]) + i, ok
}

// searchLambda binary-searches the sorted shore list for l.
func searchLambda(ls []wdm.Wavelength, l wdm.Wavelength) (int, bool) {
	lo, hi := 0, len(ls)
	for lo < hi {
		mid := (lo + hi) / 2
		if ls[mid] < l {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(ls) && ls[lo] == l {
		return lo, true
	}
	return 0, false
}
