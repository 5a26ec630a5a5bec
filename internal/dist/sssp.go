package dist

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"lightpath/internal/wdm"
)

// This file implements the distributed optimal-semilightpath algorithm of
// Theorem 3 (and, with k0-bounded availability, Theorem 5).
//
// The embedding follows Sec. III-B exactly: every physical node v holds
// the adjacency lists of its own gadget G_v of G_{s,t} — the shores
// X_v = Λ_in(G_M,v) and Y_v = Λ_out(G_M,v) plus the conversion arcs
// between them. The links of E_org are the physical fibers themselves:
// one label-carrying message per (link, wavelength) realizes the
// corresponding auxiliary arc. The super source s' lives inside node s
// (0-weight arcs onto Y_s), the super sink t'' inside node t.
//
// Relaxation is synchronous distributed Bellman–Ford: a node that
// improves any Y_v(λ) label announces dist+w(e,λ) on every outgoing link
// carrying λ — but only when the announcement improves on what it last
// sent, so each wire carries at most O(path-length-changes) messages.

// label is a tentative distance with its parent pointer.
type label struct {
	dist float64
	// parent of an X entry: the wire (physical link) the best message
	// arrived on. parent of a Y entry: the index into X of the best
	// conversion predecessor, or -1 when seeded by the super source.
	parent int32
	seeded bool // Y entries only: true when the 0-weight s' arc applies
}

// distMsg is the single message type: "over this wire, on wavelength
// Lambda, the tail's best label plus the channel weight is Dist".
type distMsg struct {
	Lambda wdm.Wavelength
	Dist   float64
}

// nodeState is the per-node program state: the node's fragment of
// G_{s,t}.
type nodeState struct {
	xLam []wdm.Wavelength // X_v shore, ascending
	yLam []wdm.Wavelength // Y_v shore, ascending
	x    []label
	y    []label
	// conv[yi] lists (xi, cost) pairs: the gadget arcs into Y entry yi.
	conv [][]convArc
	// outs lists the node's outgoing physical links with channel info.
	outs     []outLink
	isSource bool
}

type convArc struct {
	xi   int32
	cost float64
}

type outLink struct {
	wire     int
	channels []wdm.Channel
	// yIdx[ci] is the Y-shore index of channels[ci].Lambda.
	yIdx []int32
	// lastSent[ci] is the best value already announced on channels[ci],
	// to suppress non-improving messages.
	lastSent []float64
}

// semiProgram is the Program implementation shared by all nodes. All
// per-node state is partitioned by node ID: a node reads and writes only
// its own fragment.
type semiProgram struct {
	states []*nodeState
}

var _ Program[distMsg] = (*semiProgram)(nil)

// Init seeds the super source: Y_s labels become 0 and are announced.
func (p *semiProgram) Init(node int, send Send[distMsg]) {
	st := p.states[node]
	if !st.isSource {
		return
	}
	for yi := range st.y {
		st.y[yi] = label{dist: 0, parent: -1, seeded: true}
	}
	st.announce(send)
}

// Step consumes wavelength labels from upstream, relaxes the local
// gadget, and announces improvements downstream.
func (p *semiProgram) Step(node, round int, inbox []Delivery[distMsg], send Send[distMsg]) {
	st := p.states[node]
	changedX := false
	for _, d := range inbox {
		xi, ok := searchLam(st.xLam, d.Msg.Lambda)
		if !ok {
			continue // cannot happen with well-formed senders
		}
		if d.Msg.Dist < st.x[xi].dist {
			st.x[xi] = label{dist: d.Msg.Dist, parent: int32(d.Wire)}
			changedX = true
		}
	}
	if !changedX {
		return
	}
	// Local gadget relaxation: Y entries from X entries (one conversion
	// arc each, never chained — the bipartite shape of G_v).
	changedY := false
	for yi := range st.y {
		for _, ca := range st.conv[yi] {
			if nd := st.x[ca.xi].dist + ca.cost; nd < st.y[yi].dist {
				st.y[yi].dist = nd
				st.y[yi].parent = ca.xi
				st.y[yi].seeded = false
				changedY = true
			}
		}
	}
	if changedY {
		st.announce(send)
	}
}

// announce emits dist+w(e,λ) on every outgoing channel whose value
// improved since the last announcement.
func (st *nodeState) announce(send Send[distMsg]) {
	for _, ol := range st.outs {
		last := ol.lastSent
		for ci, ch := range ol.channels {
			yd := st.y[ol.yIdx[ci]].dist
			if math.IsInf(yd, 1) {
				continue
			}
			cand := yd + ch.Weight
			if cand < last[ci] {
				last[ci] = cand
				send(ol.wire, distMsg{Lambda: ch.Lambda, Dist: cand})
			}
		}
	}
}

func searchLam(ls []wdm.Wavelength, l wdm.Wavelength) (int, bool) {
	i := sort.Search(len(ls), func(i int) bool { return ls[i] >= l })
	if i < len(ls) && ls[i] == l {
		return i, true
	}
	return 0, false
}

// Result is the outcome of a distributed routing run.
type Result struct {
	Path  *wdm.Semilightpath
	Cost  float64
	Stats Stats
}

// Route runs the distributed algorithm on nw from s to t and returns the
// optimal semilightpath with the message/round statistics of Theorem 3
// (or Theorem 5 when availability is k0-bounded). The physical links of
// nw are the wires; nothing else carries messages.
func Route(nw *wdm.Network, s, t int) (*Result, error) {
	return route(nw, s, t, nil, nil)
}

// route is the body of Route, RouteWithTrace and RouteAsync: a non-nil
// trace is attached to the runtime, and a non-nil async model replaces
// the synchronous one.
func route(nw *wdm.Network, s, t int, trace *Trace, async *asyncModel) (*Result, error) {
	if res, err := checkPair(nw, s, t); res != nil || err != nil {
		return res, err
	}
	prog := buildProgram(nw, s)
	rt := newRuntime[distMsg](nw, prog, prog.xNodes())
	rt.Trace, rt.async = trace, async
	stats, err := rt.Run()
	if err != nil {
		return nil, err
	}
	path, cost, err := extractPath(nw, prog, s, t)
	if err != nil {
		return nil, err
	}
	return &Result{Path: path, Cost: cost, Stats: stats}, nil
}

// newRuntime is the one place a semilightpath runtime is built: prog
// runs over the physical links of nw (valid wires by construction),
// within the round cap that Runtime.MaxRounds derives from the xNodes
// X-nodes of G_{s,t}, Σ_v |Λ_in(v)|: one round more than there are.
func newRuntime[M any](nw *wdm.Network, prog Program[M], xNodes int) *Runtime[M] {
	return &Runtime[M]{numNodes: nw.NumNodes(), wires: wiresOf(nw), prog: prog, MaxRounds: xNodes + 1}
}

// xNodes counts the X-nodes of the program's G_{s,t}: Σ_v |Λ_in(v)|.
func (p *semiProgram) xNodes() int {
	n := 0
	for _, st := range p.states {
		n += len(st.x)
	}
	return n
}

// checkPair is the prologue every point query shares: a nil network and
// an endpoint out of range are errors, and s == t is answered at once by
// the empty path at cost 0. A nil result and nil error mean: run.
func checkPair(nw *wdm.Network, s, t int) (*Result, error) {
	if nw == nil {
		return nil, ErrNilNetwork
	}
	n := nw.NumNodes()
	if s < 0 || s >= n {
		return nil, fmt.Errorf("%w: source %d", ErrNodeRange, s)
	}
	if t < 0 || t >= n {
		return nil, fmt.Errorf("%w: dest %d", ErrNodeRange, t)
	}
	if s == t {
		return &Result{Path: &wdm.Semilightpath{}, Cost: 0}, nil
	}
	return nil, nil
}

// wiresOf returns the physical links of nw as the runtime's wires,
// indexed by link ID.
func wiresOf(nw *wdm.Network) []Wire {
	wires := make([]Wire, nw.NumLinks())
	for _, l := range nw.Links() {
		wires[l.ID] = Wire{From: l.From, To: l.To}
	}
	return wires
}

// bestX returns the cheapest label on the node's X shore and its index:
// the best arrival at the node, or (-1, +Inf) when no label arrived.
func (st *nodeState) bestX() (int, float64) {
	bestXi, best := -1, math.Inf(1)
	for xi := range st.x {
		if st.x[xi].dist < best {
			bestXi, best = xi, st.x[xi].dist
		}
	}
	return bestXi, best
}

// costRow reads one converged single-source run from s: entry t is the
// best arrival at t, +Inf where none arrived, and 0 at s itself.
func costRow(prog *semiProgram, s int) []float64 {
	row := make([]float64, len(prog.states))
	for t, st := range prog.states {
		if t != s {
			_, row[t] = st.bestX()
		}
	}
	return row
}

// buildProgram constructs each node's fragment of G_{s,t}. Every slice
// is sized before it is filled: one per-channel arena each for the yIdx
// and lastSent rows of all outgoing channels (Σ|Λ(e)| entries), and per
// node its outs and one conversion-arc arena, exactly sized off a buffer
// the nodes share.
func buildProgram(nw *wdm.Network, s int) *semiProgram {
	n := nw.NumNodes()
	conv := nw.Converter()
	prog := &semiProgram{states: make([]*nodeState, n)}
	inf := math.Inf(1)
	yIdx := make([]int32, nw.TotalChannels())
	lastSent := make([]float64, nw.TotalChannels())
	for i := range lastSent {
		lastSent[i] = inf
	}
	var arcs []convArc // the node's conversion arcs, reused node to node
	var ends []int     // ends[yi]: the end of Y entry yi's arcs in arcs
	for v := 0; v < n; v++ {
		st := &nodeState{
			xLam:     nw.LambdaIn(v),
			yLam:     nw.LambdaOut(v),
			isSource: v == s,
			outs:     make([]outLink, len(nw.Out(v))),
		}
		st.x = make([]label, len(st.xLam))
		st.y = make([]label, len(st.yLam))
		for i := range st.x {
			st.x[i] = label{dist: inf, parent: -1}
		}
		for i := range st.y {
			st.y[i] = label{dist: inf, parent: -1}
		}
		arcs, ends = arcs[:0], ends[:0]
		for _, q := range st.yLam {
			for xi, p := range st.xLam {
				var c float64
				switch {
				case p == q:
					c = 0
				case conv == nil:
					continue
				default:
					c = conv.Cost(v, p, q)
				}
				if math.IsInf(c, 1) || c < 0 {
					continue
				}
				arcs = append(arcs, convArc{xi: int32(xi), cost: c})
			}
			ends = append(ends, len(arcs))
		}
		own := slices.Clone(arcs)
		st.conv = make([][]convArc, len(st.yLam))
		start := 0
		for yi, end := range ends {
			st.conv[yi] = own[start:end:end]
			start = end
		}
		for i, linkID := range nw.Out(v) {
			l := nw.Link(int(linkID))
			c := len(l.Channels)
			ol := outLink{wire: l.ID, channels: l.Channels, yIdx: yIdx[:c:c], lastSent: lastSent[:c:c]}
			yIdx, lastSent = yIdx[c:], lastSent[c:]
			for ci, ch := range l.Channels {
				yi, ok := searchLam(st.yLam, ch.Lambda)
				if !ok {
					// Impossible: Λ(e) ⊆ Λ_out(G,v) by definition.
					panic(fmt.Sprintf("dist: λ%d of link %d missing from Y_%d", ch.Lambda, l.ID, v))
				}
				ol.yIdx[ci] = int32(yi)
			}
			st.outs[i] = ol
		}
		prog.states[v] = st
	}
	return prog
}

// extractPath performs the trace-back from t's best X label to the super
// source inside s. In a deployment this is a control-message walk along
// parent pointers (O(path length) extra messages); here the coordinator
// reads the converged node states directly.
func extractPath(nw *wdm.Network, prog *semiProgram, s, t int) (*wdm.Semilightpath, float64, error) {
	bestXi, best := prog.states[t].bestX()
	if bestXi < 0 {
		return nil, 0, fmt.Errorf("%w: from %d to %d", ErrNoRoute, s, t)
	}

	var rev []wdm.Hop
	node, xi := t, bestXi
	for hops := 0; ; hops++ {
		if hops > nw.TotalChannels()+1 {
			return nil, 0, fmt.Errorf("dist: parent chain too long (cycle?)")
		}
		st := prog.states[node]
		wire := int(st.x[xi].parent)
		if wire < 0 {
			return nil, 0, fmt.Errorf("dist: broken parent chain at node %d", node)
		}
		lam := st.xLam[xi]
		rev = append(rev, wdm.Hop{Link: wire, Wavelength: lam})
		prev := nw.Link(wire).From
		pst := prog.states[prev]
		yi, ok := searchLam(pst.yLam, lam)
		if !ok {
			return nil, 0, fmt.Errorf("dist: λ%d missing from Y_%d during trace-back", lam, prev)
		}
		if pst.y[yi].seeded {
			if prev != s {
				return nil, 0, fmt.Errorf("dist: seed found at %d, want source %d", prev, s)
			}
			break
		}
		node = prev
		xi = int(pst.y[yi].parent)
		if xi < 0 {
			return nil, 0, fmt.Errorf("dist: broken Y parent at node %d", prev)
		}
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return &wdm.Semilightpath{Hops: rev}, best, nil
}

// AllPairs runs the distributed algorithm from every source (Corollary 2)
// and returns the n×n cost matrix plus the summed statistics.
func AllPairs(nw *wdm.Network) ([][]float64, Stats, error) {
	if nw == nil {
		return nil, Stats{}, ErrNilNetwork
	}
	n := nw.NumNodes()
	costs := make([][]float64, n)
	var total Stats
	for s := 0; s < n; s++ {
		prog := buildProgram(nw, s)
		stats, err := newRuntime[distMsg](nw, prog, prog.xNodes()).Run()
		if err != nil {
			return nil, total, err
		}
		// Runs are sequential here, so rounds add up; a deployment could
		// pipeline the n sources (Haldar's algorithm) and pay only the max.
		total.Messages += stats.Messages
		total.Rounds += stats.Rounds
		costs[s] = costRow(prog, s)
	}
	return costs, total, nil
}
