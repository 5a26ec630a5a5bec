package dist

import (
	"fmt"

	"lightpath/internal/wdm"
)

// This file implements Corollary 2 the way its O(k²n²) bound intends:
// all n single-source computations run *concurrently* in one
// message-passing execution (the style of Haldar's all-pairs algorithm,
// reference [9] of the paper), with every label tagged by its source.
// Compared with AllPairs — which composes n independent runs — the
// pipelined version sends the same total number of messages but finishes
// in max (not sum) rounds, which is what "O(k²n²) time" means there.

// multiMsg is a source-tagged distance label.
type multiMsg struct {
	Src int32
	M   distMsg
}

// multiProgram runs one semiProgram instance per source node.
type multiProgram struct {
	insts []*semiProgram
	// boxes[src] is source src's share of the inbox being stepped, in
	// wire order; the slices are reused across Steps.
	boxes [][]Delivery[distMsg]
}

var _ Program[multiMsg] = (*multiProgram)(nil)

// newMultiProgram builds one single-source instance per node of nw.
func newMultiProgram(nw *wdm.Network) *multiProgram {
	n := nw.NumNodes()
	p := &multiProgram{insts: make([]*semiProgram, n), boxes: make([][]Delivery[distMsg], n)}
	for s := range p.insts {
		p.insts[s] = buildProgram(nw, s)
	}
	return p
}

// Init seeds every source instance at its own node.
func (p *multiProgram) Init(node int, send Send[multiMsg]) {
	for src, inst := range p.insts {
		inst.Init(node, p.sendFor(int32(src), send))
	}
}

// Step demultiplexes deliveries by source tag and advances each
// instance independently, in source order.
func (p *multiProgram) Step(node, round int, inbox []Delivery[multiMsg], send Send[multiMsg]) {
	for _, d := range inbox {
		p.boxes[d.Msg.Src] = append(p.boxes[d.Msg.Src], Delivery[distMsg]{Wire: d.Wire, Msg: d.Msg.M})
	}
	for src, box := range p.boxes {
		if len(box) > 0 {
			p.insts[src].Step(node, round, box, p.sendFor(int32(src), send))
			p.boxes[src] = box[:0]
		}
	}
}

func (p *multiProgram) sendFor(src int32, send Send[multiMsg]) Send[distMsg] {
	return func(wire int, msg distMsg) {
		send(wire, multiMsg{Src: src, M: msg})
	}
}

// AllPairsPipelined computes all-pairs optimal semilightpath costs in a
// single concurrent distributed execution (Corollary 2). It returns the
// n×n cost matrix and the run's statistics; Stats.Rounds here is the
// genuinely parallel round count.
func AllPairsPipelined(nw *wdm.Network) ([][]float64, Stats, error) {
	if nw == nil {
		return nil, Stats{}, ErrNilNetwork
	}
	prog := newMultiProgram(nw)
	xNodes := 0 // the same in every instance: the shores do not depend on the source
	if len(prog.insts) > 0 {
		xNodes = prog.insts[0].xNodes()
	}
	stats, err := newRuntime[multiMsg](nw, prog, xNodes).Run()
	if err != nil {
		return nil, stats, fmt.Errorf("dist: pipelined all-pairs: %w", err)
	}

	costs := make([][]float64, len(prog.insts))
	for s, inst := range prog.insts {
		costs[s] = costRow(inst, s)
	}
	return costs, stats, nil
}
