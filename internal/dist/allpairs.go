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
}

var _ Program[multiMsg] = (*multiProgram)(nil)

// Init seeds every source instance at its own node.
func (p *multiProgram) Init(node int, send Send[multiMsg]) {
	for src, inst := range p.insts {
		st := inst.states[node]
		if !st.isSource {
			continue
		}
		for yi := range st.y {
			st.y[yi] = label{dist: 0, parent: -1, seeded: true}
		}
		st.announce(p.sendFor(int32(src), send))
	}
}

// Step demultiplexes deliveries by source tag and advances each
// instance independently.
func (p *multiProgram) Step(node, round int, inbox []Delivery[multiMsg], send Send[multiMsg]) {
	// Partition the inbox per source, preserving wire order.
	perSrc := make(map[int32][]Delivery[distMsg])
	for _, d := range inbox {
		perSrc[d.Msg.Src] = append(perSrc[d.Msg.Src], Delivery[distMsg]{Wire: d.Wire, Msg: d.Msg.M})
	}
	for src, box := range perSrc {
		p.insts[src].Step(node, round, box, p.sendFor(src, send))
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
	var stats Stats
	if nw == nil {
		return nil, stats, ErrNilNetwork
	}
	n := nw.NumNodes()
	prog := &multiProgram{insts: make([]*semiProgram, n)}
	for s := 0; s < n; s++ {
		prog.insts[s] = buildProgram(nw, s)
	}
	rt, err := NewRuntime[multiMsg](n, wiresOf(nw), prog)
	if err != nil {
		return nil, stats, err
	}
	stats, err = rt.Run()
	if err != nil {
		return nil, stats, fmt.Errorf("dist: pipelined all-pairs: %w", err)
	}

	costs := make([][]float64, n)
	for s, inst := range prog.insts {
		costs[s] = costRow(inst, s)
	}
	return costs, stats, nil
}
