package core

import (
	"lightpath/internal/graph"
	"lightpath/internal/heap/binheap"
)

// This file computes DirectedAStar's potential: a lower bound on the
// cost of reaching t, per *physical* node, read off the residual network
// the auxiliary graph was compiled from. A semilightpath from v to t
// crosses some physical path v→t, pays at least the cheapest free channel
// of each link on it and at least 0 at each junction, so the backward
// shortest-path distance π(v) over G with w(e) = min_{λ∈Λ(e)} w(e,λ)
// never exceeds the auxiliary distance from any shore node of v to X_t.
// π is consistent on both arc kinds of G' (a conversion arc stays inside
// one physical node; a link arc weighs at least the minimum the backward
// pass relaxed) and 0 on X_t. DESIGN.md §14 carries the proof, including
// why stopping the backward pass at s keeps both properties.
//
// The bound is recomputed for every query from that query's own
// snapshot: a link's minimum is the one its residual network computed
// when it installed the link's channel set (wdm.Link.MinWeight), so no
// epoch can see another epoch's bound.

// boundScratch is the backward pass's per-query state, sized by the
// physical node count and carried on the pooled queryScratch.
type boundScratch struct {
	pi   []float64 // π(v); valid for the query that filled it
	done []bool
	heap *binheap.Heap

	info []AuxNode         // the querying Aux's node identities
	pot  func(int) float64 // v ↦ pi[info[v].Node], built once: queries allocate no closure
}

func newBoundScratch(n int) *boundScratch {
	b := &boundScratch{
		pi:   make([]float64, n),
		done: make([]bool, n),
		heap: binheap.New(n),
	}
	b.pot = func(v int) float64 { return b.pi[b.info[v].Node] }
	return b
}

// physicalBound runs the backward pass from t and returns the potential
// for an s→t query together with the number of physical nodes it popped.
// The pass stops when s is settled: every node still unsettled then lies
// at least π(s) from t, and is given exactly π(s). A nil potential means
// the pass exhausted the nodes that reach t without meeting s — no
// physical path carries a free channel on every link, so no semilightpath
// exists whatever the wavelengths.
func (a *Aux) physicalBound(qs *queryScratch, s, t int) (pot func(int) float64, pops int, err error) {
	if qs.bound == nil {
		qs.bound = newBoundScratch(a.nw.NumNodes())
	}
	b := qs.bound
	pi, done, h := b.pi, b.done, b.heap
	for v := range pi {
		pi[v] = graph.Inf
		done[v] = false
	}
	h.Reset()
	pi[t] = 0
	if err := h.Push(t, 0); err != nil {
		return nil, 0, err
	}
	for !h.Empty() {
		u, du, err := h.Pop()
		if err != nil {
			return nil, pops, err
		}
		pops++
		done[u] = true
		if u == s {
			for v := range pi {
				if !done[v] {
					pi[v] = du
				}
			}
			b.info = a.info
			return b.pot, pops, nil
		}
		for _, id := range a.nw.In(u) {
			l := a.nw.Link(int(id))
			if done[l.From] {
				continue
			}
			// A link with no free channel weighs +Inf and improves nothing.
			if nd := du + l.MinWeight(); nd < pi[l.From] {
				pi[l.From] = nd
				if _, err := h.PushOrDecrease(l.From, nd); err != nil {
					return nil, pops, err
				}
			}
		}
	}
	return nil, pops, nil
}
