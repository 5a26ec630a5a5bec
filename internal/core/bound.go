package core

import "lightpath/internal/graph"

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
	pi    []float64 // π(v); valid for the query that filled it
	queue *graph.BucketQueue

	info []AuxNode         // the querying Aux's node identities
	pot  func(int) float64 // v ↦ pi[info[v].Node], built once: queries allocate no closure
}

func newBoundScratch(n int) *boundScratch {
	b := &boundScratch{
		pi:    make([]float64, n),
		queue: graph.NewBucketQueue(),
	}
	b.pot = func(v int) float64 { return b.pi[b.info[v].Node] }
	return b
}

// physicalBound runs the backward pass from t and returns the potential
// for an s→t query together with the number of physical nodes it scanned.
// The pass is label-correcting over the bucket queue the SourceTree
// search uses, at the same width: every link minimum is at least the
// lightest layout channel, so on a network whose weight range fits the
// window each node is scanned once, in bucket order. It stops once the
// bucket s was scanned from is empty — the whole bucket, not s alone: by
// then every node whose distance falls in that bucket or an earlier one
// is final, s among them, while a node still queued in it could yet be
// improved. Every potential above π(s) is then cut down to π(s), so the
// potential is min(dist(v,t), π(s)): exact below π(s), a lower bound
// above it, and consistent because a minimum of consistent potentials is.
// A nil potential means the pass exhausted the nodes that reach t without
// meeting s — no physical path carries a free channel on every link, so
// no semilightpath exists whatever the wavelengths.
func (a *Aux) physicalBound(qs *queryScratch, s, t int) (pot func(int) float64, pops int, err error) {
	if qs.bound == nil {
		qs.bound = newBoundScratch(a.nw.NumNodes())
	}
	b := qs.bound
	pi, q := b.pi, b.queue
	for v := range pi {
		pi[v] = graph.Inf
	}
	q.Reset(a.bucketWidth)
	pi[t] = 0
	q.Push(t, 0)
	met, last := false, 0.0
	for {
		u, du, ok := q.Pop()
		if !ok || met && q.Bucket() != last {
			break
		}
		if du != pi[u] {
			continue // stale: u was improved after this entry was queued
		}
		pops++
		// An s popped from beyond its own bucket (a weight range the window
		// does not cover) is not final and does not end the pass.
		if u == s && q.Timely(du) {
			met, last = true, q.Bucket()
		}
		for _, id := range a.nw.In(u) {
			l := a.nw.Link(int(id))
			// A link with no free channel weighs +Inf and improves nothing.
			if nd := du + l.MinWeight(); nd < pi[l.From] {
				pi[l.From] = nd
				q.Push(l.From, nd)
			}
		}
	}
	ps := pi[s]
	if graph.IsInf(ps) {
		return nil, pops, nil
	}
	for v := range pi {
		pi[v] = min(pi[v], ps)
	}
	b.info = a.info
	return b.pot, pops, nil
}
