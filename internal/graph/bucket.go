package graph

// This file implements QueueBucket: a label-correcting single-source
// pass over a cyclic array of buckets, for searches with no goal. Such a
// search has no stopping rule, so it does not need the total pop order a
// comparison heap pays log n per pop for — only the fixed point
// dist[v] = min over arcs (u,v) of dist[u] + w(u,v), which every scan
// order reaches (DESIGN.md §14). The bucket width and count therefore
// never change a distance; they decide how often a node is scanned.

// bucketCount is C, the window of the cyclic array. With width W the
// window spans C·W of key range ahead of the bucket being drained.
const bucketCount = 256

// BucketWidth is the width rule: given bounds minHop ≤ maxHop on the
// weight of a hop from one queued node to the next, the widest W ≤ minHop
// — Dial's condition, under which nothing scanned from a bucket can land
// back in it and every node is scanned once — unless the window would
// then fall short of maxHop, in which case W grows until C buckets cover
// it and a bucket may hold nodes that improve one another (rescans, never
// wrong answers). The −2 keeps ⌊maxHop/W⌋ + 1, the farthest a push can
// land ahead, strictly inside the window.
func BucketWidth(minHop, maxHop float64) float64 {
	if w := maxHop / (bucketCount - 2); w > minHop {
		return w
	}
	return minHop
}

// arcWidth is BucketWidth over g's own arc weights, for callers that
// name QueueBucket without knowing their weight range: one pass over the
// arcs per search.
func arcWidth(g *Digraph) float64 {
	lo, hi := Inf, 0.0
	for u := 0; u < g.NumNodes(); u++ {
		for _, a := range g.Out(u) {
			lo, hi = min(lo, a.Weight), max(hi, a.Weight)
		}
	}
	return BucketWidth(lo, hi)
}

// bucketEntry is one queued (key, node) pair. next links the entries of
// one bucket, and the free entries, through the flat entry array.
type bucketEntry struct {
	key  float64
	node int32
	next int32
}

// BucketQueue is the cyclic bucket array, usable on its own by a
// label-correcting pass over something other than a Digraph (core's
// backward bound pass runs it over the physical network). It keeps no
// per-node state: a node improved while queued is pushed again and the
// older entry goes stale — the caller skips a popped entry whose key is
// no longer its node's distance. All entries live in one array that grows
// to the pass's widest frontier and is reused, the buckets holding only a
// head index each.
type BucketQueue struct {
	head  []int32 // per slot: first entry, -1 when empty
	round int32   // rest of the list detached from the slot being drained
	ents  []bucketEntry
	free  int32 // first free entry, -1 when none
	live  int   // queued entries, stale ones included

	width float64
	cur   int     // slot being drained
	base  float64 // cur's bucket number: it holds the keys in [base·W, (base+1)·W)
}

// NewBucketQueue returns an empty queue; Reset it before use.
func NewBucketQueue() *BucketQueue { return newBucketQueue(bucketCount) }

func newBucketQueue(buckets int) *BucketQueue {
	return &BucketQueue{head: make([]int32, buckets)}
}

// Reset empties the queue and sets its width; a width that is not a
// positive finite number (no arcs, all weights zero) is replaced by 1.
func (q *BucketQueue) Reset(width float64) {
	if !(width > 0) || IsInf(width) {
		width = 1
	}
	for i := range q.head {
		q.head[i] = -1
	}
	q.ents, q.free, q.live, q.round = q.ents[:0], -1, 0, -1
	q.width, q.cur, q.base = width, 0, 0
}

// Push queues v at key in bucket ⌊key/W⌋, clamped into the window: a key
// below the current bucket (rounding) goes into it, a key beyond the
// window into its last slot, where it is popped early and, if that was
// too early, pushed again by a later improvement.
func (q *BucketQueue) Push(v int, key float64) {
	slot := q.cur
	if off := q.offset(key); off >= 1 {
		if last := len(q.head) - 1; off < float64(last) {
			slot += int(off)
		} else {
			slot += last
		}
		if slot >= len(q.head) {
			slot -= len(q.head)
		}
	}
	e := q.free
	if e >= 0 {
		q.free = q.ents[e].next
	} else {
		e = int32(len(q.ents))
		q.ents = append(q.ents, bucketEntry{})
	}
	q.ents[e] = bucketEntry{key: key, node: int32(v), next: q.head[slot]}
	q.head[slot] = e
	q.live++
}

// Pop removes an entry of the first non-empty bucket — at most C−1 slots
// ahead, since every entry sits inside the window. A bucket is drained in
// rounds: its list is detached whole, and what is pushed into it
// meanwhile waits on the slot's fresh list for the next round, so a
// bucket whose nodes improve one another is settled in Bellman–Ford
// rounds, not in stack order.
func (q *BucketQueue) Pop() (v int, key float64, ok bool) {
	e := q.round
	if e < 0 {
		if q.live == 0 {
			return 0, 0, false
		}
		for q.head[q.cur] < 0 {
			q.base++
			if q.cur++; q.cur == len(q.head) {
				q.cur = 0
			}
		}
		e = q.head[q.cur]
		q.head[q.cur] = -1
	}
	ent := &q.ents[e]
	v, key, q.round = int(ent.node), ent.key, ent.next
	ent.next, q.free = q.free, e
	q.live--
	return v, key, true
}

// Bucket is the number of the bucket the last Pop drew from.
func (q *BucketQueue) Bucket() float64 { return q.base }

// Timely reports whether key belongs to the bucket being drained (or an
// earlier one) rather than having been clamped into the window from
// beyond it. Once a bucket is empty every node whose distance belongs to
// it or to an earlier one is final; a node popped untimely is not.
func (q *BucketQueue) Timely(key float64) bool { return q.offset(key) < 1 }

// offset is how many buckets ahead of the one being drained key belongs.
func (q *BucketQueue) offset(key float64) float64 { return key/q.width - q.base }

// bucketTree runs the search into t (seeded by Scratch.seedTree) on
// q. pass is dijkstraBinInto's pass-through mask: a masked node is never
// queued, it is scanned the moment a relaxation improves it. seen is the
// cleared per-node set a duplicate seed is recognised with, nothing else.
// t.Settled counts scans: entries popped with their node's current
// distance for key.
func bucketTree(g *Digraph, t *ShortestPathTree, q *BucketQueue, width float64, seen, pass []bool) {
	q.Reset(width)
	for _, s := range t.seeds {
		switch {
		case pass != nil && pass[s]:
			q.relax(g, t, pass, s, 0)
		case !seen[s]:
			seen[s] = true
			t.Queued++
			q.Push(s, 0)
		}
	}
	for {
		u, du, ok := q.Pop()
		if !ok {
			return
		}
		if du == t.Dist[u] {
			t.Settled++
			q.relax(g, t, pass, u, du)
		}
	}
}

// relax scans u's out-arcs at key du. It recurses through masked nodes
// only, and that ends because each step is a strict improvement.
func (q *BucketQueue) relax(g *Digraph, t *ShortestPathTree, pass []bool, u int, du float64) {
	out := g.Out(u)
	t.Relaxed += len(out)
	for i, a := range out {
		v := int(a.To)
		nd := du + a.Weight
		if nd < t.Dist[v] {
			t.Dist[v] = nd
			t.Parent[v] = int32(u)
			t.ViaArc[v] = int32(i)
			if pass != nil && pass[v] {
				q.relax(g, t, pass, v, nd)
			} else {
				t.Queued++
				q.Push(v, nd)
			}
		}
	}
}
