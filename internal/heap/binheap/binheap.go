// Package binheap implements an indexed binary min-heap over dense integer
// item IDs with float64 priorities.
//
// It is the practical workhorse alternative to the Fibonacci heap of
// package fibheap: a key decrease costs O(log n) instead of amortized O(1),
// but constants are far smaller and memory is a pair of flat slices: the
// heap array holds (key, item) entries inline, so a sift compares
// neighbouring slots directly, and moves a hole instead of swapping. It
// is the queue behind every search that stops at a goal — plain
// first-goal, A* and A*'s backward bound pass, which need
// the pop order — while the server's goal-less SourceTree passes run on
// graph's bucket array (DESIGN.md §6); the benchmark suite also uses it
// for the heap-choice ablation called out in DESIGN.md. Not every node a
// search reaches passes through it: graph's binary-heap engine takes a
// pass-through mask, and the routing layer masks the Y shore of the
// auxiliary graph, so a plain point query's heap holds X-shore nodes only
// (DESIGN.md §14).
//
// The branching factor stays 2 by measurement: 4- and 8-ary layouts of
// the same entry array were indistinguishable from binary on
// BenchmarkHeapSearchMix, on graph's full-tree Dijkstra and on core's
// n=300 point route (EXPERIMENTS.md X13) — search frontiers here are a
// few hundred entries, too shallow for a wider node to pay.
//
// Items are identified by an int in [0, capacity); each item may be in the
// heap at most once, which is exactly the shape Dijkstra needs.
package binheap

import (
	"errors"
	"fmt"
)

// Errors returned by heap operations.
var (
	// ErrEmpty is returned when popping from an empty heap.
	ErrEmpty = errors.New("binheap: empty heap")
	// ErrDuplicate is returned when pushing an item already present.
	ErrDuplicate = errors.New("binheap: item already in heap")
)

// entry is one heap slot: the key travels with its item, so a sift reads
// ents[i].key instead of chasing keys[items[i]].
type entry struct {
	key  float64
	item int32
}

// Heap is an indexed binary min-heap. Create one with New.
// Heap is not safe for concurrent use.
type Heap struct {
	ents []entry // heap-ordered (key, item) pairs
	pos  []int32 // pos[item] = index into ents, or -1 if absent
}

// New returns a heap able to hold items with IDs in [0, capacity).
func New(capacity int) *Heap {
	h := &Heap{
		ents: make([]entry, 0, capacity),
		pos:  make([]int32, capacity),
	}
	for i := range h.pos {
		h.pos[i] = -1
	}
	return h
}

// Empty reports whether the heap has no items.
func (h *Heap) Empty() bool { return len(h.ents) == 0 }

// Contains reports whether item is currently in the heap.
func (h *Heap) Contains(item int) bool {
	return item >= 0 && item < len(h.pos) && h.pos[item] >= 0
}

// Push inserts item with the given key.
func (h *Heap) Push(item int, key float64) error {
	if item < 0 || item >= len(h.pos) {
		return fmt.Errorf("binheap: item %d out of range [0,%d)", item, len(h.pos))
	}
	if h.pos[item] >= 0 {
		return ErrDuplicate
	}
	h.ents = append(h.ents, entry{})
	h.up(len(h.ents)-1, entry{key: key, item: int32(item)})
	return nil
}

// Pop removes and returns the item with the smallest key.
func (h *Heap) Pop() (item int, key float64, err error) {
	last := len(h.ents) - 1
	if last < 0 {
		return 0, 0, ErrEmpty
	}
	top, tail := h.ents[0], h.ents[last]
	h.ents = h.ents[:last]
	h.pos[top.item] = -1
	if last > 0 {
		h.down(tail)
	}
	return int(top.item), top.key, nil
}

// PushOrDecrease inserts item if absent, otherwise lowers its key if
// newKey improves on the current one. It reports whether the heap changed.
// This is the single operation Dijkstra's relaxation step needs.
func (h *Heap) PushOrDecrease(item int, newKey float64) (bool, error) {
	if !h.Contains(item) {
		return true, h.Push(item, newKey)
	}
	i := int(h.pos[item])
	if newKey >= h.ents[i].key {
		return false, nil
	}
	h.up(i, entry{key: newKey, item: int32(item)})
	return true, nil
}

// Reset empties the heap, retaining capacity for reuse.
func (h *Heap) Reset() {
	for _, e := range h.ents {
		h.pos[e.item] = -1
	}
	h.ents = h.ents[:0]
}

// up places e at the hole i or above it: parents with larger keys slide
// down into the hole (one store each, not a three-way swap) until e fits.
func (h *Heap) up(i int, e entry) {
	for i > 0 {
		p := (i - 1) / 2
		pe := h.ents[p]
		if pe.key <= e.key {
			break
		}
		h.ents[i] = pe
		h.pos[pe.item] = int32(i)
		i = p
	}
	h.ents[i] = e
	h.pos[e.item] = int32(i)
}

// down places e at the root hole or below it: the smaller child slides
// up into the hole while it is smaller than e.
func (h *Heap) down(e entry) {
	ents := h.ents
	n := len(ents)
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && ents[r].key < ents[c].key {
			c = r
		}
		if ents[c].key >= e.key {
			break
		}
		ents[i] = ents[c]
		h.pos[ents[i].item] = int32(i)
		i = c
	}
	ents[i] = e
	h.pos[e.item] = int32(i)
}
