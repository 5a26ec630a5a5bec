// Package arrayq implements the linear-scan priority structure classical
// array-based Dijkstra uses: O(1) insert/decrease, O(n) extract-min.
//
// It exists to reproduce the Chlamtac–Faragó–Zhang baseline faithfully.
// Their O(k²n + kn²) bound for the wavelength-graph algorithm follows from
// running Dijkstra with exactly this structure on a graph of kn nodes
// whose adjacency lists have at most k+n entries (Sec. I and III-C of the
// reproduced paper). Using a heap here would silently change the baseline
// into a different algorithm.
package arrayq

import "errors"

// ErrEmpty is returned when extracting from an empty queue.
var ErrEmpty = errors.New("arrayq: empty queue")

// Queue is a linear-scan "priority queue" over dense item IDs.
// Create one with New. Not safe for concurrent use.
type Queue struct {
	keys []float64
	in   []bool
	n    int
}

// New returns a queue able to hold items with IDs in [0, capacity).
func New(capacity int) *Queue {
	return &Queue{
		keys: make([]float64, capacity),
		in:   make([]bool, capacity),
	}
}

// Empty reports whether the queue has no items.
func (q *Queue) Empty() bool { return q.n == 0 }

// PushOrDecrease inserts item or lowers its key, whichever applies.
// It reports whether the stored key changed. O(1).
func (q *Queue) PushOrDecrease(item int, key float64) bool {
	if !q.in[item] {
		q.in[item] = true
		q.keys[item] = key
		q.n++
		return true
	}
	if key < q.keys[item] {
		q.keys[item] = key
		return true
	}
	return false
}

// Pop removes and returns the queued item with the smallest key by
// scanning the whole ID space. O(capacity).
func (q *Queue) Pop() (item int, key float64, err error) {
	if q.n == 0 {
		return 0, 0, ErrEmpty
	}
	best := -1
	for i, ok := range q.in {
		if ok && (best < 0 || q.keys[i] < q.keys[best]) {
			best = i
		}
	}
	q.in[best] = false
	q.n--
	return best, q.keys[best], nil
}
