package obs

import (
	"sync"
	"sync/atomic"
)

// ring is the fixed-size buffer both retention layers publish into: the
// flight recorder's completed request traces and the metric history's
// frames. It holds values, not pointers: push assigns into the claimed
// slot's own storage under that slot's lock (one atomic fetch-add to
// claim, one uncontended lock — writers only meet on a slot when the
// ring wraps between them), and readers assign a slot out into a value
// of their own under the same lock, so nothing a reader holds is ever
// written again. assign is the element type's copy: plain assignment
// for immutable values, a deep copy that reuses dst's storage for ones
// that own slices. A read taken during traffic may miss a push that has
// claimed its slot and not yet stored; reads at quiescence are exact.
type ring[T any] struct {
	slots  []slot[T]
	next   atomic.Uint64 // write cursor, fetch-add per push
	assign func(dst, src *T)
}

type slot[T any] struct {
	mu  sync.Mutex
	seq uint64 // 1-based ordinal of the push the slot holds; 0 = none yet
	v   T
}

func newRing[T any](n int, assign func(dst, src *T)) *ring[T] {
	return &ring[T]{slots: make([]slot[T], n), assign: assign}
}

func (r *ring[T]) push(v *T) {
	seq := r.next.Add(1)
	s := &r.slots[(seq-1)%uint64(len(r.slots))]
	s.mu.Lock()
	if seq > s.seq { // lapped while waiting for the lock: the newer value stays
		r.assign(&s.v, v)
		s.seq = seq
	}
	s.mu.Unlock()
}

// len reports how many values are currently retained.
func (r *ring[T]) len() int {
	return int(min(r.next.Load(), uint64(len(r.slots))))
}

// last returns copies of up to n retained values, newest first.
func (r *ring[T]) last(n int) []*T {
	n = min(max(n, 0), r.len())
	total := r.next.Load()
	vals := make([]T, n)
	out := make([]*T, 0, n)
	for i := 0; i < n; i++ {
		s := &r.slots[(total-1-uint64(i))%uint64(len(r.slots))]
		s.mu.Lock()
		if s.seq != 0 {
			v := &vals[len(out)]
			r.assign(v, &s.v)
			out = append(out, v)
		}
		s.mu.Unlock()
	}
	return out
}

// find returns a copy of the first retained value match accepts, or nil.
// match runs on the slot's value in place, under its lock.
func (r *ring[T]) find(match func(*T) bool) *T {
	for i := range r.slots {
		s := &r.slots[i]
		s.mu.Lock()
		if s.seq != 0 && match(&s.v) {
			v := new(T)
			r.assign(v, &s.v)
			s.mu.Unlock()
			return v
		}
		s.mu.Unlock()
	}
	return nil
}
