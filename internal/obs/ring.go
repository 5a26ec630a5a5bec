package obs

import "sync/atomic"

// ring is the fixed-size lock-free buffer both retention layers publish
// into: the flight recorder's completed request traces and the metric
// history's frames. push is wait-free (one atomic fetch-add plus one
// atomic pointer store); readers walk the slots backwards from the write
// cursor. A reader racing a writer may observe a slot mid-replacement —
// it simply sees either the old or the new value, both complete — so
// reads taken during traffic are approximate and reads at quiescence are
// exact.
type ring[T any] struct {
	slots []atomic.Pointer[T]
	next  atomic.Uint64 //lint:atomic write cursor, fetch-add per push
}

func newRing[T any](n int) *ring[T] {
	return &ring[T]{slots: make([]atomic.Pointer[T], n)}
}

func (r *ring[T]) push(v *T) {
	i := r.next.Add(1) - 1
	r.slots[i%uint64(len(r.slots))].Store(v)
}

// len reports how many values are currently retained.
func (r *ring[T]) len() int {
	return int(min(r.next.Load(), uint64(len(r.slots))))
}

// last returns up to n retained values, newest first.
func (r *ring[T]) last(n int) []*T {
	total := r.next.Load()
	n = max(n, 0)
	if uint64(n) > total {
		n = int(total)
	}
	n = min(n, len(r.slots))
	out := make([]*T, 0, n)
	for i := 0; i < n; i++ {
		slot := (total - 1 - uint64(i)) % uint64(len(r.slots))
		if v := r.slots[slot].Load(); v != nil {
			out = append(out, v)
		}
	}
	return out
}
