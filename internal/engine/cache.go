package engine

import (
	"container/list"
	"sync"
	"sync/atomic"
)

// epochKey identifies one cached per-node result — the cost row of a
// source, the bound row of a destination: each is only valid for the
// exact epoch whose residual network it was computed on.
type epochKey struct {
	node  int
	epoch uint64
}

// CacheStats reports one cache's counters. Lookups is always
// Hits + Misses — both counters advance under the cache lock — and is
// carried explicitly so telemetry consumers can assert the invariant
// instead of assuming it.
type CacheStats struct {
	Hits      uint64
	Misses    uint64
	Lookups   uint64
	Evictions uint64
	Size      int
	Capacity  int
}

// HitRate is Hits / (Hits + Misses), or 0 with no lookups.
func (c CacheStats) HitRate() float64 {
	total := c.Hits + c.Misses
	if total == 0 {
		return 0
	}
	return float64(c.Hits) / float64(total)
}

// epochCache is a bounded LRU of per-(node, epoch) results: the engine
// keeps cost rows in one and bound rows in another. Entries from
// superseded epochs are never explicitly invalidated — they stay correct
// for readers still pinned to their epoch and age out via normal LRU
// pressure as fresh epochs dominate lookups. A stored value is shared by
// every reader that gets it and must not be written again.
type epochCache[V any] struct {
	mu        sync.Mutex
	capacity  int
	ll        *list.List // front = most recently used
	items     map[epochKey]*list.Element
	hits      uint64
	misses    uint64
	lookups   uint64
	evictions uint64
}

type cacheEntry[V any] struct {
	key epochKey
	val V
}

func newEpochCache[V any](capacity int) *epochCache[V] {
	return &epochCache[V]{
		capacity: capacity,
		ll:       list.New(),
		items:    make(map[epochKey]*list.Element, capacity),
	}
}

func (c *epochCache[V]) get(k epochKey) (V, bool) { return c.lookup(k, true) }

// getResident is get for a caller that will not build the value on a
// miss: a resident one counts as a lookup and a hit, an absent one as
// nothing, so Lookups == Hits + Misses still holds.
func (c *epochCache[V]) getResident(k epochKey) (V, bool) { return c.lookup(k, false) }

func (c *epochCache[V]) lookup(k epochKey, countMiss bool) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[k]
	if !ok {
		if countMiss {
			c.lookups++
			c.misses++
		}
		var zero V
		return zero, false
	}
	c.lookups++
	c.hits++
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry[V]).val, true
}

func (c *epochCache[V]) put(k epochKey, val V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[k]; ok {
		// A concurrent miss computed the same value; keep the newer one.
		el.Value.(*cacheEntry[V]).val = val
		c.ll.MoveToFront(el)
		return
	}
	c.items[k] = c.ll.PushFront(&cacheEntry[V]{key: k, val: val})
	for c.ll.Len() > c.capacity {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*cacheEntry[V]).key)
		c.evictions++
	}
}

func (c *epochCache[V]) stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits:      c.hits,
		Misses:    c.misses,
		Lookups:   c.lookups,
		Evictions: c.evictions,
		Size:      c.ll.Len(),
		Capacity:  c.capacity,
	}
}

// askedAt is the bound rows' admission rule: per node, the epoch (+1;
// 0 = never) at which a lookup last found the node's row missing. A row
// is built on the second miss of its (node, epoch), so a destination
// that does not recur within an epoch — every one, under churn — never
// pays for a complete backward pass. (A cost row needs no such rule: it
// is a copy of the pass its miss runs anyway.)
type askedAt []atomic.Uint64

// second records a miss of (node, epoch) and reports whether it is at
// least the second.
func (a askedAt) second(node int, epoch uint64) bool {
	return a[node].Swap(epoch+1) == epoch+1
}
