package engine

import (
	"container/list"
	"sync"
	"sync/atomic"
)

// epochKey identifies one cached result — the cost row of a source, the
// bound row of a destination, the route of a pair (src·n + dst): each is
// only valid for the exact epoch whose residual network it was computed
// on.
type epochKey struct {
	node  int
	epoch uint64
}

// CacheStats reports one cache's counters. Lookups is always
// Hits + Misses — both counters advance under the cache lock — and is
// carried explicitly so telemetry consumers can assert the invariant
// instead of assuming it. Stores counts the values callers kept, one per
// put; each follows a miss, so Stores ≤ Misses.
type CacheStats struct {
	Hits      uint64
	Misses    uint64
	Lookups   uint64
	Stores    uint64
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

// epochCache is a bounded LRU of per-(key, epoch) results: the engine
// keeps cost rows, bound rows and routes in one each. Entries from
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
	stores    uint64
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
	c.stores++
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
		Stores:    c.stores,
		Evictions: c.evictions,
		Size:      c.ll.Len(),
		Capacity:  c.capacity,
	}
}

// askedAt is the admission rule of the caches that keep a value only
// from its key's second ask at an epoch — bound rows and routes: a key
// that does not recur within an epoch, as none does under churn, costs
// nothing to keep. (A cost row needs no such rule: it is a copy of the
// pass its miss runs anyway.) Slot key % len records the last (key,
// epoch) asked in it as a tag: the epoch (+1) in the high 32 bits, key /
// len in the low. A table as long as its key space (the bound rows' n
// slots) is exact; a shorter one (the routes' memoSlots) forgets a key
// whose slot another key took since its last ask, which only delays its
// admission. Two (key, epoch) share a tag only once the epoch passes
// 2³², which admits one early. Either way answers stay keyed exactly.
type askedAt []atomic.Uint64

// second records an ask of (key, epoch) and reports whether it is at
// least the second.
func (a askedAt) second(key int, epoch uint64) bool {
	n, k := uint64(len(a)), uint64(key)
	tag := (epoch+1)<<32 | k/n
	return a[k%n].Swap(tag) == tag
}
