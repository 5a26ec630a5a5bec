package obs

import (
	"fmt"
	"math"
	"sort"
	"sync/atomic"
	"time"
)

// Histogram is a fixed-bucket distribution recorder. Bounds are
// ascending upper bucket edges with "value ≤ bound" semantics; one
// implicit overflow bucket catches everything above the last bound.
// Observe is a binary search plus four atomic operations, so writers
// never contend on a lock; Snapshot assembles a consistent-enough view
// for reporting (buckets are read one by one, which can skew counts by
// in-flight observations — fine for telemetry, never used for control
// flow).
type Histogram struct {
	bounds  []float64
	buckets []atomic.Uint64 // len(bounds)+1; last is overflow
	sumBits atomic.Uint64   // float64 bits, CAS-accumulated
	minBits atomic.Uint64   // float64 bits, +Inf when empty
	maxBits atomic.Uint64   // float64 bits, -Inf when empty
}

// NewHistogram builds a histogram over the given ascending bucket
// bounds. The slice is copied and sorted defensively; duplicate bounds
// are harmless (the later duplicate simply stays empty).
func NewHistogram(bounds []float64) *Histogram {
	b := make([]float64, len(bounds))
	copy(b, bounds)
	sort.Float64s(b)
	h := &Histogram{
		bounds:  b,
		buckets: make([]atomic.Uint64, len(b)+1),
	}
	h.minBits.Store(math.Float64bits(math.Inf(1)))
	h.maxBits.Store(math.Float64bits(math.Inf(-1)))
	return h
}

// DefaultLatencyBuckets are 1-2-5 decade bounds in nanoseconds from
// 1µs to 10s — wide enough for a cached tree lookup (~100ns lands in
// the first bucket) and a cold many-thousand-node Dijkstra alike.
func DefaultLatencyBuckets() []float64 {
	var b []float64
	for decade := 1e3; decade <= 1e10; decade *= 10 {
		b = append(b, decade, 2*decade, 5*decade)
	}
	return b[:len(b)-2] // stop at 1e10 exactly
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	// Binary search: first bound with v <= bound.
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if h.bounds[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	h.buckets[lo].Add(1)
	atomicAddFloat(&h.sumBits, v)
	atomicMinFloat(&h.minBits, v)
	atomicMaxFloat(&h.maxBits, v)
}

// ObserveDuration records a latency in nanoseconds.
func (h *Histogram) ObserveDuration(d time.Duration) {
	h.Observe(float64(d.Nanoseconds()))
}

func atomicAddFloat(bits *atomic.Uint64, delta float64) {
	for {
		old := bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if bits.CompareAndSwap(old, next) {
			return
		}
	}
}

func atomicMinFloat(bits *atomic.Uint64, v float64) {
	for {
		old := bits.Load()
		if math.Float64frombits(old) <= v {
			return
		}
		if bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

func atomicMaxFloat(bits *atomic.Uint64, v float64) {
	for {
		old := bits.Load()
		if math.Float64frombits(old) >= v {
			return
		}
		if bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Bucket is one (upper bound, count) pair of a histogram snapshot.
type Bucket struct {
	UpperBound float64 `json:"le"` // +Inf for the overflow bucket
	Count      uint64  `json:"count"`
}

// MarshalJSON renders the overflow bucket's infinite bound as the
// string "+Inf" (finite bounds stay numbers), since JSON has no
// infinity literal.
func (b Bucket) MarshalJSON() ([]byte, error) {
	if math.IsInf(b.UpperBound, 1) {
		return []byte(fmt.Sprintf(`{"le":"+Inf","count":%d}`, b.Count)), nil
	}
	return []byte(fmt.Sprintf(`{"le":%g,"count":%d}`, b.UpperBound, b.Count)), nil
}

// HistogramSnapshot is a point-in-time summary of a histogram,
// JSON-serializable for the registry and the stats protocol verb.
type HistogramSnapshot struct {
	Count   uint64   `json:"count"`
	Sum     float64  `json:"sum"`
	Min     float64  `json:"min"` // 0 when empty
	Max     float64  `json:"max"` // 0 when empty
	Mean    float64  `json:"mean"`
	P50     float64  `json:"p50"`
	P95     float64  `json:"p95"`
	P99     float64  `json:"p99"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

// Snapshot summarizes the current distribution, including the standard
// latency quantiles.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Buckets: make([]Bucket, len(h.buckets)),
	}
	for i := range h.buckets {
		ub := math.Inf(1)
		if i < len(h.bounds) {
			ub = h.bounds[i]
		}
		c := h.buckets[i].Load()
		s.Buckets[i] = Bucket{UpperBound: ub, Count: c}
		s.Count += c
	}
	s.Sum = math.Float64frombits(h.sumBits.Load())
	if s.Count > 0 {
		s.Min = math.Float64frombits(h.minBits.Load())
		s.Max = math.Float64frombits(h.maxBits.Load())
		s.Mean = s.Sum / float64(s.Count)
	}
	s.P50 = s.Quantile(0.50)
	s.P95 = s.Quantile(0.95)
	s.P99 = s.Quantile(0.99)
	return s
}

// Sub returns the distribution observed between prev and s: bucket-wise
// counts of the window, with Count/Sum subtracted, window Min/Max
// estimated from the delta buckets' edges (bucket resolution is all a
// window can truthfully claim — the atomic min/max trackers span the
// histogram's whole lifetime), and Mean/P50/P95/P99 recomputed from the
// window alone. Two snapshots of one live histogram always qualify; a
// mismatched bucket layout or any bucket that went backwards means prev
// is from a different incarnation (process restart — counter reset), and
// Sub falls back to returning s unchanged: "the window since restart" is
// the tightest truthful answer. An empty window returns a zero snapshot.
func (s HistogramSnapshot) Sub(prev HistogramSnapshot) HistogramSnapshot {
	if len(s.Buckets) != len(prev.Buckets) {
		return s
	}
	for i := range s.Buckets {
		if s.Buckets[i].UpperBound != prev.Buckets[i].UpperBound ||
			s.Buckets[i].Count < prev.Buckets[i].Count {
			return s
		}
	}
	d := HistogramSnapshot{Buckets: make([]Bucket, len(s.Buckets))}
	for i := range s.Buckets {
		d.Buckets[i] = Bucket{
			UpperBound: s.Buckets[i].UpperBound,
			Count:      s.Buckets[i].Count - prev.Buckets[i].Count,
		}
		d.Count += d.Buckets[i].Count
	}
	if d.Count == 0 {
		return HistogramSnapshot{Buckets: d.Buckets}
	}
	d.Sum = s.Sum - prev.Sum
	if d.Sum < 0 {
		d.Sum = 0 // float accumulation skew on an otherwise valid window
	}
	d.Mean = d.Sum / float64(d.Count)
	// Window min/max from the occupied delta buckets' edges: the lower
	// edge of the first non-empty bucket and the upper edge of the last.
	// The overflow bucket has no finite upper edge; the lifetime max is
	// the tightest bound available.
	for i, b := range d.Buckets {
		if b.Count == 0 {
			continue
		}
		if i > 0 {
			d.Min = d.Buckets[i-1].UpperBound
		}
		break
	}
	for i := len(d.Buckets) - 1; i >= 0; i-- {
		if d.Buckets[i].Count == 0 {
			continue
		}
		if math.IsInf(d.Buckets[i].UpperBound, 1) {
			d.Max = s.Max
		} else {
			d.Max = d.Buckets[i].UpperBound
		}
		break
	}
	d.P50 = d.Quantile(0.50)
	d.P95 = d.Quantile(0.95)
	d.P99 = d.Quantile(0.99)
	return d
}

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) by linear interpolation
// inside the bucket holding the target rank, clamped to the observed
// min/max. Returns 0 for an empty histogram. The estimate is exact to
// within the width of one bucket — the resolution fixed-bucket
// histograms trade for lock-free writes.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	cum := 0.0
	for i, b := range s.Buckets {
		next := cum + float64(b.Count)
		if next >= rank && b.Count > 0 {
			lower := 0.0
			if i > 0 {
				lower = s.Buckets[i-1].UpperBound
			}
			upper := b.UpperBound
			// The overflow bucket has no finite upper edge; the observed
			// max is the tightest truthful answer.
			if math.IsInf(upper, 1) {
				return s.Max
			}
			est := lower + (upper-lower)*(rank-cum)/float64(b.Count)
			// Clamp to what was actually seen.
			if est < s.Min {
				est = s.Min
			}
			if est > s.Max {
				est = s.Max
			}
			return est
		}
		cum = next
	}
	return s.Max
}
