// Package obs is the repository's telemetry substrate: lock-free
// counters, gauges and fixed-bucket latency histograms behind a named
// Registry that renders to JSON and expvar, plus the request-scoped Span
// tree the routing layers annotate so a caller can ask *why* a query
// produced the answer it did.
//
// The package deliberately depends on nothing but the standard library
// and knows nothing about WDM networks — internal/core and
// internal/engine push values in; cmd/wdmserve pulls snapshots out.
// Every write path is a handful of atomic operations so that
// instrumentation left on in production is invisible next to a
// Dijkstra pass (TestCachedRouteFromAllocationFree holds a cached query
// at zero allocations with the metrics on; benchmark/'s
// obs.recorder_overhead_pct records the cost).
package obs

import "sync/atomic"

// Counter is a monotonically-increasing event count. The zero value is
// ready to use; all methods are safe for concurrent use.
type Counter struct {
	v atomic.Uint64 //lint:atomic written concurrently by every instrumented goroutine
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value reports the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is an instantaneous integer level (queue depth, in-flight
// requests). The zero value is ready to use; all methods are safe for
// concurrent use.
type Gauge struct {
	v atomic.Int64 //lint:atomic written concurrently by every instrumented goroutine
}

// Set replaces the level.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add moves the level by delta (negative to decrease).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Value reports the current level.
func (g *Gauge) Value() int64 { return g.v.Load() }
