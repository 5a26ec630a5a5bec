package engine

import (
	"errors"
	"fmt"
	"time"

	"lightpath/internal/core"
	"lightpath/internal/obs"
)

// Metrics is the engine's telemetry bundle, backed by one obs.Registry
// per engine. Hot-path instruments (latency histograms, counters) are
// held as direct pointers so recording costs a few atomic operations;
// levels another structure already tracks (epoch, cache counters,
// per-wavelength utilization) are registered as lazy gauge functions
// and cost nothing until a snapshot is rendered.
type Metrics struct {
	reg *obs.Registry

	routeLatency     *obs.Histogram // engine_route_latency_ns
	routeFromLatency *obs.Histogram // engine_routefrom_latency_ns
	batchLatency     *obs.Histogram // engine_batch_latency_ns (whole batch)
	rebuildLatency   *obs.Histogram // engine_rebuild_latency_ns (full compiles)
	deltaLatency     *obs.Histogram // engine_delta_latency_ns (incremental applies)

	routes        *obs.Counter // engine_routes_total
	routesBlocked *obs.Counter // engine_routes_blocked_total
	allocRetries  *obs.Counter // engine_alloc_retries_total
	batchRequests *obs.Counter // engine_batch_requests_total
	// How the batch answered them; the three sum to batchRequests.
	batchViaRow   *obs.Counter // engine_batch_row_requests_total (read off a cost row; BatchCosts only)
	batchViaTree  *obs.Counter // engine_batch_tree_requests_total (read off a tree the batch built)
	batchViaPoint *obs.Counter // engine_batch_point_requests_total (point query)
	goalSettled   *obs.Counter // engine_goal_settled_total (auxiliary nodes astar point queries settled)
	// engine_tree_rescans_total: scans the bucket-queue SourceTree passes
	// spent on nodes they had scanned already. 0 while the network's weight
	// range fits the bucket window; growth means trees are still exact but
	// cost more than one scan per node (core.SourceTree.Rescans).
	treeRescans *obs.Counter
	// engine_bound_row_builds_total: complete bound rows stored. Their
	// lookups and hits are gauges over the row cache.
	boundRowBuilds *obs.Counter
	// engine_cost_row_builds_total: cost rows stored — one per cache_misses
	// but for a miss whose pass failed (a source out of range).
	costRowBuilds *obs.Counter
	batchInFlight *obs.Gauge // engine_batch_inflight (queue depth)
}

// newMetrics wires an engine's registry: direct instruments for the
// query hot paths plus gauge functions over the engine's live state.
// Gauge functions are evaluated only when a snapshot is rendered, so
// they may take the engine's read lock freely.
func newMetrics(e *Engine) *Metrics {
	reg := obs.NewRegistry()
	lat := obs.DefaultLatencyBuckets()
	m := &Metrics{
		reg:              reg,
		routeLatency:     reg.Histogram("engine_route_latency_ns", lat),
		routeFromLatency: reg.Histogram("engine_routefrom_latency_ns", lat),
		batchLatency:     reg.Histogram("engine_batch_latency_ns", lat),
		rebuildLatency:   reg.Histogram("engine_rebuild_latency_ns", lat),
		deltaLatency:     reg.Histogram("engine_delta_latency_ns", lat),
		routes:           reg.Counter("engine_routes_total"),
		routesBlocked:    reg.Counter("engine_routes_blocked_total"),
		allocRetries:     reg.Counter("engine_alloc_retries_total"),
		batchRequests:    reg.Counter("engine_batch_requests_total"),
		batchViaRow:      reg.Counter("engine_batch_row_requests_total"),
		batchViaTree:     reg.Counter("engine_batch_tree_requests_total"),
		batchViaPoint:    reg.Counter("engine_batch_point_requests_total"),
		goalSettled:      reg.Counter("engine_goal_settled_total"),
		treeRescans:      reg.Counter("engine_tree_rescans_total"),
		boundRowBuilds:   reg.Counter("engine_bound_row_builds_total"),
		costRowBuilds:    reg.Counter("engine_cost_row_builds_total"),
		batchInFlight:    reg.Gauge("engine_batch_inflight"),
	}

	reg.GaugeFunc("engine_epoch", func() float64 { return float64(e.Epoch()) })
	reg.GaugeFunc("engine_allocations_total", func() float64 { return float64(e.allocations.Load()) })
	reg.GaugeFunc("engine_releases_total", func() float64 { return float64(e.releases.Load()) })
	reg.GaugeFunc("engine_conflicts_total", func() float64 { return float64(e.conflicts.Load()) })
	reg.GaugeFunc("engine_rebuilds_total", func() float64 { return float64(e.rebuilds.Load()) })
	reg.GaugeFunc("engine_full_rebuilds_total", func() float64 { return float64(e.fullRebuilds.Load()) })
	reg.GaugeFunc("engine_delta_applies_total", func() float64 { return float64(e.deltaApplies.Load()) })
	reg.GaugeFunc("engine_active_owners", func() float64 {
		e.mu.RLock()
		defer e.mu.RUnlock()
		return float64(len(e.owners))
	})
	reg.GaugeFunc("engine_held_channels", func() float64 { return float64(e.HeldChannels()) })
	reg.GaugeFunc("engine_utilization", e.Utilization)
	reg.GaugeFunc("engine_failed_links", func() float64 {
		e.mu.RLock()
		defer e.mu.RUnlock()
		return float64(len(e.failed))
	})

	// The cost-row cache as live gauges: one lookup per CostsFrom, one per
	// batch request a resident row answered. hits + misses = lookups.
	reg.GaugeFunc("cache_hits", func() float64 { return float64(e.CacheStats().Hits) })
	reg.GaugeFunc("cache_misses", func() float64 { return float64(e.CacheStats().Misses) })
	reg.GaugeFunc("cache_evictions", func() float64 { return float64(e.CacheStats().Evictions) })
	reg.GaugeFunc("cache_lookups", func() float64 { return float64(e.CacheStats().Lookups) })
	reg.GaugeFunc("cache_size", func() float64 { return float64(e.CacheStats().Size) })
	reg.GaugeFunc("cache_hit_rate", func() float64 { return e.CacheStats().HitRate() })

	// The bound-row cache: one lookup per astar point query when rows are
	// kept, none otherwise. hits ≤ lookups; builds ≤ lookups − hits.
	reg.GaugeFunc("engine_bound_row_lookups_total", func() float64 { return float64(e.BoundRowStats().Lookups) })
	reg.GaugeFunc("engine_bound_row_hits_total", func() float64 { return float64(e.BoundRowStats().Hits) })

	// Current snapshot's compiled auxiliary graph and residual capacity.
	reg.GaugeFunc("snapshot_aux_nodes", func() float64 { return float64(e.Snapshot().Aux().NumAuxNodes()) })
	reg.GaugeFunc("snapshot_aux_arcs", func() float64 { return float64(e.Snapshot().Aux().NumAuxArcs()) })
	reg.GaugeFunc("snapshot_free_channels", func() float64 { return float64(e.Snapshot().Network().TotalChannels()) })

	// Per-wavelength utilization of the residual: held channels on each
	// color, the counter family blocking-probability and conversion-gain
	// studies aggregate over.
	for i := 0; i < e.base.K(); i++ {
		lam := i
		// The one sanctioned dynamic metric name in the module: a gauge per
		// installed wavelength, K known only at engine construction. The
		// family shape wavelength_<i>_held stays greppable and lower_snake.
		//lint:ignore metricname per-wavelength gauge family is indexed by runtime K
		reg.GaugeFunc(fmt.Sprintf("wavelength_%d_held", lam), func() float64 {
			return float64(e.heldOnWavelength(lam))
		})
	}
	return m
}

// observeRoute records one point-to-point query outcome.
func (m *Metrics) observeRoute(elapsed time.Duration, err error) {
	m.routes.Inc()
	m.routeLatency.ObserveDuration(elapsed)
	if errors.Is(err, core.ErrNoRoute) {
		m.routesBlocked.Inc()
	}
}

// observeAStarSettled adds an astar point query's settled auxiliary
// nodes to engine_goal_settled_total, whose ratio to engine_routes_total
// quantifies the search-space reduction. No-op for plain-mode snapshots.
func (m *Metrics) observeAStarSettled(res *core.Result, mode core.DirectedMode) {
	if mode == core.DirectedAStar && res != nil {
		m.goalSettled.Add(uint64(res.Stats.Settled))
	}
}

// Metrics exposes the engine's telemetry registry: counters and
// latency histograms written on the hot paths plus lazy gauges over the
// engine's live state. Callers may register additional metrics of their
// own (internal/session does).
func (e *Engine) Metrics() *obs.Registry { return e.metrics.reg }

// heldOnWavelength counts currently-held channels using wavelength
// index lam.
func (e *Engine) heldOnWavelength(lam int) int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	held := 0
	for c := range e.inUse {
		if int(c.Lambda) == lam {
			held++
		}
	}
	return held
}
