package engine

import (
	"lightpath/internal/obs"
)

// Default SLO thresholds for the engine's health rules. These are the
// paper's operational concerns rendered as ceilings: blocking
// probability is the primary time-varying health signal of a
// wavelength-routed network, and the routing latency claim is what the
// snapshots and their row caches exist to hold.
const (
	// DefaultBlockedRateThreshold is the blocked-routes-per-second rate
	// above which the engine is degraded: on a healthy instance blocking
	// is rare; a sustained stream of ErrNoRoute answers means the
	// network is saturated or partitioned.
	DefaultBlockedRateThreshold = 100.0
	// DefaultRouteP99Ns is the windowed route-latency p99 ceiling in
	// nanoseconds (10ms): routes are served from compiled snapshots in
	// microseconds, so a sustained 10ms p99 means the engine is
	// rebuild-thrashing or starved.
	DefaultRouteP99Ns = 10e6
	// DefaultHealthSustain is how many consecutive breaching frames fire
	// a default rule — three, so one noisy sample never flips status.
	DefaultHealthSustain = 3
)

// RegisterDefaultHealthRules installs the engine's standard SLO rules
// on h: a degraded-severity ceiling on the blocked-route rate and on
// the windowed route-latency p99. Callers layer transport-level rules
// (shed rate, and anything failing-severity) on top; the engine alone
// never declares the process failing — it cannot tell saturation
// caused by the network from saturation caused by the workload.
func RegisterDefaultHealthRules(h *obs.Health) error {
	if err := h.AddRule("engine_blocked_rate_high", obs.RuleSpec{
		Metric:    "engine_routes_blocked_total",
		Kind:      obs.RuleRate,
		Threshold: DefaultBlockedRateThreshold,
		Sustain:   DefaultHealthSustain,
		Severity:  obs.HealthDegraded,
	}); err != nil {
		return err
	}
	return h.AddRule("engine_route_p99_slow", obs.RuleSpec{
		Metric:    "engine_route_latency_ns",
		Kind:      obs.RuleQuantile,
		Quantile:  0.99,
		Threshold: DefaultRouteP99Ns,
		Sustain:   DefaultHealthSustain,
		Severity:  obs.HealthDegraded,
	})
}
