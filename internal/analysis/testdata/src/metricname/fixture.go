// Package metricname is a golden fixture for the metricname analyzer:
// obs.Registry names must be unique compile-time constants in
// lower_snake form; span names must also funnel through one shared
// constant each, and span attribute keys must be lower_snake constants
// (duplicates allowed).
package metricname

import (
	"fmt"

	"lightpath/internal/obs"
)

const constName = "requests_total"

func register(r *obs.Registry, k int) {
	r.Counter("engine_ops_total")
	r.Counter(constName) // named constant: fine
	r.Histogram("route_latency_ns", nil)
	r.Gauge("queueDepth")                     // want `not lower_snake`
	r.Counter("2fast")                        // want `not lower_snake`
	r.Counter("trailing_")                    // want `not lower_snake`
	r.Counter(fmt.Sprintf("shard_%d_ops", k)) // want `must be a compile-time string constant`
	r.Histogram("engine_ops_total", nil)      // want `already registered`
	r.GaugeFunc("depth_gauge", func() float64 { return 0 })
	r.GaugeFunc("depth_gauge", func() float64 { return 1 }) // want `already registered`
}

const (
	spanWork    = "fixture_work"
	spanWorkDup = "fixture_work" // same value, different constant
	attrItems   = "items"
)

func spans(tr *obs.Tracer, k int) {
	req := tr.Start(spanWork) // named constant: fine
	sp := req.Root().StartChild("fixture_step")
	sp.StartChild(spanWork)               // same constant reused: fine
	sp.StartChild("fixtureCamel")         // want `not lower_snake`
	sp.StartChild(fmt.Sprintf("s_%d", k)) // want `span name must be a compile-time string constant`
	sp.StartChild("fixture_work")         // want `span name "fixture_work" already declared .*; share one named constant`
	sp.StartChild(spanWorkDup)            // want `span name "fixture_work" already declared .*; share one named constant`
	req.Root().StartChild("fixture_step") // want `span name "fixture_step" already declared .*; share one named constant`
	obs.StartTrace(spanWork)              // unrecorded root, same constant: fine
	obs.StartTrace("FixturePrivate")      // want `not lower_snake`
	sp.SetInt(attrItems, 3)
	sp.SetInt(attrItems, 9)                // duplicate attribute keys are fine
	sp.SetStr("BadKey", "x")               // want `span attribute key "BadKey" is not lower_snake`
	sp.SetFloat(fmt.Sprintf("a_%d", k), 1) // want `span attribute key must be a compile-time string constant`
	sp.SetBool("blocked", true)
	tr.Finish(req)
}
