// Package broken is the deliberately-dirty fixture the driver test
// (and `wdmlint -dir`) runs to prove the exit code goes non-zero on
// findings. It violates several analyzers at once.
package broken

import (
	"lightpath/internal/engine"
	"lightpath/internal/graph"
	"lightpath/internal/obs"
)

// errdrop and infcost: a dropped release error, a raw sentinel compare.
func leak(e *engine.Engine, d float64) bool {
	e.Release(1)
	return d == graph.Inf
}

// metricname: a registry name that is not lower_snake.
func badMetric(reg *obs.Registry) *obs.Counter {
	return reg.Counter("BadName")
}
