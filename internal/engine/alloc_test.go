package engine

import (
	"testing"

	"lightpath/internal/obs"
)

// TestCachedRouteFromAllocationFree pins the steady-state query contract:
// a SourceTree cache hit at a stable epoch performs zero heap
// allocations — with no parent span, with an explicit nil one, and with
// the nil span a disabled recorder hands out (the always-on flight
// recorder is free when off). A regression here (a closure that escapes,
// per-call options, key boxing, a variadic slice that reaches the heap)
// lands on the latency path of every cached query, so it fails a test,
// not just a benchmark.
func TestCachedRouteFromAllocationFree(t *testing.T) {
	e := spanTestEngine(t)
	snap := e.Snapshot()
	n := e.Base().NumNodes()
	for s := 0; s < n; s++ { // warm every source
		if _, err := snap.RouteFrom(s); err != nil {
			t.Fatal(err)
		}
	}
	off := obs.NewTracer(&obs.TracerOptions{Disabled: true})
	for _, tc := range []struct {
		name  string
		query func(src int) error
	}{
		{"no span", func(src int) error {
			_, err := snap.RouteFrom(src)
			return err
		}},
		{"nil span", func(src int) error {
			_, err := snap.RouteFrom(src, nil)
			return err
		}},
		{"disabled tracer", func(src int) error {
			req := off.Start("request") // nil: recorder off
			_, err := snap.RouteFrom(src, req.Root())
			off.Finish(req)
			return err
		}},
	} {
		src := 0
		allocs := testing.AllocsPerRun(100, func() {
			if err := tc.query(src); err != nil {
				t.Fatal(err)
			}
			src = (src + 1) % n
		})
		if allocs != 0 {
			t.Errorf("%s: cache-hit RouteFrom allocates %v objects per call, want 0", tc.name, allocs)
		}
	}
}
