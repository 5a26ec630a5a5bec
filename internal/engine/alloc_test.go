package engine

import (
	"testing"

	"lightpath/internal/obs"
)

// TestCachedRouteFromAllocationFree pins the steady-state query contract:
// a CostsFrom answered by a resident cost row at a stable epoch performs
// zero heap allocations — with no parent span, with an explicit nil one,
// with the nil span a disabled recorder hands out (the always-on flight
// recorder is free when off), through the engine's forwarder, with every
// cost read, and beside a running obs.Monitor on the engine's registry
// (sampling is pull-based, so the query path never sees it). A regression
// here (a closure that escapes, per-call options, key boxing, a variadic
// slice that reaches the heap) lands on the latency path of every cached
// query, so it fails a test, not just a benchmark.
func TestCachedRouteFromAllocationFree(t *testing.T) {
	e := spanTestEngine(t)
	snap := e.Snapshot()
	n := e.Base().NumNodes()
	for s := 0; s < n; s++ { // warm every source's row
		if _, err := snap.CostsFrom(s); err != nil {
			t.Fatal(err)
		}
	}
	off := obs.NewTracer(&obs.TracerOptions{Disabled: true})
	sum := 0.0
	for _, tc := range []struct {
		name    string
		query   func(src int) error
		sampled bool // run with a background obs.Monitor started
	}{
		{"no span", func(src int) error {
			_, err := snap.CostsFrom(src)
			return err
		}, false},
		{"nil span", func(src int) error {
			_, err := snap.CostsFrom(src, nil)
			return err
		}, false},
		{"disabled tracer", func(src int) error {
			req := off.Start("request") // nil: recorder off
			_, err := snap.CostsFrom(src, req.Root())
			off.Finish(req)
			return err
		}, false},
		{"engine forwarder", func(src int) error {
			_, err := e.CostsFrom(src)
			return err
		}, false},
		{"every cost read", func(src int) error {
			costs, err := snap.CostsFrom(src)
			for d := 0; err == nil && d < n; d++ {
				sum += costs.To(d)
			}
			return err
		}, false},
		{"running sampler", func(src int) error {
			_, err := snap.CostsFrom(src)
			return err
		}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// AllocsPerRun counts process-wide mallocs, so the monitor
			// keeps the default one-second interval: it is running, but
			// no tick lands inside the measurement and charges its
			// snapshot here.
			var mon *obs.Monitor
			if tc.sampled {
				mon = obs.NewMonitor(e.Metrics(), obs.DefaultSampleInterval, nil)
			}
			mon.Start()
			defer mon.Stop()
			src := 0
			allocs := testing.AllocsPerRun(100, func() {
				if err := tc.query(src); err != nil {
					t.Fatal(err)
				}
				src = (src + 1) % n
			})
			if allocs != 0 {
				t.Errorf("a cache hit allocates %v objects per call, want 0", allocs)
			}
		})
	}
	benchSink = sum
	if rs := e.CacheStats(); rs.Size != n || rs.Misses != uint64(n) {
		t.Fatalf("the cases did not read resident rows: %+v", rs)
	}

	// A costs-only batch whose every source has a resident row allocates
	// its answers and nothing else: no goroutine, no per-source count, no
	// path.
	reqs := []Request{{From: 0, To: 5}, {From: 3, To: 0}, {From: 0, To: 0}, {From: 7, To: 2}}
	if allocs := testing.AllocsPerRun(100, func() { snap.BatchCosts(reqs, 0) }); allocs != 1 {
		t.Errorf("all-resident BatchCosts allocates %v objects, want 1", allocs)
	}
	if got := counter(e, "engine_batch_row_requests_total"); got != 101*4 {
		t.Fatalf("%d batch requests read a row, want every one of %d", got, 101*4)
	}
}
