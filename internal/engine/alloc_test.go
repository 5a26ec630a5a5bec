package engine

import (
	"testing"

	"lightpath/internal/obs"
)

// TestCachedRouteFromAllocationFree pins the steady-state query contract:
// a SourceTree cache hit at a stable epoch, and a CostsFrom answered by a
// resident cost row, perform zero heap allocations — with no parent span,
// with an explicit nil one, and with the nil span a disabled recorder
// hands out (the always-on flight recorder is free when off). A regression here (a closure that escapes,
// per-call options, key boxing, a variadic slice that reaches the heap)
// lands on the latency path of every cached query, so it fails a test,
// not just a benchmark.
func TestCachedRouteFromAllocationFree(t *testing.T) {
	e := spanTestEngine(t)
	snap := e.Snapshot()
	n := e.Base().NumNodes()
	for s := 0; s < n; s++ { // warm every source: its tree, then its row
		for ask := 0; ask < 2; ask++ {
			if _, err := snap.CostsFrom(s); err != nil {
				t.Fatal(err)
			}
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
		{"cost row, no span", func(src int) error {
			_, err := snap.CostsFrom(src)
			return err
		}},
		{"cost row, disabled tracer", func(src int) error {
			req := off.Start("request")
			_, err := snap.CostsFrom(src, req.Root())
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
			t.Errorf("%s: a cache hit allocates %v objects per call, want 0", tc.name, allocs)
		}
	}
	if rs := e.CostRowStats(); rs.Size != n || rs.Misses != uint64(2*n) {
		t.Fatalf("the cost-row cases did not read resident rows: %+v", rs)
	}

	// A costs-only batch whose every source is resident — rows here,
	// trees on an engine that was never asked for costs — allocates its
	// answers and nothing else: no goroutine, no per-source count, no path.
	trees := spanTestEngine(t)
	for s := 0; s < n; s++ {
		if _, err := trees.RouteFrom(s); err != nil {
			t.Fatal(err)
		}
	}
	reqs := []Request{{From: 0, To: 5}, {From: 3, To: 0}, {From: 0, To: 0}, {From: 7, To: 2}}
	for name, on := range map[string]*Snapshot{"rows": snap, "trees": trees.Snapshot()} {
		if allocs := testing.AllocsPerRun(100, func() { on.BatchCosts(reqs, 0) }); allocs != 1 {
			t.Errorf("all-resident BatchCosts off %s allocates %v objects, want 1", name, allocs)
		}
	}
	if got := counter(trees, "engine_batch_tree_requests_total"); got != 101*4 || trees.CostRowStats().Size != 0 {
		t.Fatalf("the tree case read %d requests off trees beside %d rows", got, trees.CostRowStats().Size)
	}
}
