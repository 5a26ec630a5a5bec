package engine

import (
	"math"
	"runtime"
	"testing"

	"lightpath/internal/core"
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
// query, so it fails a test, not just a benchmark. Each row is read twice
// first — built, then rendered: the first hit's render allocates at most
// three objects, once per row, and every hit after it, its text appended
// included, allocates nothing.
func TestCachedRouteFromAllocationFree(t *testing.T) {
	e := spanTestEngine(t)
	snap := e.Snapshot()
	n := e.Base().NumNodes()
	for s := 0; s < n; s++ { // build every source's row
		if _, err := snap.CostsFrom(s); err != nil {
			t.Fatal(err)
		}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // as testing.AllocsPerRun: no other P's caches in the count
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for s := 0; s < n; s++ { // render every source's row: its first hit
		if _, err := snap.CostsFrom(s); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if renders, allocs := counter(e, "engine_cost_row_renders_total"), after.Mallocs-before.Mallocs; renders != uint64(n) || allocs > 3*uint64(n) {
		t.Fatalf("%d first hits: %d renders, %d objects; want one render per row and at most 3 objects each", n, renders, allocs)
	}
	// off is the recorder switched off: a nil tracer.
	var off *obs.Tracer
	sum := 0.0
	text := make([]byte, 0, 64*n)
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
		{"every text appended", func(src int) error {
			costs, err := snap.CostsFrom(src)
			text = text[:0]
			for d := 0; err == nil && d < n; d++ {
				text = costs.AppendCost(text, d)
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
	if renders := counter(e, "engine_cost_row_renders_total"); renders != uint64(n) {
		t.Fatalf("hits on rendered rows rendered again: %d renders for %d rows", renders, n)
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

// TestColdCostsFromAllocations pins a cost row's miss: with the cache
// disabled every CostsFrom runs its pass, on the pooled scratch and
// straight into the row it returns — its one allocation, no tree and no
// copy of the pass's parent or via-arc arrays — at n=100 as at n=300.
// Best of several short measurements: under the race detector sync.Pool
// drops a quarter of its Puts on purpose, and a dropped scratch shows up
// as a rebuild in the next call.
func TestColdCostsFromAllocations(t *testing.T) {
	for _, n := range []int{100, 300} {
		e, err := New(sparseNet(t, n), &Options{CacheSize: -1})
		if err != nil {
			t.Fatal(err)
		}
		snap := e.Snapshot()
		src, best := 0, math.Inf(1)
		for round := 0; round < 16; round++ {
			best = math.Min(best, testing.AllocsPerRun(2, func() {
				if _, err := snap.CostsFrom(src); err != nil {
					t.Fatal(err)
				}
				src = (src + 1) % n
			}))
		}
		if best != 1 {
			t.Errorf("n=%d: a cold CostsFrom allocates %v objects, want 1: its row", n, best)
		}
	}
}

// TestMemoRouteAllocationFree pins the route memo's hit: a Route the memo
// answers at a stable epoch performs zero heap allocations — through the
// engine's forwarder, with no parent span, with a nil one and with the
// nil span a disabled recorder hands out — as a cached cost row's read
// does (TestCachedRouteFromAllocationFree). Every pair is asked twice
// first, on a memo that holds them all, so its Result is stored.
func TestMemoRouteAllocationFree(t *testing.T) {
	base := spanTestEngine(t).Base()
	n := base.NumNodes()
	e, err := New(base, &Options{Directed: core.DirectedAStar, CacheSize: n * n})
	if err != nil {
		t.Fatal(err)
	}
	var pairs [][2]int
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			if s == d {
				continue
			}
			if _, err := e.Route(s, d); err != nil {
				continue // blocked: never stored, and a blocked answer allocates its error
			}
			if _, err := e.Route(s, d); err != nil {
				t.Fatal(err)
			}
			pairs = append(pairs, [2]int{s, d})
		}
	}
	if ms := e.RouteMemoStats(); ms.Size != len(pairs) || ms.Hits != 0 {
		t.Fatalf("warm-up stored %+v for %d served pairs", ms, len(pairs))
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // as testing.AllocsPerRun: no other P's caches in the count
	// off is the recorder switched off: a nil tracer.
	var off *obs.Tracer
	snap := e.Snapshot()
	for _, tc := range []struct {
		name  string
		query func(s, d int) error
	}{
		{"engine forwarder", func(s, d int) error {
			_, err := e.Route(s, d)
			return err
		}},
		{"no span", func(s, d int) error {
			_, err := snap.Route(s, d)
			return err
		}},
		{"nil span", func(s, d int) error {
			_, err := snap.Route(s, d, nil)
			return err
		}},
		{"disabled tracer", func(s, d int) error {
			req := off.Start("request") // nil: recorder off
			_, err := e.Route(s, d, req.Root())
			off.Finish(req)
			return err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			i := 0
			allocs := testing.AllocsPerRun(100, func() {
				p := pairs[i%len(pairs)]
				if err := tc.query(p[0], p[1]); err != nil {
					t.Fatal(err)
				}
				i++
			})
			if allocs != 0 {
				t.Errorf("a memo hit allocates %v objects per call, want 0", allocs)
			}
		})
	}
	if ms := e.RouteMemoStats(); ms.Hits != 4*101 || ms.Stores != uint64(len(pairs)) {
		t.Fatalf("the cases did not read stored Results: %+v", ms)
	}
}
