package engine

import (
	"errors"
	"math"
	"math/rand"
	"sync"
	"testing"

	"lightpath/internal/core"
	"lightpath/internal/obs"
	"lightpath/internal/topo"
)

// sameCosts demands that got is, bit for bit, what a fresh single-source
// pass on the snapshot's own compiled graph says.
func sameCosts(t *testing.T, what string, snap *Snapshot, src int, got Costs) {
	t.Helper()
	want, err := snap.Aux().RouteFrom(src, nil)
	if err != nil {
		t.Fatalf("%s: reference pass from %d: %v", what, src, err)
	}
	for dst := 0; dst < snap.Network().NumNodes(); dst++ {
		if math.Float64bits(got.To(dst)) != math.Float64bits(want.Dist(dst)) {
			t.Fatalf("%s: epoch %d: cost %d->%d = %v, a fresh pass says %v",
				what, snap.Epoch(), src, dst, got.To(dst), want.Dist(dst))
		}
	}
}

// passesOf runs ask under a fresh trace and counts the single-source
// passes it ran (core_tree_search spans).
func passesOf(ask func(root *obs.Span)) (*obs.ReqTrace, int) {
	req := obs.StartTrace("request")
	ask(req.Root())
	passes := 0
	for _, sp := range req.Spans() {
		if sp.Name == core.SpanTreeSearch {
			passes++
		}
	}
	return req, passes
}

// TestCostRowFirstAsk is the cost rows' admission rule read off the
// registry and the engine_cache_lookup span: a source's first CostsFrom
// at an epoch runs exactly one pass and stores its row; every later one
// reads the row with no pass — and a new epoch starts over, the previous
// epoch's row never answering for it, while a reader pinned to the old
// epoch keeps its own. hits + misses = lookups always, and builds =
// misses but for a source out of range, whose pass fails. At a stable
// epoch every source costs one pass however its asks interleave, with a
// cache that holds the rows of every source. With the cache disabled
// there is no row to look up or store and every ask is a pass.
func TestCostRowFirstAsk(t *testing.T) {
	base := obsTestEngine(t, 13).Base()
	n := base.NumNodes()
	for _, mode := range []core.DirectedMode{core.DirectedPlain, core.DirectedAStar} {
		t.Run(mode.String(), func(t *testing.T) {
			e, err := New(base, &Options{Directed: mode})
			if err != nil {
				t.Fatal(err)
			}
			if st, want := e.CacheStats(), DefaultCacheSize*e.Snapshot().Aux().TreePays(mode); st.Capacity != want {
				t.Fatalf("row capacity %d, want CacheSize × TreePays = %d", st.Capacity, want)
			}
			ask := func(snap *Snapshot, src int, wantAnswered string, wantLookups, wantHits, wantBuilds uint64, wantSize int) {
				t.Helper()
				var got Costs
				req, passes := passesOf(func(root *obs.Span) {
					if got, err = snap.CostsFrom(src, root); err != nil {
						t.Fatal(err)
					}
				})
				sameCosts(t, mode.String(), snap, src, got)
				look := req.Span(SpanCacheLookup)
				if a, _ := look.Attr(AttrAnswered); a.Str != wantAnswered {
					t.Fatalf("CostsFrom(%d): answered = %q, want %q", src, a.Str, wantAnswered)
				}
				if hit, _ := look.Attr(AttrHit); hit.Bool() != (wantAnswered == AnsweredRow) {
					t.Fatalf("CostsFrom(%d): hit = %v beside answered = %s", src, hit.Bool(), wantAnswered)
				}
				if want := map[string]int{AnsweredBuilt: 1, AnsweredRow: 0}[wantAnswered]; passes != want {
					t.Fatalf("CostsFrom(%d) answered by %s ran %d passes, want %d", src, wantAnswered, passes, want)
				}
				rs, builds := e.CacheStats(), counter(e, "engine_cost_row_builds_total")
				if rs.Hits+rs.Misses != rs.Lookups || builds != rs.Misses {
					t.Fatalf("cost rows: %+v, %d builds", rs, builds)
				}
				if rs.Lookups != wantLookups || rs.Hits != wantHits || builds != wantBuilds || rs.Size != wantSize {
					t.Fatalf("CostsFrom(%d): %d lookups, %d hits, %d builds, %d rows; want %d, %d, %d, %d",
						src, rs.Lookups, rs.Hits, builds, rs.Size, wantLookups, wantHits, wantBuilds, wantSize)
				}
			}
			ask(e.Snapshot(), 0, AnsweredBuilt, 1, 0, 1, 1) // a cold ask: one pass, its row stored
			ask(e.Snapshot(), 0, AnsweredRow, 2, 1, 1, 1)
			ask(e.Snapshot(), 3, AnsweredBuilt, 3, 1, 2, 2)
			ask(e.Snapshot(), 0, AnsweredRow, 4, 2, 2, 2)
			ask(e.Snapshot(), 3, AnsweredRow, 5, 3, 2, 2)
			old := e.Snapshot()
			if _, err := e.RouteAndAllocate(1, 0, 9); err != nil { // epoch 1: costs from 0 change
				t.Fatal(err)
			}
			ask(e.Snapshot(), 0, AnsweredBuilt, 6, 3, 3, 3)
			ask(e.Snapshot(), 0, AnsweredRow, 7, 4, 3, 3)
			ask(old, 0, AnsweredRow, 8, 5, 3, 3) // a reader still pinned to epoch 0 keeps its own row
			if _, err := e.CostsFrom(n); !errors.Is(err, core.ErrNodeRange) {
				t.Fatalf("CostsFrom out of range: %v", err)
			}
			if rs, builds := e.CacheStats(), counter(e, "engine_cost_row_builds_total"); rs.Misses != 4 || builds != 3 {
				t.Fatalf("an out-of-range ask: %+v, %d builds; want the miss counted and nothing built", rs, builds)
			}

			// Every source, asked three times round-robin at one epoch, is
			// one pass: the row stands in for the tree from the first ask on.
			sweep, err := New(base, &Options{Directed: mode, CacheSize: (n + 1) / 2})
			if err != nil {
				t.Fatal(err)
			}
			snap := sweep.Snapshot()
			total := 0
			for round := 0; round < 3; round++ {
				for src := 0; src < n; src++ {
					_, passes := passesOf(func(root *obs.Span) {
						if _, err := snap.CostsFrom(src, root); err != nil {
							t.Fatal(err)
						}
					})
					total += passes
				}
			}
			if rs := sweep.CacheStats(); total != n || rs.Misses != uint64(n) || rs.Hits != uint64(2*n) {
				t.Fatalf("%d sources asked 3 times each: %d passes, rows %+v; want one pass per source", n, total, rs)
			}

			off, err := New(base, &Options{Directed: mode, CacheSize: -1})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 3; i++ {
				snap := off.Snapshot()
				var got Costs
				req, passes := passesOf(func(root *obs.Span) {
					if got, err = snap.CostsFrom(0, root); err != nil {
						t.Fatal(err)
					}
				})
				sameCosts(t, mode.String()+" cache off", snap, 0, got)
				if passes != 1 || req.Span(SpanCacheLookup) != nil {
					t.Fatalf("cache off: ask %d ran %d passes, looked up %v", i, passes, req.Span(SpanCacheLookup) != nil)
				}
			}
			if rs := off.CacheStats(); rs != (CacheStats{}) || counter(off, "engine_cost_row_builds_total") != 0 {
				t.Fatalf("cache off: %+v, %d rows built", rs, counter(off, "engine_cost_row_builds_total"))
			}
		})
	}
}

// TestBatchCostsOutOfRange: an endpoint out of range is answered by the
// path that names it in its error — the same text whether the source's
// row is resident or not — and counts as a tree or point request, so the
// split still sums.
func TestBatchCostsOutOfRange(t *testing.T) {
	e := obsTestEngine(t, 13)
	n := e.Base().NumNodes()
	reqs := []Request{{From: 0, To: n}, {From: 0, To: -1}, {From: n, To: 0}, {From: -1, To: n}, {From: 0, To: 5}}
	texts := func() (out [5]string) {
		for i, r := range e.Snapshot().BatchCosts(reqs, 1) {
			if i < 4 && !errors.Is(r.Err, core.ErrNodeRange) {
				t.Fatalf("%+v: err = %v, want ErrNodeRange", r.Request, r.Err)
			}
			if r.Err != nil {
				out[i] = r.Err.Error()
			}
		}
		return out
	}
	cold := texts()
	if cold[4] != "" {
		t.Fatalf("0->5: %s", cold[4])
	}
	if _, err := e.CostsFrom(0); err != nil { // source 0's row resident
		t.Fatal(err)
	}
	if got := texts(); got != cold {
		t.Fatalf("error texts changed with the cache state:\n%q\n%q", got, cold)
	}
	if row, _, _ := batchSplit(t, "out of range", e); row != 1 {
		t.Fatalf("%d requests read a row, want exactly the one in range", row)
	}
}

// TestConcurrentCostRows loops CostsFrom and BatchCosts on a few sources
// from several readers while a writer publishes epochs. Run under `go
// test -race` (make race-hot) it is the row cache's race detector; the
// assertions check that every answer — off a pass, off a row stored by
// another reader, off a row of an epoch long superseded — is bit for bit
// a fresh pass on the snapshot it was asked of, and that the counters
// reconcile afterwards.
func TestConcurrentCostRows(t *testing.T) {
	const (
		readers = 4
		cycles  = 40 // fixed work per reader: a starved reader still validates (GOMAXPROCS=1)
		churn   = 120
	)
	nw := buildNet(t, topo.NSFNET(), 6, 42)
	n := nw.NumNodes()
	for _, mode := range []core.DirectedMode{core.DirectedPlain, core.DirectedAStar} {
		e, err := New(nw, &Options{Directed: mode, CacheSize: 4})
		if err != nil {
			t.Fatal(err)
		}
		srcs := []int{0, 3, 7, 11, 13}
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(5))
			var held []int64
			for op := int64(1); op <= churn; op++ {
				if len(held) > 0 && rng.Intn(3) == 0 {
					if err := e.Release(held[0]); err != nil {
						t.Errorf("release: %v", err)
						return
					}
					held = held[1:]
					continue
				}
				s, d := rng.Intn(n), rng.Intn(n-1)
				if d >= s {
					d++
				}
				if _, err := e.RouteAndAllocate(op, s, d); err == nil {
					held = append(held, op)
				} else if !errors.Is(err, core.ErrNoRoute) {
					t.Errorf("allocate %d->%d: %v", s, d, err)
					return
				}
			}
		}()
		for r := 0; r < readers; r++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed))
				for cycle := 0; cycle < cycles; cycle++ {
					snap := e.Snapshot()
					src := srcs[rng.Intn(len(srcs))]
					want, err := snap.Aux().RouteFrom(src, nil)
					if err != nil {
						t.Errorf("reference pass: %v", err)
						return
					}
					// Three asks on one pin: a pass and its row's store (unless
					// another reader stored it first), then the row.
					for ask := 0; ask < 3; ask++ {
						got, err := snap.CostsFrom(src)
						if err != nil {
							t.Errorf("CostsFrom(%d): %v", src, err)
							return
						}
						for dst := 0; dst < n; dst++ {
							if math.Float64bits(got.To(dst)) != math.Float64bits(want.Dist(dst)) {
								t.Errorf("epoch %d ask %d: cost %d->%d = %v, a fresh pass says %v",
									snap.Epoch(), ask, src, dst, got.To(dst), want.Dist(dst))
								return
							}
						}
					}
					other := srcs[rng.Intn(len(srcs))]
					reqs := []Request{{src, rng.Intn(n)}, {other, rng.Intn(n)}, {src, src}, {src, rng.Intn(n)}}
					for _, br := range snap.BatchCosts(reqs, 2) {
						ref := want
						if br.From != src {
							if ref, err = snap.Aux().RouteFrom(br.From, nil); err != nil {
								t.Errorf("reference pass: %v", err)
								return
							}
						}
						if blocked := errors.Is(br.Err, core.ErrNoRoute); blocked != !ref.Reachable(br.To) || (br.Err != nil && !blocked) {
							t.Errorf("epoch %d: batch %d->%d: err %v, reachable %v", snap.Epoch(), br.From, br.To, br.Err, ref.Reachable(br.To))
							return
						}
						if br.Err == nil && math.Float64bits(br.Cost) != math.Float64bits(ref.Dist(br.To)) {
							t.Errorf("epoch %d: batch %d->%d = %v, a fresh pass says %v", snap.Epoch(), br.From, br.To, br.Cost, ref.Dist(br.To))
							return
						}
					}
				}
			}(int64(100 + r))
		}
		wg.Wait()
		if t.Failed() {
			return
		}
		rs, builds := e.CacheStats(), counter(e, "engine_cost_row_builds_total")
		if rs.Hits+rs.Misses != rs.Lookups || builds > rs.Misses || rs.Size > rs.Capacity {
			t.Fatalf("%s: cost rows: %+v, %d builds", mode, rs, builds)
		}
		if rs.Hits == 0 || builds == 0 {
			t.Fatalf("%s: no row was ever stored and read: %+v, %d builds", mode, rs, builds)
		}
		if row, tree, point := batchSplit(t, mode.String(), e); row+tree+point != readers*cycles*4 {
			t.Fatalf("%s: %d batch requests counted, %d made", mode, row+tree+point, readers*cycles*4)
		}
	}
}
