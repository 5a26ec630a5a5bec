package engine

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"lightpath/internal/core"
	"lightpath/internal/obs"
	"lightpath/internal/topo"
)

// memoAsk routes s→d on snap under a fresh trace and reports the answer
// and whether a search ran: a core_search span without memo=true.
func memoAsk(t *testing.T, snap *Snapshot, s, d int) (*core.Result, bool) {
	t.Helper()
	req := obs.StartTrace("request")
	res, err := snap.Route(s, d, req.Root())
	if err != nil {
		t.Fatalf("epoch %d: %d->%d: %v", snap.Epoch(), s, d, err)
	}
	sp := req.Span(core.SpanSearch)
	if sp == nil {
		t.Fatalf("epoch %d: %d->%d recorded no core_search span", snap.Epoch(), s, d)
	}
	memo, _ := sp.Attr(core.AttrMemo)
	if settled, _ := sp.Attr(core.AttrSettled); settled.Int() != int64(res.Stats.Settled) || settled.Int() <= 0 {
		t.Fatalf("epoch %d: %d->%d: core_search settled %d, the Result's search %d", snap.Epoch(), s, d, settled.Int(), res.Stats.Settled)
	}
	return res, !memo.Bool()
}

// memoIdentities checks the route memo's counters against each other:
// hits + misses = lookups, stores ≤ misses, size ≤ capacity.
func memoIdentities(t *testing.T, what string, e *Engine) CacheStats {
	t.Helper()
	ms := e.RouteMemoStats()
	if ms.Hits+ms.Misses != ms.Lookups || ms.Stores > ms.Misses || ms.Size > ms.Capacity {
		t.Fatalf("%s: route memo %+v: want hits + misses = lookups, stores ≤ misses, size ≤ capacity", what, ms)
	}
	snap := e.Metrics().Snapshot()
	for name, want := range map[string]uint64{
		"engine_route_memo_lookups_total": ms.Lookups,
		"engine_route_memo_hits_total":    ms.Hits,
		"engine_route_memo_stores_total":  ms.Stores,
	} {
		if got := uint64(snap[name].(float64)); got != want {
			t.Fatalf("%s: %s = %d, RouteMemoStats says %d", what, name, got, want)
		}
	}
	return ms
}

// TestRouteMemoSecondAsk is the route memo's admission rule, on one
// goroutine: a pair's first Route at an epoch searches and stores
// nothing, its second searches and stores the Result, every later one
// is that Result with no search — and adds nothing to
// engine_goal_settled_total. A mutation makes the next ask search again,
// while a reader pinned to the old snapshot keeps its epoch's answer. At
// a stable epoch every pair costs two searches however often it is asked
// and the stores are the pairs asked at least twice; on a churn script,
// where every mutation publishes an epoch, nothing is stored. With the
// cache disabled nothing is looked up or stored and every ask searches.
func TestRouteMemoSecondAsk(t *testing.T) {
	base := obsTestEngine(t, 13).Base()
	n := base.NumNodes()
	for _, mode := range []core.DirectedMode{core.DirectedPlain, core.DirectedAStar} {
		t.Run(mode.String(), func(t *testing.T) {
			e, err := New(base, &Options{Directed: mode})
			if err != nil {
				t.Fatal(err)
			}
			if ms := e.RouteMemoStats(); ms.Capacity != DefaultCacheSize*e.Snapshot().Aux().TreePays(mode) {
				t.Fatalf("memo capacity %d, want CacheSize × TreePays", ms.Capacity)
			}
			snap := e.Snapshot()
			first, searched := memoAsk(t, snap, 0, 9)
			if ms := memoIdentities(t, "first ask", e); !searched || ms.Stores != 0 || ms.Misses != 1 {
				t.Fatalf("first ask: searched %v, memo %+v; want a search and nothing stored", searched, ms)
			}
			second, searched := memoAsk(t, snap, 0, 9)
			if ms := memoIdentities(t, "second ask", e); !searched || ms.Stores != 1 || ms.Size != 1 {
				t.Fatalf("second ask: searched %v, memo %+v; want a search and its Result stored", searched, ms)
			}
			if second == first || second.Cost != first.Cost || !reflect.DeepEqual(second.Path, first.Path) {
				t.Fatalf("second ask answered %v, the first %v: want an equal Result of its own search", second, first)
			}
			settled := counter(e, "engine_goal_settled_total")
			for ask := 3; ask <= 6; ask++ {
				res, searched := memoAsk(t, snap, 0, 9)
				if ms := memoIdentities(t, "later ask", e); searched || res != second || ms.Stores != 1 || ms.Hits != uint64(ask-2) {
					t.Fatalf("ask %d: searched %v, same Result %v, memo %+v; want the stored Result", ask, searched, res == second, ms)
				}
			}
			if got := counter(e, "engine_goal_settled_total"); got != settled {
				t.Fatalf("memo hits settled %d nodes", got-settled)
			}

			if _, err := e.RouteAndAllocate(1, 2, 9); err != nil { // a first ask of 2→9, then epoch 1
				t.Fatal(err)
			}
			fresh := e.Snapshot()
			if _, searched := memoAsk(t, fresh, 0, 9); !searched {
				t.Fatal("after a mutation the next ask did not search")
			}
			if res, searched := memoAsk(t, snap, 0, 9); searched || res != second {
				t.Fatalf("a reader pinned to epoch 0 got a different answer (searched %v)", searched)
			}
			if ms := memoIdentities(t, "after the mutation", e); ms.Stores != 1 {
				t.Fatalf("after the mutation: memo %+v, want still one store", ms)
			}

			// Every pair asked 1, 2, 3 or 4 times, the asks interleaved, on a
			// fresh engine whose memo holds every pair: two searches per pair
			// asked twice or more, one per pair asked once.
			e, err = New(base, &Options{Directed: mode, CacheSize: n * n})
			if err != nil {
				t.Fatal(err)
			}
			snap = e.Snapshot()
			var searches, routed, twice uint64
			asks := func(s, d int) int { return 1 + (s*7+d*3)%4 }
			for round := 1; round <= 4; round++ {
				for s := 0; s < n; s++ {
					for d := 0; d < n; d++ {
						if s == d || asks(s, d) < round {
							continue
						}
						_, err := snap.Route(s, d)
						if errors.Is(err, core.ErrNoRoute) {
							continue
						}
						if err != nil {
							t.Fatal(err)
						}
						routed++
						if round <= 2 {
							searches++
						}
						if round == 2 {
							twice++
						}
					}
				}
			}
			ms := memoIdentities(t, "sweep", e)
			if routed-ms.Hits != searches || ms.Stores != twice || ms.Size != int(twice) {
				t.Fatalf("sweep: %d served routes, memo %+v; want %d searches (2 per pair asked twice or more) and %d stores",
					routed, ms, searches, twice)
			}

			// A churn script on a fresh engine: every alloc and release
			// publishes an epoch, so no pair is asked twice at one.
			e, err = New(base, &Options{Directed: mode})
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(5))
			var held []int64
			for op := int64(1); op <= 60; op++ {
				if len(held) > 0 && rng.Intn(3) == 0 {
					if err := e.Release(held[0]); err != nil {
						t.Fatal(err)
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
					t.Fatal(err)
				}
			}
			if ms := memoIdentities(t, "churn", e); ms.Stores != 0 || ms.Hits != 0 || ms.Lookups == 0 {
				t.Fatalf("churn: memo %+v; want lookups, no store and no hit", ms)
			}

			off, err := New(base, &Options{Directed: mode, CacheSize: -1})
			if err != nil {
				t.Fatal(err)
			}
			for ask := 0; ask < 3; ask++ {
				if _, searched := memoAsk(t, off.Snapshot(), 0, 9); !searched {
					t.Fatalf("-cache -1: ask %d did not search", ask)
				}
			}
			if ms := off.RouteMemoStats(); ms != (CacheStats{}) {
				t.Fatalf("-cache -1: memo %+v, want nothing", ms)
			}
		})
	}
}

// TestConcurrentRouteMemo routes a few pairs from several readers, each
// on a snapshot it pins, while a writer publishes epochs. Run under `go
// test -race` (make race-hot) it is the route memo's race detector:
// readers race each other's second asks to the store and read Results
// another reader stored. Every answer — searched, stored or read — must
// be, cost bit for bit and path hop for hop, what a fresh search on the
// snapshot it was asked of returns; a reader also re-asks the snapshot of
// its cycle before, by then usually superseded.
func TestConcurrentRouteMemo(t *testing.T) {
	const (
		readers = 4
		cycles  = 40 // fixed work per reader: a starved reader still validates (GOMAXPROCS=1)
		churn   = 120
	)
	nw := buildNet(t, topo.NSFNET(), 6, 42)
	n := nw.NumNodes()
	pairs := [][2]int{{0, 9}, {3, 12}, {7, 1}, {11, 4}, {13, 0}}
	for _, mode := range []core.DirectedMode{core.DirectedPlain, core.DirectedAStar} {
		e, err := New(nw, &Options{Directed: mode, CacheSize: 2})
		if err != nil {
			t.Fatal(err)
		}
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
				// read asks snap for p's route and checks it against a fresh
				// search on snap with the engine's options and no bound rows.
				read := func(snap *Snapshot, p [2]int, ask string) bool {
					got, err := snap.Route(p[0], p[1])
					want, werr := snap.Aux().Route(p[0], p[1], &core.Options{Queue: e.queue, Directed: mode})
					if (err == nil) != (werr == nil) {
						t.Errorf("epoch %d %s: %d->%d: %v, a fresh search %v", snap.Epoch(), ask, p[0], p[1], err, werr)
						return false
					}
					if err != nil {
						if !errors.Is(err, core.ErrNoRoute) {
							t.Errorf("epoch %d %s: %d->%d: %v", snap.Epoch(), ask, p[0], p[1], err)
							return false
						}
						return true
					}
					if math.Float64bits(got.Cost) != math.Float64bits(want.Cost) || !reflect.DeepEqual(got.Path, want.Path) {
						t.Errorf("epoch %d %s: %d->%d = %v %v, a fresh search %v %v",
							snap.Epoch(), ask, p[0], p[1], got.Cost, got.Path, want.Cost, want.Path)
						return false
					}
					return true
				}
				var (
					prev     *Snapshot
					prevPair [2]int
				)
				for cycle := 0; cycle < cycles; cycle++ {
					snap := e.Snapshot()
					p := pairs[rng.Intn(len(pairs))]
					// Three asks on one pin: a search (or another reader's
					// Result), a search that stores, the stored Result.
					for ask := 0; ask < 3; ask++ {
						if !read(snap, p, "ask") {
							return
						}
					}
					if prev != nil && !read(prev, prevPair, "re-ask") {
						return
					}
					prev, prevPair = snap, p
				}
			}(int64(100 + r))
		}
		wg.Wait()
		if t.Failed() {
			return
		}
		if ms := memoIdentities(t, mode.String(), e); ms.Hits == 0 || ms.Stores == 0 {
			t.Fatalf("%s: no Result was ever stored and read: %+v", mode, ms)
		}
	}
}
