package engine

import (
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"lightpath/internal/core"
	"lightpath/internal/topo"
)

// TestConcurrentChurn runs N writer goroutines (allocate/release churn)
// against M reader goroutines (Route, RouteFrom, RouteBatch) on one
// engine. Run under `go test -race` it is the epoch-swap and
// SourceTree-cache race detector; the assertions additionally check
// that every answer is self-consistent against the snapshot it was
// computed on — a reader pinned to epoch E must get answers priced on
// epoch E's residual, no matter how many epochs the writers have
// published since.
func TestConcurrentChurn(t *testing.T) {
	const (
		writers       = 4
		readers       = 6
		opsPerWriter  = 60
		readsPerCycle = 5
		minCycles     = 20 // floor so starved readers still validate (GOMAXPROCS=1)
	)
	nw := buildNet(t, topo.NSFNET(), 6, 42)
	e, err := New(nw, &Options{CacheSize: 32})
	if err != nil {
		t.Fatal(err)
	}
	n := nw.NumNodes()

	var (
		writerWG sync.WaitGroup
		readerWG sync.WaitGroup
		ownerSeq atomic.Int64
		done     atomic.Bool
		failures atomic.Int64
	)
	fail := func(format string, args ...interface{}) {
		failures.Add(1)
		t.Errorf(format, args...)
	}

	for w := 0; w < writers; w++ {
		writerWG.Add(1)
		go func(seed int64) {
			defer writerWG.Done()
			rng := rand.New(rand.NewSource(seed))
			var mine []int64
			for op := 0; op < opsPerWriter; op++ {
				s, d := rng.Intn(n), rng.Intn(n)
				for d == s {
					d = rng.Intn(n)
				}
				if rng.Float64() < 0.6 || len(mine) == 0 {
					owner := ownerSeq.Add(1)
					_, err := e.RouteAndAllocate(owner, s, d)
					switch {
					case err == nil:
						mine = append(mine, owner)
					case errors.Is(err, core.ErrNoRoute):
						// Blocked under contention: legitimate.
					case errors.Is(err, ErrConflict):
						// Retries exhausted under heavy churn: legitimate.
					default:
						fail("writer allocate %d->%d: %v", s, d, err)
						return
					}
				} else {
					i := rng.Intn(len(mine))
					owner := mine[i]
					mine[i] = mine[len(mine)-1]
					mine = mine[:len(mine)-1]
					if err := e.Release(owner); err != nil {
						fail("writer release %d: %v", owner, err)
						return
					}
				}
			}
			// Drain so the final invariant check sees a clean engine.
			for _, owner := range mine {
				if err := e.Release(owner); err != nil {
					fail("writer drain %d: %v", owner, err)
				}
			}
		}(int64(w + 1))
	}

	for r := 0; r < readers; r++ {
		readerWG.Add(1)
		go func(seed int64) {
			defer readerWG.Done()
			rng := rand.New(rand.NewSource(seed))
			for cycle := 0; cycle < minCycles || !done.Load(); cycle++ {
				snap := e.Snapshot()
				snapNet := snap.Network()
				for i := 0; i < readsPerCycle; i++ {
					s, d := rng.Intn(n), rng.Intn(n)
					for d == s {
						d = rng.Intn(n)
					}
					switch rng.Intn(3) {
					case 0:
						res, err := snap.Route(s, d)
						if errors.Is(err, core.ErrNoRoute) {
							continue
						}
						if err != nil {
							fail("reader route %d->%d: %v", s, d, err)
							return
						}
						if err := res.Path.Validate(snapNet, s, d); err != nil {
							fail("reader path invalid on pinned epoch %d: %v", snap.Epoch(), err)
							return
						}
						if !costsAgree(res.Path.Cost(snapNet), res.Cost) {
							fail("reader cost mismatch on pinned epoch %d: %v vs %v",
								snap.Epoch(), res.Path.Cost(snapNet), res.Cost)
							return
						}
					case 1:
						st, err := snap.RouteFrom(s)
						if err != nil {
							fail("reader routefrom %d: %v", s, err)
							return
						}
						if st.Source() != s {
							fail("tree source %d, asked for %d", st.Source(), s)
							return
						}
						if st.Reachable(d) {
							p, err := st.PathTo(d)
							if err != nil {
								fail("reader pathto: %v", err)
								return
							}
							if !costsAgree(p.Cost(snapNet), st.Dist(d)) {
								fail("tree path prices %v, dist %v", p.Cost(snapNet), st.Dist(d))
								return
							}
						}
					default:
						reqs := []Request{{s, d}, {s, (d + 1) % n}, {d, s}}
						for _, br := range snap.RouteBatch(reqs, 2) {
							if br.Err != nil && !errors.Is(br.Err, core.ErrNoRoute) {
								fail("reader batch %d->%d: %v", br.From, br.To, br.Err)
								return
							}
						}
					}
				}
			}
		}(int64(100 + r))
	}

	writerWG.Wait()
	done.Store(true) // stop the readers once all churn has landed
	readerWG.Wait()
	if failures.Load() > 0 {
		t.Fatalf("%d concurrent failures", failures.Load())
	}
	if e.HeldChannels() != 0 {
		t.Fatalf("%d channels held after drain", e.HeldChannels())
	}
	if got, want := e.Snapshot().Network().TotalChannels(), nw.TotalChannels(); got != want {
		t.Fatalf("final residual %d channels, want %d", got, want)
	}
}
