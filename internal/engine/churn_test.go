package engine

import (
	"errors"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"lightpath/internal/core"
	"lightpath/internal/topo"
	"lightpath/internal/wdm"
	"lightpath/internal/workload"
)

// sparseNet builds the whole-stack benchmark's mid_churn / big_read
// instance shape: wdmserve's `-topo sparse -n N -k 8` defaults.
func sparseNet(tb testing.TB, n int) *wdm.Network {
	tb.Helper()
	rng := rand.New(rand.NewSource(1))
	nw, err := workload.Build(topo.RandomSparse(n, 4, 6, rng), workload.Spec{
		K:         8,
		AvailProb: 0.6,
		Conv:      workload.ConvUniform,
		ConvCost:  0.5,
	}, rng)
	if err != nil {
		tb.Fatal(err)
	}
	return nw
}

// churnLoad is the offered load of the benchmark's mid_churn workload,
// in Erlangs.
const churnLoad = 250

// churn drives an engine with mid_churn's arrival process in-process:
// one arrival per slot between seeded pairs, each admitted lease held for
// Exp(mean churnLoad) slots. Every mutation publishes one epoch.
type churn struct {
	e    *Engine
	rng  *rand.Rand
	slot int
	due  map[int][]int64
	live map[int64]bool
}

// step runs one slot: the releases due, then one arrival (a blocked
// arrival publishes nothing).
func (c *churn) step(tb testing.TB) {
	tb.Helper()
	for _, owner := range c.due[c.slot] {
		if err := c.e.Release(owner); err != nil {
			tb.Fatalf("slot %d: release %d: %v", c.slot, owner, err)
		}
		delete(c.live, owner)
	}
	delete(c.due, c.slot)
	n := c.e.Base().NumNodes()
	s, d := c.rng.Intn(n), c.rng.Intn(n)
	for d == s {
		d = c.rng.Intn(n)
	}
	owner := c.e.ReserveOwner()
	_, err := c.e.RouteAndAllocate(owner, s, d)
	switch {
	case err == nil:
		at := c.slot + 1 + int(math.Ceil(c.rng.ExpFloat64()*churnLoad))
		c.due[at] = append(c.due[at], owner)
		c.live[owner] = true
	case !errors.Is(err, core.ErrNoRoute):
		tb.Fatalf("slot %d: allocate %d->%d: %v", c.slot, s, d, err)
	}
	c.slot++
}

// steadyChurn returns an engine with the server's search mode over nw,
// warmed to steady-state occupancy at 250 Erlang (four mean holding
// times).
func steadyChurn(tb testing.TB, nw *wdm.Network) *churn {
	tb.Helper()
	e, err := New(nw, &Options{Directed: core.DirectedAStar})
	if err != nil {
		tb.Fatal(err)
	}
	c := &churn{e: e, rng: rand.New(rand.NewSource(3)), due: make(map[int][]int64), live: make(map[int64]bool)}
	for i := 0; i < 4*churnLoad; i++ {
		c.step(tb)
	}
	return c
}

// republisher returns a function that publishes one delta epoch at c's
// steady state: the held leases' channels leave the occupancy table and
// come back in turn, one publish each way, so every publish frees or
// re-holds a real path — one λ on each of its links, the delta of a
// release or an alloc — and nothing else is timed or counted. Occupancy
// is back where it started after every second call.
func republisher(tb testing.TB, c *churn) func() {
	tb.Helper()
	var owners []int64
	for owner := range c.live {
		owners = append(owners, owner)
	}
	if len(owners) == 0 {
		tb.Fatal("no live leases at steady state")
	}
	slices.Sort(owners)
	i := 0
	return func() {
		e := c.e
		e.mu.Lock()
		defer e.mu.Unlock()
		owner := owners[i/2%len(owners)]
		chans := e.owners[owner]
		for _, ch := range chans {
			if i%2 == 0 {
				delete(e.inUse, ch)
			} else {
				e.inUse[ch] = owner
			}
		}
		if err := e.publish(e.Epoch()+1, e.changedLinks(chans), nil); err != nil {
			tb.Fatal(err)
		}
		i++
	}
}

// mallocsAndBytes reports the heap objects and bytes run allocates per
// call, averaged over runs calls.
func mallocsAndBytes(runs int, run func()) (objects, bytes float64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	run() // warm scratch buffers
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs),
		float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// publishCost measures one delta publish at c's steady state, best of
// several short runs as TestRouteFromMissAllocations.
func publishCost(tb testing.TB, c *churn) (objects, bytes float64) {
	tb.Helper()
	publish := republisher(tb, c)
	objects, bytes = math.Inf(1), math.Inf(1)
	for round := 0; round < 8; round++ {
		o, b := mallocsAndBytes(200, publish)
		objects, bytes = math.Min(objects, o), math.Min(bytes, b)
	}
	return objects, bytes
}

// TestPublishAllocationsAreLocal pins the cost model of a delta publish:
// it allocates the changed fragment — a few spine and link pages, one arc
// arena holding the re-emitted segments of the moved wavelengths alone,
// one channel arena — and nothing that scales with |V'| or m beyond the
// two page tables. At n=100 one publish of a path freed or re-held
// allocates 8.8 KB; re-emitting every layout wavelength of each changed
// link took 10.7 KB.
func TestPublishAllocationsAreLocal(t *testing.T) {
	c100 := steadyChurn(t, sparseNet(t, 100))
	obj100, bytes100 := publishCost(t, c100)
	t.Logf("n=100: %.1f objects, %.0f bytes per delta publish", obj100, bytes100)
	if obj100 > 64 || bytes100 > 9<<10 {
		t.Fatalf("n=100 delta publish allocates %.1f objects / %.0f bytes, want ≤ 64 / ≤ 9 KB", obj100, bytes100)
	}
	if st := c100.e.Stats(); st.FullRebuilds != 1 {
		t.Fatalf("%d full rebuilds, want the epoch-0 compile only", st.FullRebuilds)
	}
	obj300, bytes300 := publishCost(t, steadyChurn(t, sparseNet(t, 300)))
	t.Logf("n=300: %.1f objects, %.0f bytes per delta publish", obj300, bytes300)
	if bytes300 > 1.5*bytes100 || obj300 > 1.5*obj100 {
		t.Fatalf("n=300 delta publish allocates %.1f objects / %.0f bytes, more than 1.5× n=100's %.1f / %.0f",
			obj300, bytes300, obj100, bytes100)
	}
}

// BenchmarkAllocateReleaseChurn is the mutation path at the whole-stack
// benchmark's operating point: one 250-Erlang slot per iteration on
// sparse n=100 k=8 — an A* route and its allocation plus the releases
// that fall due, about two published epochs.
func BenchmarkAllocateReleaseChurn(b *testing.B) {
	c := steadyChurn(b, sparseNet(b, 100))
	epoch0 := c.e.Epoch()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.step(b)
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	epochs := float64(c.e.Epoch() - epoch0)
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/epochs, "B/epoch")
	b.ReportMetric(epochs/float64(b.N), "epochs/op")
}

// BenchmarkDeltaPublish is one delta publish alone — ns, bytes and objects
// per epoch — at 250-Erlang steady state on the three standard tiers
// (NSFNET saturates well below that load; its leases are what got in).
func BenchmarkDeltaPublish(b *testing.B) {
	for _, tier := range []struct {
		name string
		nw   *wdm.Network
	}{{"nsfnet", benchNet(b)}, {"n=100", sparseNet(b, 100)}, {"n=300", sparseNet(b, 300)}} {
		b.Run(tier.name, func(b *testing.B) {
			publish := republisher(b, steadyChurn(b, tier.nw))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				publish()
			}
		})
	}
}

// TestTreeSurvivalUnderChurn is the measurement that closed SourceTree
// carry-over for mid_churn (EXPERIMENTS.md X20): at that workload's
// operating point — sparse n=100 k=8 at 250 Erlang — how much of a tree
// computed at one epoch is still true Δ epochs later. Run with -v for
// the table. It asserts only the conclusion the roadmap rests on: at the
// reader's revisit gap of ≈ 200 epochs, fewer than one tree in ten still
// has every destination cost it had.
func TestTreeSurvivalUnderChurn(t *testing.T) {
	c := steadyChurn(t, sparseNet(t, 100))
	n := c.e.Base().NumNodes()
	sources := rand.New(rand.NewSource(20)).Perm(n)[:40]
	costs := func() [][]float64 {
		snap := c.e.Snapshot()
		out := make([][]float64, len(sources))
		for i, s := range sources {
			st, err := snap.Aux().RouteFrom(s, nil)
			if err != nil {
				t.Fatal(err)
			}
			out[i] = make([]float64, n)
			for d := range out[i] {
				out[i][d] = st.Dist(d)
			}
		}
		return out
	}
	base, from := costs(), c.e.Epoch()
	held := float64(c.e.HeldChannels()) / float64(c.e.Base().TotalChannels())
	t.Logf("epoch %d, %d live leases, %.0f %% of channels held, %d sources × %d destinations",
		from, len(c.live), 100*held, len(sources), n)
	t.Logf("%6s  %15s  %22s", "Δ", "trees identical", "destination costs moved")
	for _, gap := range []uint64{1, 2, 5, 10, 20, 50, 100, 200, 400} {
		for c.e.Epoch() < from+gap {
			c.step(t)
		}
		now := costs()
		identical, moved := 0, 0
		for i := range base {
			same := true
			for d := range base[i] {
				// Bit comparison: +Inf stays +Inf, and a tree to carry over
				// must be exact, not close.
				if math.Float64bits(base[i][d]) != math.Float64bits(now[i][d]) {
					same = false
					moved++
				}
			}
			if same {
				identical++
			}
		}
		t.Logf("%6d  %9d of %2d  %21.1f%%", c.e.Epoch()-from, identical, len(sources), 100*float64(moved)/float64(len(sources)*n))
		if gap == 200 && identical*10 >= len(sources) {
			t.Errorf("Δ=200: %d of %d trees unchanged; carry-over was closed on fewer than one in ten", identical, len(sources))
		}
	}
}
