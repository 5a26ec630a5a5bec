package engine

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"lightpath/internal/core"
	"lightpath/internal/wdm"
)

// sharesChannels reports whether two links hold one channel slice.
func sharesChannels(a, b *wdm.Link) bool {
	return len(a.Channels) > 0 && len(b.Channels) > 0 && &a.Channels[0] == &b.Channels[0]
}

// TestPatchedResidualMatchesDeltaChain: an engine whose every third
// publish is a full compile — the residual patched from the base — and
// an engine that only chains deltas, driven by one seeded script of
// allocations, releases, failures and repairs, offer the same channels
// on every link, in the same order, and price every probed pair with the
// same cost bits at every epoch. A full publish shares the base's channel
// slice on every link it did not patch; at epoch 0 that is every link,
// and the residual is the base's topology.
func TestPatchedResidualMatchesDeltaChain(t *testing.T) {
	for _, tc := range []struct {
		name string
		nw   *wdm.Network
	}{
		{"nsfnet", benchNet(t)},
		{"sparse100", sparseNet(t, 100)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base := tc.nw
			mixed, err := New(base, &Options{MaxDeltaDepth: 3, Directed: core.DirectedAStar})
			if err != nil {
				t.Fatal(err)
			}
			chain, err := New(base, &Options{Directed: core.DirectedAStar})
			if err != nil {
				t.Fatal(err)
			}
			res := mixed.Snapshot().Network()
			if !res.SameTopology(base) {
				t.Fatal("the epoch-0 residual is not the base's topology")
			}
			for id := 0; id < base.NumLinks(); id++ {
				if !sharesChannels(res.Link(id), base.Link(id)) {
					t.Fatalf("epoch 0: link %d does not share the base's channels", id)
				}
			}

			rng := rand.New(rand.NewSource(52))
			n, m := base.NumNodes(), base.NumLinks()
			var live []int64
			owner := int64(0)
			fulls, last := 0, uint64(0)
			for op := 0; op < 400; op++ {
				switch r := rng.Float64(); {
				case r < 0.5:
					s, d := rng.Intn(n), rng.Intn(n)
					route, err := mixed.Snapshot().Route(s, d)
					if errors.Is(err, core.ErrNoRoute) || errors.Is(err, core.ErrNodeRange) || s == d {
						continue
					}
					if err != nil {
						t.Fatal(err)
					}
					owner++
					for _, e := range []*Engine{mixed, chain} {
						if err := e.Allocate(owner, route.Path); err != nil {
							t.Fatalf("op %d: allocate: %v", op, err)
						}
					}
					live = append(live, owner)
				case r < 0.8 && len(live) > 0:
					i := rng.Intn(len(live))
					for _, e := range []*Engine{mixed, chain} {
						if err := e.Release(live[i]); err != nil {
							t.Fatalf("op %d: release: %v", op, err)
						}
					}
					live = append(live[:i], live[i+1:]...)
				case r < 0.9:
					id := rng.Intn(m)
					for _, e := range []*Engine{mixed, chain} {
						if _, err := e.FailLink(id); err != nil {
							t.Fatal(err)
						}
					}
				default:
					failed := failedLinks(mixed)
					if len(failed) == 0 {
						continue
					}
					id := failed[rng.Intn(len(failed))]
					for _, e := range []*Engine{mixed, chain} {
						if err := e.RepairLink(id); err != nil {
							t.Fatal(err)
						}
					}
				}

				ms, cs := mixed.Snapshot(), chain.Snapshot()
				if ms.Epoch() != cs.Epoch() {
					t.Fatalf("op %d: epochs %d and %d", op, ms.Epoch(), cs.Epoch())
				}
				full := ms.aux.DeltaDepth() == 0
				if full && ms.Epoch() != last {
					fulls++
				}
				last = ms.Epoch()
				for id := 0; id < m; id++ {
					got, want := ms.Network().Link(id), cs.Network().Link(id)
					if len(got.Channels) != len(want.Channels) {
						t.Fatalf("epoch %d link %d: %v, delta chain %v", ms.Epoch(), id, got.Channels, want.Channels)
					}
					for i := range want.Channels {
						if got.Channels[i] != want.Channels[i] {
							t.Fatalf("epoch %d link %d: %v, delta chain %v", ms.Epoch(), id, got.Channels, want.Channels)
						}
					}
					if b := base.Link(id); full && len(got.Channels) == len(b.Channels) && !sharesChannels(got, b) && len(b.Channels) > 0 {
						t.Fatalf("epoch %d: full publish copied unpatched link %d", ms.Epoch(), id)
					}
				}
				for probe := 0; probe < 4; probe++ {
					s, d := rng.Intn(n), rng.Intn(n)
					mr, merr := ms.Route(s, d)
					cr, cerr := cs.Route(s, d)
					if (merr == nil) != (cerr == nil) {
						t.Fatalf("epoch %d route %d→%d: %v, delta chain %v", ms.Epoch(), s, d, merr, cerr)
					}
					if merr == nil && math.Float64bits(mr.Cost) != math.Float64bits(cr.Cost) {
						t.Fatalf("epoch %d route %d→%d: cost %v, delta chain %v", ms.Epoch(), s, d, mr.Cost, cr.Cost)
					}
				}
			}
			if st := mixed.Stats(); fulls < 20 || st.FullRebuilds != uint64(fulls)+1 || st.DeltaApplies == 0 {
				t.Fatalf("%d full publishes checked, stats %+v: the two paths did not interleave", fulls, st)
			}
			if st := chain.Stats(); st.FullRebuilds != 1 {
				t.Fatalf("the delta chain published %d full compiles", st.FullRebuilds)
			}
		})
	}
}
