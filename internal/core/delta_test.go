package core

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"lightpath/internal/topo"
	"lightpath/internal/wdm"
	"lightpath/internal/workload"
)

func deltaNetwork(t testing.TB, seed int64) *wdm.Network {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	nw, err := workload.Build(topo.NSFNET(), workload.Spec{
		K:         6,
		AvailProb: 0.7,
		Conv:      workload.ConvUniform,
		ConvCost:  0.4,
	}, rng)
	if err != nil {
		t.Fatal(err)
	}
	return nw
}

// auxEqual asserts arc-for-arc equality of two compiled graphs over one
// layout (see AuxDiff).
func auxEqual(t testing.TB, got, want *Aux) {
	t.Helper()
	if err := AuxDiff(got, want); err != nil {
		t.Fatal(err)
	}
}

// deepChain walks a, compiled with NewAux on a fully free network, down a
// chain of steps deltas the way the engine's epochs do — one to three
// links per step, each with a single channel taken or given back, or the
// link failed (channel-less) or repaired — and returns the last graph:
// about a quarter of the channels held and a tenth of the links failed,
// every spine page rewritten many times over.
func deepChain(t testing.TB, a *Aux, rng *rand.Rand, steps int) *Aux {
	t.Helper()
	layout := a.Layout()
	m := layout.NumLinks()
	taken := make([]uint64, m) // bit i: the link's i-th installed channel is held
	failed := make([]bool, m)
	cur := a
	for step := 0; step < steps; step++ {
		changes := make(map[int][]wdm.Channel)
		var changed []int
		for picks := 1 + rng.Intn(3); picks > 0; picks-- {
			id := rng.Intn(m)
			if _, dup := changes[id]; dup {
				continue
			}
			installed := layout.Link(id).Channels
			switch r := rng.Float64(); {
			case failed[id]:
				failed[id] = r < 0.5
			case r < 0.05:
				failed[id] = true
			case len(installed) > 0:
				if bit := uint64(1) << rng.Intn(len(installed)); taken[id]&bit != 0 || r < 0.4 {
					taken[id] ^= bit
				}
			}
			var free []wdm.Channel
			for i, ch := range installed {
				if !failed[id] && taken[id]>>i&1 == 0 {
					free = append(free, ch)
				}
			}
			changes[id] = free
			changed = append(changed, id)
		}
		res, err := cur.Network().PatchChannels(changes)
		if err != nil {
			t.Fatal(err)
		}
		if cur, err = cur.ApplyDelta(res, changed); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
	}
	if cur.DeltaDepth() != steps {
		t.Fatalf("chain depth %d after %d steps", cur.DeltaDepth(), steps)
	}
	fresh, err := NewAuxWithLayout(layout, cur.Network())
	if err != nil {
		t.Fatal(err)
	}
	auxEqual(t, cur, fresh)
	return cur
}

// occupyResidual removes count random channels from nw (simulating
// allocations) and returns the patched residual plus the changed links.
func occupyResidual(t testing.TB, nw *wdm.Network, count int, rng *rand.Rand) (*wdm.Network, []int) {
	t.Helper()
	changes := make(map[int][]wdm.Channel)
	changed := []int{}
	for i := 0; i < count; i++ {
		id := rng.Intn(nw.NumLinks())
		cur := nw.Link(id).Channels
		if prev, ok := changes[id]; ok {
			cur = prev
		} else {
			changed = append(changed, id)
		}
		if len(cur) == 0 {
			continue
		}
		drop := rng.Intn(len(cur))
		next := make([]wdm.Channel, 0, len(cur)-1)
		next = append(next, cur[:drop]...)
		next = append(next, cur[drop+1:]...)
		changes[id] = next
	}
	res, err := nw.PatchChannels(changes)
	if err != nil {
		t.Fatal(err)
	}
	return res, changed
}

func TestNewAuxWithLayoutFullNetworkMatchesNewAux(t *testing.T) {
	nw := deltaNetwork(t, 1)
	a, err := NewAux(nw)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewAuxWithLayout(nw, nw)
	if err != nil {
		t.Fatal(err)
	}
	auxEqual(t, b, a)
	if a.Layout() != nw || a.DeltaDepth() != 0 {
		t.Fatalf("layout/depth: %v %d", a.Layout() == nw, a.DeltaDepth())
	}
}

func TestApplyDeltaMatchesFullCompile(t *testing.T) {
	nw := deltaNetwork(t, 2)
	rng := rand.New(rand.NewSource(3))
	parent, err := NewAux(nw)
	if err != nil {
		t.Fatal(err)
	}
	res, changed := occupyResidual(t, nw, 15, rng)
	got, err := parent.ApplyDelta(res, changed)
	if err != nil {
		t.Fatal(err)
	}
	want, err := NewAuxWithLayout(nw, res)
	if err != nil {
		t.Fatal(err)
	}
	auxEqual(t, got, want)
	if got.DeltaDepth() != 1 {
		t.Fatalf("delta depth = %d, want 1", got.DeltaDepth())
	}
	if got.Layout() != nw {
		t.Fatal("delta changed the layout")
	}
	// The parent is untouched: it still matches its own full compile.
	fresh, err := NewAuxWithLayout(nw, nw)
	if err != nil {
		t.Fatal(err)
	}
	auxEqual(t, parent, fresh)
}

// TestApplyDeltaChain: a chain of random deltas (occupying and freeing
// channels) stays arc-for-arc identical to a full compile of each step's
// residual, and routes identically to a fresh layout-free NewAux of the
// same residual.
func TestApplyDeltaChain(t *testing.T) {
	nw := deltaNetwork(t, 4)
	rng := rand.New(rand.NewSource(5))
	cur, err := NewAux(nw)
	if err != nil {
		t.Fatal(err)
	}
	residual := nw
	for step := 0; step < 12; step++ {
		var changed []int
		if rng.Intn(3) < 2 {
			residual, changed = occupyResidual(t, residual, 4, rng)
		} else {
			// Free everything on one link back to its installed set.
			id := rng.Intn(nw.NumLinks())
			res, err := residual.PatchChannels(map[int][]wdm.Channel{id: nw.Link(id).Channels})
			if err != nil {
				t.Fatal(err)
			}
			residual, changed = res, []int{id}
		}
		next, err := cur.ApplyDelta(residual, changed)
		if err != nil {
			t.Fatal(err)
		}
		want, err := NewAuxWithLayout(nw, residual)
		if err != nil {
			t.Fatal(err)
		}
		auxEqual(t, next, want)
		if next.DeltaDepth() != step+1 {
			t.Fatalf("step %d: depth %d", step, next.DeltaDepth())
		}
		cur = next
	}

	// Route equivalence against a layout-free compile of the final
	// residual: gadget node IDs differ, but every (s,t) cost must match.
	oracle, err := NewAux(residual)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < nw.NumNodes(); s++ {
		for d := 0; d < nw.NumNodes(); d++ {
			if s == d {
				continue
			}
			got, gotErr := cur.Route(s, d, nil)
			want, wantErr := oracle.Route(s, d, nil)
			if (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("%d->%d: err %v vs %v", s, d, gotErr, wantErr)
			}
			if gotErr != nil {
				if !errors.Is(gotErr, ErrNoRoute) {
					t.Fatalf("%d->%d: %v", s, d, gotErr)
				}
				continue
			}
			if got.Cost != want.Cost {
				t.Fatalf("%d->%d: cost %v vs %v", s, d, got.Cost, want.Cost)
			}
			// Re-costing the path sums in hop order while Dijkstra sums in
			// relaxation order; allow the resulting ulp-level noise.
			if c := got.Path.Cost(residual); math.Abs(c-got.Cost) > 1e-9 {
				t.Fatalf("%d->%d: path recosts to %v, reported %v", s, d, c, got.Cost)
			}
		}
	}
}

func TestApplyDeltaRejectsBadShapes(t *testing.T) {
	nw := deltaNetwork(t, 6)
	a, err := NewAux(nw)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.ApplyDelta(nil, nil); !errors.Is(err, ErrNilNetwork) {
		t.Fatalf("nil network: %v", err)
	}
	// Different topology: node count mismatch.
	other := wdm.NewNetwork(nw.NumNodes()+1, nw.K())
	if _, err := a.ApplyDelta(other, nil); !errors.Is(err, ErrDeltaShape) {
		t.Fatalf("node mismatch: %v", err)
	}
	// Out-of-range changed link.
	res, err := nw.PatchChannels(nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.ApplyDelta(res, []int{nw.NumLinks()}); !errors.Is(err, ErrDeltaShape) {
		t.Fatalf("bad link: %v", err)
	}
	// A wavelength the layout never installed on the link: residuals must
	// be sub-networks, so this is an inexpressible mutation.
	link := -1
	var missing wdm.Wavelength
	for id := 0; id < nw.NumLinks() && link < 0; id++ {
		present := make(map[wdm.Wavelength]bool)
		for _, c := range nw.Link(id).Channels {
			present[c.Lambda] = true
		}
		for l := 0; l < nw.K(); l++ {
			if !present[wdm.Wavelength(l)] {
				link, missing = id, wdm.Wavelength(l)
				break
			}
		}
	}
	if link < 0 {
		t.Skip("workload installed every wavelength everywhere")
	}
	grown := append(append([]wdm.Channel(nil), nw.Link(link).Channels...), wdm.Channel{Lambda: missing, Weight: 1})
	res, err = nw.PatchChannels(map[int][]wdm.Channel{link: grown})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.ApplyDelta(res, []int{link}); !errors.Is(err, ErrDeltaShape) {
		t.Fatalf("extra wavelength: %v", err)
	}
}

func TestApplyDeltaSharesUntouchedSegments(t *testing.T) {
	nw := deltaNetwork(t, 7)
	a, err := NewAux(nw)
	if err != nil {
		t.Fatal(err)
	}
	// Empty one link; every Y-segment of nodes not feeding that link must
	// be shared (same backing array), not re-emitted.
	res, err := nw.PatchChannels(map[int][]wdm.Channel{0: nil})
	if err != nil {
		t.Fatal(err)
	}
	child, err := a.ApplyDelta(res, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	from := nw.Link(0).From
	shared, replaced := 0, 0
	for u := 0; u < a.NumAuxNodes(); u++ {
		pa, ca := a.g.Out(u), child.g.Out(u)
		if len(pa) == 0 && len(ca) == 0 {
			continue
		}
		switch {
		case len(pa) > 0 && len(ca) > 0 && &pa[0] == &ca[0]:
			shared++
		default:
			replaced++
			if info := a.NodeInfo(u); int(info.Node) != from {
				t.Fatalf("segment of aux node %d (net node %d) re-emitted; only node %d's Y-shore should change",
					u, info.Node, from)
			}
		}
	}
	if shared == 0 || replaced == 0 {
		t.Fatalf("shared=%d replaced=%d; want both non-zero", shared, replaced)
	}
}

func TestNewAuxWithLayoutRejectsMismatch(t *testing.T) {
	nw := deltaNetwork(t, 8)
	other := wdm.NewNetwork(nw.NumNodes(), nw.K()+1)
	if _, err := NewAuxWithLayout(nw, other); !errors.Is(err, ErrLayoutMismatch) {
		t.Fatalf("k mismatch: %v", err)
	}
	if _, err := NewAuxWithLayout(nil, nw); !errors.Is(err, ErrNilNetwork) {
		t.Fatalf("nil layout: %v", err)
	}
}
