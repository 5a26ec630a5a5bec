package engine

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"lightpath/internal/core"
)

var errInjected = errors.New("injected publish fault")

// drive feeds an engine one seeded alloc/release/fail/repair/route mix and
// returns the transcript of everything it answered.
func drive(t *testing.T, e *Engine, ops int) []string {
	t.Helper()
	rng := rand.New(rand.NewSource(77))
	n, m := e.Base().NumNodes(), e.Base().NumLinks()
	var live []int64
	var out []string
	for i := 0; i < ops; i++ {
		s, d := rng.Intn(n), rng.Intn(n)
		for d == s {
			d = rng.Intn(n)
		}
		switch r := rng.Float64(); {
		case r < 0.4:
			owner := e.ReserveOwner()
			res, err := e.RouteAndAllocate(owner, s, d)
			if err != nil && !errors.Is(err, core.ErrNoRoute) {
				t.Fatalf("op %d: allocate: %v", i, err)
			}
			if err == nil {
				live = append(live, owner)
				out = append(out, fmt.Sprintf("alloc %d %v %v", owner, res.Cost, res.Path.Hops))
			} else {
				out = append(out, "alloc blocked")
			}
		case r < 0.7 && len(live) > 0:
			j := rng.Intn(len(live))
			if err := e.Release(live[j]); err != nil {
				t.Fatalf("op %d: release: %v", i, err)
			}
			out = append(out, fmt.Sprintf("release %d", live[j]))
			live = append(live[:j], live[j+1:]...)
		case r < 0.75:
			riders, err := e.FailLink(rng.Intn(m))
			if err != nil {
				t.Fatalf("op %d: fail: %v", i, err)
			}
			out = append(out, fmt.Sprintf("fail %v", riders))
		case r < 0.8:
			failed := failedLinks(e)
			if len(failed) == 0 {
				continue
			}
			if err := e.RepairLink(failed[rng.Intn(len(failed))]); err != nil {
				t.Fatalf("op %d: repair: %v", i, err)
			}
			out = append(out, "repair")
		default:
			res, err := e.Route(s, d)
			if err != nil {
				out = append(out, "route "+err.Error())
			} else {
				out = append(out, fmt.Sprintf("route %v %v", res.Cost, res.Path.Hops))
			}
		}
		out = append(out, fmt.Sprintf("epoch %d", e.Epoch()))
	}
	return out
}

// TestDeltaFailureFallsBackToFullCompile: with the periodic recompile gone
// a failed delta is the only road to the full compile. Any delta error —
// not just ErrDeltaShape — must take it: the mutation is published at its
// epoch, and everything the engine answers afterwards equals a run whose
// deltas never failed.
func TestDeltaFailureFallsBackToFullCompile(t *testing.T) {
	clean, err := New(benchNet(t), &Options{Directed: core.DirectedAStar})
	if err != nil {
		t.Fatal(err)
	}
	faulty, err := New(benchNet(t), &Options{Directed: core.DirectedAStar})
	if err != nil {
		t.Fatal(err)
	}
	deltas, injected := 0, uint64(0)
	faulty.publishFault = func(full bool) error {
		if full {
			return nil
		}
		if deltas++; deltas%5 == 0 {
			injected++
			return errInjected
		}
		return nil
	}
	want, got := drive(t, clean, 400), drive(t, faulty, 400)
	if len(got) != len(want) {
		t.Fatalf("transcripts: %d lines vs %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("line %d: %q after delta faults, %q without", i, got[i], want[i])
		}
	}
	sameChannels(t, faulty.Snapshot().Network(), clean.Snapshot().Network(), clean.Epoch())
	cs, fs := clean.Stats(), faulty.Stats()
	if injected == 0 || fs.FullRebuilds != 1+injected || cs.FullRebuilds != 1 {
		t.Fatalf("injected %d delta faults: %d full rebuilds (clean run %d)", injected, fs.FullRebuilds, cs.FullRebuilds)
	}
	if fs.Rebuilds != fs.FullRebuilds+fs.DeltaApplies || fs.Rebuilds != fs.Epoch+1 {
		t.Fatalf("publish counters do not reconcile: %+v", fs)
	}
	fs.FullRebuilds, fs.DeltaApplies = cs.FullRebuilds, cs.DeltaApplies
	if fs != cs {
		t.Fatalf("stats after delta faults %+v, without %+v", fs, cs)
	}
}

// TestPublishFailureRollsBack: when the full compile fails too, no epoch
// is published — so the occupancy change each mutator made before
// publishing must be undone, or occupancy runs ahead of every snapshot.
func TestPublishFailureRollsBack(t *testing.T) {
	e, err := New(benchNet(t), nil)
	if err != nil {
		t.Fatal(err)
	}
	held, err := e.RouteAndAllocate(e.ReserveOwner(), 0, 9)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.FailLink(3); err != nil {
		t.Fatal(err)
	}
	res, err := e.Route(2, 11)
	if err != nil {
		t.Fatal(err)
	}
	before, snap := e.Stats(), e.Snapshot()

	e.publishFault = func(bool) error { return errInjected }
	if err := e.Allocate(50, res.Path); !errors.Is(err, errInjected) {
		t.Fatalf("allocate under a failing publish: %v", err)
	}
	if err := e.Release(1); !errors.Is(err, errInjected) {
		t.Fatalf("release under a failing publish: %v", err)
	}
	if _, err := e.FailLink(5); !errors.Is(err, errInjected) {
		t.Fatalf("fail under a failing publish: %v", err)
	}
	if err := e.RepairLink(3); !errors.Is(err, errInjected) {
		t.Fatalf("repair under a failing publish: %v", err)
	}
	e.publishFault = nil

	if after := e.Stats(); after != before {
		t.Fatalf("stats moved without an epoch: %+v → %+v", before, after)
	}
	if e.Snapshot() != snap {
		t.Fatal("a snapshot was published by a failed mutation")
	}
	if got := e.OwnerChannels(50); got != nil {
		t.Fatalf("owner 50 holds %v after its allocation failed", got)
	}
	for _, h := range res.Path.Hops {
		if _, free := e.Snapshot().Network().Link(h.Link).Has(h.Wavelength); !free {
			t.Fatalf("(link %d, λ%d) missing from the residual after a failed allocation", h.Link, h.Wavelength)
		}
	}
	if got := e.OwnerChannels(1); len(got) != len(held.Path.Hops) {
		t.Fatalf("owner 1 holds %v after its release failed", got)
	}
	for _, h := range held.Path.Hops {
		if !slices.Contains(e.OwnerChannels(1), Channel{Link: h.Link, Lambda: h.Wavelength}) {
			t.Fatalf("(link %d, λ%d) lost its holder after a failed release", h.Link, h.Wavelength)
		}
	}
	if e.LinkFailed(5) || !e.LinkFailed(3) {
		t.Fatalf("failed set moved: link 5 %v, link 3 %v", e.LinkFailed(5), e.LinkFailed(3))
	}

	// The engine is whole: the same mutations now go through.
	if err := e.Allocate(50, res.Path); err != nil {
		t.Fatalf("allocate after the fault cleared: %v", err)
	}
	if err := e.Release(1); err != nil {
		t.Fatalf("release after the fault cleared: %v", err)
	}
	if err := e.RepairLink(3); err != nil {
		t.Fatalf("repair after the fault cleared: %v", err)
	}
	if st := e.Stats(); st.Epoch != before.Epoch+3 || st.Rebuilds != st.Epoch+1 {
		t.Fatalf("counters after recovery: %+v", st)
	}
}
