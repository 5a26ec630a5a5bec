package engine

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"lightpath/internal/baseline"
	"lightpath/internal/core"
	"lightpath/internal/topo"
	"lightpath/internal/wdm"
	"lightpath/internal/workload"
)

// The differential churn test: drive the engine with a seeded random
// allocate/route/release sequence and, at every epoch, check its
// answers against independently-built references —
//
//   - a freshly compiled core.NewAux over a residual network the TEST
//     derives from its own occupancy model (never the engine's), queried
//     via RouteFrom;
//   - the internal/baseline CFZ wavelength-graph solver (uniform
//     conversion is transitively closed, so the two models agree
//     exactly — see the baseline package comment);
//
// plus a structural check that the engine's snapshot residual equals
// the model residual channel-for-channel. Any divergence means the
// epoch/snapshot machinery corrupted state under churn.

const costEps = 1e-9

func costsAgree(a, b float64) bool {
	if math.IsInf(a, 1) || math.IsInf(b, 1) {
		return math.IsInf(a, 1) && math.IsInf(b, 1)
	}
	diff := math.Abs(a - b)
	return diff <= costEps || diff <= costEps*math.Max(math.Abs(a), math.Abs(b))
}

// churnModel is the test's own view of what the engine state must be.
type churnModel struct {
	base   *wdm.Network
	held   map[Channel]int64
	owners map[int64]*wdm.Semilightpath
}

func newChurnModel(base *wdm.Network) *churnModel {
	return &churnModel{
		base:   base,
		held:   make(map[Channel]int64),
		owners: make(map[int64]*wdm.Semilightpath),
	}
}

func (m *churnModel) allocate(owner int64, p *wdm.Semilightpath) {
	for _, h := range p.Hops {
		m.held[Channel{Link: h.Link, Lambda: h.Wavelength}] = owner
	}
	m.owners[owner] = p
}

func (m *churnModel) release(owner int64) {
	for _, h := range m.owners[owner].Hops {
		delete(m.held, Channel{Link: h.Link, Lambda: h.Wavelength})
	}
	delete(m.owners, owner)
}

// residual rebuilds the free-channel network from scratch — the
// independent reconstruction the engine's snapshot is checked against.
func (m *churnModel) residual(t *testing.T) *wdm.Network {
	t.Helper()
	res := wdm.NewNetwork(m.base.NumNodes(), m.base.K())
	for _, l := range m.base.Links() {
		free := make([]wdm.Channel, 0, len(l.Channels))
		for _, ch := range l.Channels {
			if _, taken := m.held[Channel{Link: l.ID, Lambda: ch.Lambda}]; !taken {
				free = append(free, ch)
			}
		}
		if _, err := res.AddLink(l.From, l.To, free); err != nil {
			t.Fatalf("model residual: %v", err)
		}
	}
	res.SetConverter(m.base.Converter())
	return res
}

// sameChannels asserts two networks offer identical channel sets.
func sameChannels(t *testing.T, got, want *wdm.Network, epoch uint64) {
	t.Helper()
	if got.NumLinks() != want.NumLinks() {
		t.Fatalf("epoch %d: snapshot has %d links, model %d", epoch, got.NumLinks(), want.NumLinks())
	}
	for _, l := range want.Links() {
		g := got.Link(l.ID)
		if len(g.Channels) != len(l.Channels) {
			t.Fatalf("epoch %d: link %d offers %d channels, model %d",
				epoch, l.ID, len(g.Channels), len(l.Channels))
		}
		for i, ch := range l.Channels {
			if g.Channels[i] != ch {
				t.Fatalf("epoch %d: link %d channel %d = %+v, model %+v",
					epoch, l.ID, i, g.Channels[i], ch)
			}
		}
	}
}

func TestDifferentialChurn(t *testing.T) {
	cases := []struct {
		name string
		tp   *topo.Topology
		seed int64
	}{
		{"ring8", topo.Ring(8), 11},
		{"grid3x3", topo.Grid(3, 3), 22},
		{"nsfnet", topo.NSFNET(), 33},
	}
	const ops = 500
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			nw, err := workload.Build(tc.tp, workload.Spec{
				K:         4,
				AvailProb: 0.7,
				Conv:      workload.ConvUniform, // transitively closed: baseline agrees exactly
				ConvCost:  0.3,
			}, rand.New(rand.NewSource(tc.seed)))
			if err != nil {
				t.Fatal(err)
			}
			e, err := New(nw, &Options{CacheSize: 16})
			if err != nil {
				t.Fatal(err)
			}
			model := newChurnModel(nw)
			rng := rand.New(rand.NewSource(tc.seed * 7919))
			n := nw.NumNodes()
			var nextOwner int64
			var live []int64

			for op := 0; op < ops; op++ {
				s, d := rng.Intn(n), rng.Intn(n)
				for d == s {
					d = rng.Intn(n)
				}
				switch r := rng.Float64(); {
				case r < 0.40: // allocate
					nextOwner++
					res, err := e.RouteAndAllocate(nextOwner, s, d)
					if errors.Is(err, core.ErrNoRoute) {
						// Blocked: the reference must also find no route.
						ref, rerr := core.NewAux(model.residual(t))
						if rerr != nil {
							t.Fatal(rerr)
						}
						st, rerr := ref.RouteFrom(s, nil)
						if rerr != nil {
							t.Fatal(rerr)
						}
						if st.Reachable(d) {
							t.Fatalf("op %d: engine blocked %d->%d but reference routes it at cost %v",
								op, s, d, st.Dist(d))
						}
						nextOwner--
						continue
					}
					if err != nil {
						t.Fatalf("op %d: allocate %d->%d: %v", op, s, d, err)
					}
					model.allocate(nextOwner, res.Path)
					live = append(live, nextOwner)
				case r < 0.70 && len(live) > 0: // release
					i := rng.Intn(len(live))
					owner := live[i]
					live[i] = live[len(live)-1]
					live = live[:len(live)-1]
					if err := e.Release(owner); err != nil {
						t.Fatalf("op %d: release %d: %v", op, owner, err)
					}
					model.release(owner)
				default: // route only (no state change)
					checkRouteAgainstReferences(t, e, model, s, d, op)
				}

				// Structural invariant at every epoch: the published
				// snapshot is exactly the model residual.
				snap := e.Snapshot()
				sameChannels(t, snap.Network(), model.residual(t), snap.Epoch())

				// Telemetry invariants must hold at every epoch, not just
				// at rest: lifetime counters reconcile with live state.
				st := e.Stats()
				if st.Allocations-st.Releases != uint64(st.ActiveOwners) {
					t.Fatalf("op %d: allocations %d - releases %d != active owners %d",
						op, st.Allocations, st.Releases, st.ActiveOwners)
				}
				if st.ActiveOwners != len(live) {
					t.Fatalf("op %d: engine sees %d owners, test holds %d leases",
						op, st.ActiveOwners, len(live))
				}
				// Every ask here is of a source in range, so each miss stored
				// exactly one row; the batch split sums to the requests.
				if cs := e.CacheStats(); cs.Hits+cs.Misses != cs.Lookups ||
					counter(e, "engine_cost_row_builds_total") != cs.Misses {
					t.Fatalf("op %d: cost rows %+v, %d built: want hits + misses = lookups and one build per miss",
						op, cs, counter(e, "engine_cost_row_builds_total"))
				}
				batchSplit(t, tc.name, e)
			}
			if rs := e.CacheStats(); rs.Hits == 0 || counter(e, "engine_batch_row_requests_total") == 0 {
				t.Fatalf("the churn never read a cost row: %+v", rs)
			}

			// Full single-source sweep at the final epoch, through the
			// row cache, against a fresh reference build.
			ref, err := core.NewAux(model.residual(t))
			if err != nil {
				t.Fatal(err)
			}
			for src := 0; src < n; src++ {
				got, err := e.CostsFrom(src)
				if err != nil {
					t.Fatal(err)
				}
				want, err := ref.RouteFrom(src, nil)
				if err != nil {
					t.Fatal(err)
				}
				for dst := 0; dst < n; dst++ {
					if !costsAgree(got.To(dst), want.Dist(dst)) {
						t.Fatalf("final sweep: dist(%d,%d) = %v, reference %v",
							src, dst, got.To(dst), want.Dist(dst))
					}
				}
			}

			// Drain: releasing everything must restore the full network.
			for _, owner := range live {
				if err := e.Release(owner); err != nil {
					t.Fatal(err)
				}
				model.release(owner)
			}
			sameChannels(t, e.Snapshot().Network(), nw, e.Epoch())
			if e.HeldChannels() != 0 {
				t.Fatalf("%d channels still held after drain", e.HeldChannels())
			}
			// After the drain every allocation has a matching release, one
			// snapshot was compiled per epoch plus the epoch-0 build, and
			// every held-channel gauge reads zero.
			st := e.Stats()
			if st.Allocations != st.Releases || st.ActiveOwners != 0 {
				t.Fatalf("drained engine unbalanced: %+v", st)
			}
			if st.Rebuilds != st.Epoch+1 {
				t.Fatalf("rebuilds %d != epoch %d + 1", st.Rebuilds, st.Epoch)
			}
			// Publishes decompose into the two production paths, and under
			// alloc/release churn (every mutation delta-expressible) the
			// incremental path must actually have been taken.
			if st.Rebuilds != st.FullRebuilds+st.DeltaApplies {
				t.Fatalf("rebuilds %d != full %d + delta %d", st.Rebuilds, st.FullRebuilds, st.DeltaApplies)
			}
			if st.Epoch > 0 && st.DeltaApplies == 0 {
				t.Fatalf("no delta applies after %d epochs of churn: %+v", st.Epoch, st)
			}
			for lam := 0; lam < nw.K(); lam++ {
				if held := e.heldOnWavelength(lam); held != 0 {
					t.Fatalf("λ%d still shows %d held channels after drain", lam, held)
				}
			}
			t.Logf("%s: %d ops, final epoch %d, cache %+v", tc.name, ops, e.Epoch(), e.CacheStats())
		})
	}
}

// checkRouteAgainstReferences validates one engine answer against the
// fresh-Aux reference and the CFZ baseline on the model residual.
func checkRouteAgainstReferences(t *testing.T, e *Engine, model *churnModel, s, d, op int) {
	t.Helper()
	res := model.residual(t)
	ref, err := core.NewAux(res)
	if err != nil {
		t.Fatal(err)
	}
	st, err := ref.RouteFrom(s, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantCost := st.Dist(d)

	// The cost readers, down each of their ways: CostsFrom built, then
	// twice off the row it stored; the batch off that row and by search.
	for ask := 0; ask < 3; ask++ {
		costs, err := e.CostsFrom(s)
		if err != nil {
			t.Fatalf("op %d: costs from %d: %v", op, s, err)
		}
		for dst := 0; dst < res.NumNodes(); dst++ {
			if !costsAgree(costs.To(dst), st.Dist(dst)) {
				t.Fatalf("op %d ask %d: engine cost %d->%d = %v, fresh-Aux reference %v",
					op, ask, s, dst, costs.To(dst), st.Dist(dst))
			}
		}
	}
	for _, br := range e.Snapshot().BatchCosts([]Request{{s, d}, {d, s}, {s, s}, {s, d}}, 2) {
		if br.From != s {
			continue // the reverse pair is there to be searched for, not checked
		}
		if blocked := errors.Is(br.Err, core.ErrNoRoute); blocked != !st.Reachable(br.To) || (br.Err != nil && !blocked) {
			t.Fatalf("op %d: batch %d->%d: %v, reference cost %v", op, s, br.To, br.Err, st.Dist(br.To))
		}
		if br.Err == nil && !costsAgree(br.Cost, st.Dist(br.To)) {
			t.Fatalf("op %d: batch cost %d->%d = %v, fresh-Aux reference %v", op, s, br.To, br.Cost, st.Dist(br.To))
		}
	}

	got, err := e.Route(s, d)
	switch {
	case errors.Is(err, core.ErrNoRoute):
		if st.Reachable(d) {
			t.Fatalf("op %d: engine says no route %d->%d, reference cost %v", op, s, d, wantCost)
		}
	case err != nil:
		t.Fatalf("op %d: route %d->%d: %v", op, s, d, err)
	default:
		if !costsAgree(got.Cost, wantCost) {
			t.Fatalf("op %d: engine cost %d->%d = %v, fresh-Aux reference %v", op, s, d, got.Cost, wantCost)
		}
		// The returned path must be walkable on the engine's own
		// snapshot and price out to the reported cost.
		snapNet := e.Snapshot().Network()
		if err := got.Path.Validate(snapNet, s, d); err != nil {
			t.Fatalf("op %d: engine path invalid: %v", op, err)
		}
		if !costsAgree(got.Path.Cost(snapNet), got.Cost) {
			t.Fatalf("op %d: path prices to %v, result says %v", op, got.Path.Cost(snapNet), got.Cost)
		}
	}

	// CFZ baseline cross-check on the same residual.
	bl, err := baseline.FindSemilightpath(res, s, d)
	switch {
	case errors.Is(err, baseline.ErrNoRoute):
		if st.Reachable(d) {
			t.Fatalf("op %d: baseline says no route %d->%d, reference cost %v", op, s, d, wantCost)
		}
	case err != nil:
		t.Fatalf("op %d: baseline %d->%d: %v", op, s, d, err)
	default:
		if !costsAgree(bl.Cost, wantCost) {
			t.Fatalf("op %d: baseline cost %d->%d = %v, reference %v", op, s, d, bl.Cost, wantCost)
		}
	}
}
