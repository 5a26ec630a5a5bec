package engine

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"lightpath/internal/core"
	"lightpath/internal/graph"
	"lightpath/internal/topo"
	"lightpath/internal/wdm"
	"lightpath/internal/workload"
)

// FuzzDeltaChurn drives the engine with an arbitrary mutation sequence
// (allocate / release / fail / repair) decoded from the fuzz input and
// checks, after every mutation, that the delta-built snapshot is
// indistinguishable from a from-scratch build:
//
//   - the published residual equals the model residual channel-for-channel;
//   - a point route on the snapshot costs exactly what a freshly compiled
//     core.NewAux over the model residual computes;
//   - the snapshot's SourceTree (bucket queue, Y shore passed through)
//     gives every destination that compile's cost and a valid path of that
//     cost, and the cost the binary heap computes on the same snapshot bit
//     for bit;
//   - the publish counters reconcile (Rebuilds == Epoch+1 and decompose
//     into FullRebuilds + DeltaApplies).
//
// MaxDeltaDepth is deliberately tiny so a single input exercises both the
// ApplyDelta fast path and the full compile, and the link fail/repair ops
// stress the empty-channel-set delta shape. A second engine under default
// options — one unbroken delta chain, what the server runs — is fed the
// same operations and held equal to the first at every epoch: same epoch,
// same residual, same route down to the hops.
func FuzzDeltaChurn(f *testing.F) {
	f.Add([]byte{0, 1, 9, 0, 3, 2, 0, 2, 11, 1, 0, 3, 2, 0, 0, 5})
	f.Add([]byte{2, 0, 2, 1, 3, 0, 0, 0, 7, 2, 3, 1, 1})
	f.Add([]byte{0, 4, 1, 0, 1, 8, 0, 2, 6, 1, 1, 1, 2})

	base, err := workload.Build(topo.Grid(3, 3), workload.Spec{
		K:         4,
		AvailProb: 0.8,
		Conv:      workload.ConvUniform,
		ConvCost:  0.3,
	}, rand.New(rand.NewSource(42)))
	if err != nil {
		f.Fatal(err)
	}

	f.Fuzz(func(t *testing.T, ops []byte) {
		e, err := New(base, &Options{CacheSize: 8, MaxDeltaDepth: 3})
		if err != nil {
			t.Fatal(err)
		}
		chained, err := New(base, &Options{CacheSize: 8})
		if err != nil {
			t.Fatal(err)
		}
		model := newChurnModel(base)
		n := base.NumNodes()
		m := base.NumLinks()
		var nextOwner int64
		var live []int64

		for i := 0; i+2 < len(ops) && i < 120; i += 3 {
			op, a, b := ops[i]%4, int(ops[i+1]), int(ops[i+2])
			switch op {
			case 0: // allocate a→b
				s, d := a%n, b%n
				if s == d {
					continue
				}
				nextOwner++
				res, err := e.RouteAndAllocate(nextOwner, s, d)
				res2, err2 := chained.RouteAndAllocate(nextOwner, s, d)
				if (err == nil) != (err2 == nil) || (err != nil && err.Error() != err2.Error()) {
					t.Fatalf("allocate %d->%d: depth-capped engine %v, chained engine %v", s, d, err, err2)
				}
				if errors.Is(err, core.ErrNoRoute) || errors.Is(err, ErrConflict) {
					nextOwner--
					continue
				}
				if err != nil {
					t.Fatalf("allocate %d->%d: %v", s, d, err)
				}
				if res.Cost != res2.Cost || fmt.Sprint(res.Path.Hops) != fmt.Sprint(res2.Path.Hops) {
					t.Fatalf("allocate %d->%d: depth-capped engine took %v at %v, chained engine %v at %v",
						s, d, res.Path.Hops, res.Cost, res2.Path.Hops, res2.Cost)
				}
				model.allocate(nextOwner, res.Path)
				live = append(live, nextOwner)
			case 1: // release
				if len(live) == 0 {
					continue
				}
				idx := a % len(live)
				owner := live[idx]
				live[idx] = live[len(live)-1]
				live = live[:len(live)-1]
				if err := e.Release(owner); err != nil {
					t.Fatalf("release %d: %v", owner, err)
				}
				if err := chained.Release(owner); err != nil {
					t.Fatalf("chained release %d: %v", owner, err)
				}
				model.release(owner)
			case 2: // fail link
				link := (a*256 + b) % m
				if _, err := e.FailLink(link); err != nil {
					t.Fatalf("fail %d: %v", link, err)
				}
				if _, err := chained.FailLink(link); err != nil {
					t.Fatalf("chained fail %d: %v", link, err)
				}
			case 3: // repair link
				link := (a*256 + b) % m
				if err := e.RepairLink(link); err != nil {
					t.Fatalf("repair %d: %v", link, err)
				}
				if err := chained.RepairLink(link); err != nil {
					t.Fatalf("chained repair %d: %v", link, err)
				}
			}

			// Oracle 1: published residual == independently rebuilt model
			// residual (fail/repair state folded in).
			snap := e.Snapshot()
			want := fuzzResidual(t, model, e)
			sameChannels(t, snap.Network(), want, snap.Epoch())
			csnap := chained.Snapshot()
			if csnap.Epoch() != snap.Epoch() {
				t.Fatalf("chained engine at epoch %d, depth-capped at %d", csnap.Epoch(), snap.Epoch())
			}
			sameChannels(t, csnap.Network(), want, csnap.Epoch())
			if cs := chained.Stats(); cs.FullRebuilds != 1 || cs.DeltaApplies != cs.Epoch {
				t.Fatalf("chained engine left its chain: %+v", cs)
			}

			// Oracle 2: route cost on the delta-built snapshot equals a
			// fresh full compile of the model residual.
			s, d := (a+int(op))%n, b%n
			if s != d {
				ref, err := core.NewAux(want)
				if err != nil {
					t.Fatal(err)
				}
				st, err := ref.RouteFrom(s, nil)
				if err != nil {
					t.Fatal(err)
				}
				got, err := snap.Route(s, d)
				switch {
				case errors.Is(err, core.ErrNoRoute):
					if st.Reachable(d) {
						t.Fatalf("snapshot blocks %d->%d, fresh compile costs %v", s, d, st.Dist(d))
					}
				case err != nil:
					t.Fatalf("route %d->%d: %v", s, d, err)
				default:
					if !costsAgree(got.Cost, st.Dist(d)) {
						t.Fatalf("snapshot cost %d->%d = %v, fresh compile %v", s, d, got.Cost, st.Dist(d))
					}
				}
				cgot, cerr := csnap.Route(s, d)
				if (err == nil) != (cerr == nil) ||
					(err == nil && (cgot.Cost != got.Cost || fmt.Sprint(cgot.Path.Hops) != fmt.Sprint(got.Path.Hops))) {
					t.Fatalf("route %d->%d: depth-capped %+v (%v), chained %+v (%v)", s, d, got, err, cgot, cerr)
				}

				// Oracle 3: the snapshot's single-source tree — the bucket
				// queue with the Y shore passed through, on the delta-built
				// graph — against the fresh compile's unmasked Fibonacci
				// tree, every destination, paths included, and against the
				// binary heap on the same graph to the bit.
				tree, err := snap.RouteFrom(s)
				if err != nil {
					t.Fatalf("routefrom %d: %v", s, err)
				}
				heap, err := snap.Aux().RouteFrom(s, &core.Options{Queue: graph.QueueBinary})
				if err != nil {
					t.Fatalf("binary routefrom %d: %v", s, err)
				}
				for dst := 0; dst < n; dst++ {
					if math.Float64bits(tree.Dist(dst)) != math.Float64bits(heap.Dist(dst)) {
						t.Fatalf("tree dist %d->%d = %v on buckets, %v on the heap", s, dst, tree.Dist(dst), heap.Dist(dst))
					}
					if !costsAgree(tree.Dist(dst), st.Dist(dst)) {
						t.Fatalf("tree dist %d->%d = %v, fresh compile %v", s, dst, tree.Dist(dst), st.Dist(dst))
					}
					if dst == s || !tree.Reachable(dst) {
						continue
					}
					path, err := tree.PathTo(dst)
					if err != nil {
						t.Fatalf("tree path %d->%d: %v", s, dst, err)
					}
					if err := path.Validate(want, s, dst); err != nil {
						t.Fatalf("tree path %d->%d invalid: %v", s, dst, err)
					}
					if !costsAgree(path.Cost(want), tree.Dist(dst)) {
						t.Fatalf("tree path %d->%d costs %v, dist %v", s, dst, path.Cost(want), tree.Dist(dst))
					}
				}
			}

			// Counter invariants.
			stats := e.Stats()
			if stats.Rebuilds != stats.Epoch+1 {
				t.Fatalf("rebuilds %d != epoch %d + 1", stats.Rebuilds, stats.Epoch)
			}
			if stats.Rebuilds != stats.FullRebuilds+stats.DeltaApplies {
				t.Fatalf("rebuilds %d != full %d + delta %d",
					stats.Rebuilds, stats.FullRebuilds, stats.DeltaApplies)
			}
		}
	})
}

// fuzzResidual is churnModel.residual with the engine's failed-link set
// applied: failed links offer no channels regardless of occupancy.
func fuzzResidual(t *testing.T, m *churnModel, e *Engine) *wdm.Network {
	t.Helper()
	res := wdm.NewNetwork(m.base.NumNodes(), m.base.K())
	for _, l := range m.base.Links() {
		var free []wdm.Channel
		if !e.LinkFailed(l.ID) {
			free = make([]wdm.Channel, 0, len(l.Channels))
			for _, ch := range l.Channels {
				if _, taken := m.held[Channel{Link: l.ID, Lambda: ch.Lambda}]; !taken {
					free = append(free, ch)
				}
			}
		}
		if _, err := res.AddLink(l.From, l.To, free); err != nil {
			t.Fatalf("model residual: %v", err)
		}
	}
	res.SetConverter(m.base.Converter())
	return res
}
