package engine

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"lightpath/internal/core"
	"lightpath/internal/oracle"
	"lightpath/internal/topo"
	"lightpath/internal/workload"
)

// FuzzGoalDirected churns an astar engine with an arbitrary mutation
// sequence — through delta chains of depth 3 and the full rebuilds that
// end them — and, after every mutation, cross-checks three answers on the
// SAME published snapshot:
//
//   - the engine's configured search (A* under the physical bound, read
//     from that snapshot's residual or from the bound row kept for its
//     epoch), asked three times — the third answered by the route memo —
//     must return the same answer each time, and agree with a plain
//     search on blocked/served and on cost: a bound or a memo entry that
//     outlived its epoch, or a bound that overestimates, breaks cost
//     equality;
//   - the oracle, which searches the snapshot's residual network without
//     the auxiliary graph, must agree with both (blocked means
//     oracle.ErrNoRoute).
func FuzzGoalDirected(f *testing.F) {
	f.Add([]byte{0, 1, 9, 0, 3, 2, 1, 0, 3, 3, 2, 0, 0, 2, 11, 0, 0, 5})
	f.Add([]byte{2, 0, 2, 0, 1, 5, 3, 0, 2, 1, 0, 0, 0, 4, 7})
	f.Add([]byte{0, 4, 1, 0, 2, 6, 1, 1, 1, 0, 1, 8, 2, 3, 1})
	// The same sequences, and an allocate-heavy one, on the tie-heavy
	// network (first byte ≥ 128, see below).
	f.Add([]byte{128, 1, 9, 0, 3, 2, 1, 0, 3, 3, 2, 0, 0, 2, 11, 0, 0, 5})
	f.Add([]byte{130, 0, 2, 0, 1, 5, 3, 0, 2, 1, 0, 0, 0, 4, 7})
	f.Add([]byte{128, 4, 1, 0, 2, 6, 1, 1, 1, 0, 1, 8, 2, 3, 1})
	f.Add([]byte{128, 0, 8, 0, 8, 0, 0, 2, 6, 0, 6, 2, 0, 1, 7, 0, 7, 1, 1, 0, 0, 0, 3, 5})

	floatBase, err := workload.Build(topo.Grid(3, 3), workload.Spec{
		K:         4,
		AvailProb: 0.8,
		Conv:      workload.ConvUniform,
		ConvCost:  0.3,
	}, rand.New(rand.NewSource(7)))
	if err != nil {
		f.Fatal(err)
	}
	// Every channel and every conversion costs exactly 1, so most pairs
	// have many equal-cost optima and most X_t shores tied minima — the
	// inputs the first-goal stopping rule's plateau drain exists for.
	tieBase, err := workload.Build(topo.Grid(3, 3), workload.Spec{
		K:         4,
		AvailProb: 0.8,
		MinWeight: 1,
		MaxWeight: 1,
		Conv:      workload.ConvUniform,
		ConvCost:  1,
	}, rand.New(rand.NewSource(7)))
	if err != nil {
		f.Fatal(err)
	}

	f.Fuzz(func(t *testing.T, ops []byte) {
		base := floatBase
		if len(ops) > 0 && ops[0] >= 128 {
			base = tieBase
		}
		e, err := New(base, &Options{MaxDeltaDepth: 3, Directed: core.DirectedAStar})
		if err != nil {
			t.Fatal(err)
		}
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
				if _, err := e.RouteAndAllocate(nextOwner, s, d); err != nil {
					nextOwner--
					if errors.Is(err, core.ErrNoRoute) || errors.Is(err, ErrConflict) {
						continue
					}
					t.Fatalf("allocate %d->%d: %v", s, d, err)
				}
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
			case 2: // fail link
				if _, err := e.FailLink((a*256 + b) % m); err != nil {
					t.Fatal(err)
				}
			case 3: // repair link
				if err := e.RepairLink((a*256 + b) % m); err != nil {
					t.Fatal(err)
				}
			}

			// Differential: configured goal-directed search vs plain vs
			// the oracle, all on the same pinned snapshot.
			snap := e.Snapshot()
			s, d := (a+int(op))%n, b%n
			if s == d {
				continue
			}
			// Three asks of one pair at one epoch walk its destination's bound
			// row through absent, built and resident, and its route through a
			// search, a search the memo stores and the stored Result; the
			// answer — cost and path — may depend on none of it.
			goal, errG := snap.Route(s, d)
			for ask := 0; ask < 2; ask++ {
				again, err := snap.Route(s, d)
				if (err == nil) != (errG == nil) || err == nil &&
					(math.Float64bits(again.Cost) != math.Float64bits(goal.Cost) || !reflect.DeepEqual(again.Path, goal.Path)) {
					t.Fatalf("epoch %d %d->%d: ask %d returned %v (%v), the first %v (%v)",
						snap.Epoch(), s, d, ask+2, again, err, goal, errG)
				}
			}
			plain, errP := snap.Aux().Route(s, d, nil)
			want, _, errO := oracle.Solve(snap.Network(), s, d)
			if (errG == nil) != (errP == nil) || (errO == nil) != (errP == nil) {
				t.Fatalf("epoch %d %d->%d: outcomes goal=%v plain=%v oracle=%v",
					snap.Epoch(), s, d, errG, errP, errO)
			}
			if errP != nil {
				if !errors.Is(errG, core.ErrNoRoute) || !errors.Is(errO, oracle.ErrNoRoute) {
					t.Fatalf("epoch %d %d->%d: blocked with %v / oracle %v, want ErrNoRoute",
						snap.Epoch(), s, d, errG, errO)
				}
				continue
			}
			if !costsAgree(goal.Cost, plain.Cost) || !costsAgree(want, plain.Cost) {
				t.Fatalf("epoch %d %d->%d: costs goal=%v plain=%v oracle=%v",
					snap.Epoch(), s, d, goal.Cost, plain.Cost, want)
			}
			if err := goal.Path.Validate(snap.Network(), s, d); err != nil {
				t.Fatalf("epoch %d %d->%d: goal-directed path invalid: %v", snap.Epoch(), s, d, err)
			}
		}
	})
}
