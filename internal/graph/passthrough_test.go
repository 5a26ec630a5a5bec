package graph

import (
	"math"
	"math/rand"
	"testing"
)

// maskedGraph builds a random graph whose arc weights are small integers
// (zero included, so equal-key plateaus and zero-weight cycles occur) or
// floats, and a random pass-through mask. Nothing keeps masked nodes
// apart: chains and cycles of them exercise the recursion.
func maskedGraph(rng *rand.Rand, n, arcs int, integer bool, share float64) (*Digraph, []bool) {
	g := New(n)
	for i := 0; i < arcs; i++ {
		w := rng.Float64() * 10
		if integer {
			w = float64(rng.Intn(3))
		}
		if err := g.AddArc(rng.Intn(n), rng.Intn(n), w, int32(i)); err != nil {
			panic(err)
		}
	}
	pass := make([]bool, n)
	for v := range pass {
		pass[v] = rng.Float64() < share
	}
	return g, pass
}

// checkTreeSums walks every reached node's parent chain back to a seed
// and demands that the arc weights, summed in path order, give exactly
// the node's distance.
func checkTreeSums(t *testing.T, g *Digraph, tree *ShortestPathTree) {
	t.Helper()
	for v := range tree.Dist {
		if !tree.Reached(v) {
			continue
		}
		hops, err := tree.ArcsTo(v)
		if err != nil {
			t.Fatalf("node %d: %v", v, err)
		}
		got := 0.0
		for _, h := range hops {
			got += g.Out(h.From)[h.ArcIndex].Weight
		}
		if math.Float64bits(got) != math.Float64bits(tree.Dist[v]) {
			t.Fatalf("node %d: parent chain sums to %v, dist %v", v, got, tree.Dist[v])
		}
	}
}

// potentials is the potential column of the pass-through tests: plain
// Dijkstra, A* under the zero potential, and A* under the exact
// potential toward goals (which it computes on g).
var potentials = []struct {
	name string
	pot  func(t testing.TB, g *Digraph, goals []int) func(int) float64
}{
	{"plain", func(testing.TB, *Digraph, []int) func(int) float64 { return nil }},
	{"zero", func(testing.TB, *Digraph, []int) func(int) float64 { return zeroPotential }},
	{"exact", exactPotential},
}

// ceilingRow is one value of the pass-through tests' ceiling column.
type ceilingRow struct {
	name  string
	c     float64
	below bool // under d*: the search must reach no goal
}

// ceilings is the ceiling column, from an exhaustive run's d*: none, d*
// widened by the margin core prices its dive with, d* itself where sums
// are exact (integer weights), and the float just below d*, which pins
// the contract's other side.
func ceilings(dstar float64, integer bool) []ceilingRow {
	rows := []ceilingRow{{"none", Inf, false}}
	if IsInf(dstar) {
		return rows
	}
	rows = append(rows, ceilingRow{"margin", dstar * (1 + 0x1p-30), false})
	if integer {
		rows = append(rows, ceilingRow{"dstar", dstar, false})
	}
	if dstar > 0 {
		rows = append(rows, ceilingRow{"below", math.Nextafter(dstar, 0), true})
	}
	return rows
}

// TestPassThroughMatchesUnmasked: on random graphs under random masks —
// masked seeds, masked chains, zero-weight arcs — a full-tree search
// with the mask, on either queue that takes one, gives every node the
// distance, bit for bit, that the unmasked binary search gives it and a
// parent chain that sums to it. The binary queue pops exactly the
// reachable unmasked nodes; the bucket queue, sized here from arc weights
// that include zeros, scans each of them at least once. Under a
// potential (the binary engine whatever the kind) the nodes it marks
// +Inf are left unwritten, seeds aside, and the rest are as above; the
// exact potential runs on the integer-weight trials, where its sums are
// exact and pop order cannot round (DESIGN.md §14, Floats). Under a
// ceiling (the binary engine too) exactly the nodes whose final key
// exceeds it are left unwritten: the target, at d*, keeps its distance
// bits under every ceiling down to d* and is unreached below it.
func TestPassThroughMatchesUnmasked(t *testing.T) {
	for _, col := range potentials {
		t.Run(col.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(15))
			for trial := 0; trial < 200; trial++ {
				n := 2 + rng.Intn(40)
				integer := trial%2 == 0
				g, pass := maskedGraph(rng, n, rng.Intn(5*n), integer, rng.Float64())
				seeds := []int{rng.Intn(n), rng.Intn(n)}
				target := []int{rng.Intn(n)}
				if col.name == "exact" && !integer {
					continue
				}
				pot := col.pot(t, g, target)
				sc := NewScratch(n)
				want, err := DijkstraSeedsUntilScratch(g, seeds, nil, QueueBinary, nil, nil, nil, Inf)
				if err != nil {
					t.Fatal(err)
				}
				for _, ceil := range ceilings(want.Dist[target[0]], integer) {
					for _, kind := range []QueueKind{QueueBinary, QueueBucket} {
						got, err := DijkstraSeedsUntilScratch(g, seeds, nil, kind, sc, pass, pot, ceil.c)
						if err != nil {
							t.Fatal(err)
						}
						unmasked := 0
						for v := range want.Dist {
							seed := v == seeds[0] || v == seeds[1]
							f := want.Dist[v]
							if pot != nil {
								f += pot(v)
							}
							if IsInf(f) || f > ceil.c {
								if got.Reached(v) && !seed {
									t.Fatalf("trial %d %v ceiling %s: dist[%d] = %v, key %v over the ceiling %v", trial, kind, ceil.name, v, got.Dist[v], f, ceil.c)
								}
								continue
							}
							if math.Float64bits(got.Dist[v]) != math.Float64bits(want.Dist[v]) {
								t.Fatalf("trial %d %v ceiling %s: dist[%d] = %v masked, %v unmasked", trial, kind, ceil.name, v, got.Dist[v], want.Dist[v])
							}
							if want.Reached(v) && !pass[v] {
								unmasked++
							}
						}
						if ceil.below && got.Reached(target[0]) && target[0] != seeds[0] && target[0] != seeds[1] {
							t.Fatalf("trial %d %v: target reached at %v under a ceiling %v below d*", trial, kind, got.Dist[target[0]], ceil.c)
						}
						keyed := kind == QueueBinary || pot != nil || !IsInf(ceil.c)
						if got.Settled < unmasked || keyed && got.Settled != unmasked {
							t.Fatalf("trial %d %v ceiling %s: masked search scanned %d nodes, %d unmasked nodes are reachable", trial, kind, ceil.name, got.Settled, unmasked)
						}
						checkTreeSums(t, g, got)
					}
				}
			}
		})
	}
}

// TestPassThroughGoalStop: with goals, the masked search stops on the
// rule of DijkstraSeedsUntilScratch — the first goal's key plateau is
// drained, on f under a potential — so the best goal and its distance are
// those of the exhaustive unmasked plain run, its parent chains sum to
// their distances, and it settles no more than that run. A ceiling at or above
// d* changes neither the goal, nor its distance bits, nor Settled, and
// queues no more nodes; a ceiling below d* reaches no goal.
func TestPassThroughGoalStop(t *testing.T) {
	for _, col := range potentials {
		t.Run(col.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(16))
			for trial := 0; trial < 200; trial++ {
				n := 4 + rng.Intn(40)
				g, pass := maskedGraph(rng, n, rng.Intn(5*n), true, 0.5)
				seeds := []int{rng.Intn(n)}
				var goals []int
				for len(goals) < 3 {
					if v := rng.Intn(n); !pass[v] {
						goals = append(goals, v)
					} else {
						pass[v] = false
					}
				}
				full, err := DijkstraSeedsUntilScratch(g, seeds, nil, QueueBinary, nil, nil, nil, Inf)
				if err != nil {
					t.Fatal(err)
				}
				fullAt := argminGoal(full, goals)
				dstar := Inf
				if fullAt >= 0 {
					dstar = full.Dist[fullAt]
				}
				pot := col.pot(t, g, goals)
				var none *ShortestPathTree
				for _, ceil := range ceilings(dstar, true) {
					got, err := DijkstraSeedsUntilScratch(g, seeds, goals, QueueBinary, nil, pass, pot, ceil.c)
					if err != nil {
						t.Fatal(err)
					}
					checkTreeSums(t, g, got)
					at := argminGoal(got, goals)
					if ceil.below {
						if at >= 0 {
							t.Fatalf("trial %d: goal %d reached at %v under a ceiling %v below d* = %v", trial, at, got.Dist[at], ceil.c, dstar)
						}
						continue
					}
					if at != fullAt {
						t.Fatalf("trial %d ceiling %s: best goal %d, exhaustive %d", trial, ceil.name, at, fullAt)
					}
					if at >= 0 && math.Float64bits(got.Dist[at]) != math.Float64bits(full.Dist[at]) {
						t.Fatalf("trial %d ceiling %s: dist[%d] = %v, exhaustive %v", trial, ceil.name, at, got.Dist[at], full.Dist[at])
					}
					if got.Settled > full.Settled {
						t.Fatalf("trial %d ceiling %s: settled %d, exhaustive %d", trial, ceil.name, got.Settled, full.Settled)
					}
					if none == nil {
						none = got
						continue
					}
					if got.Settled != none.Settled || got.Queued > none.Queued {
						t.Fatalf("trial %d ceiling %s: settled/queued %d/%d, %d/%d with no ceiling", trial, ceil.name, got.Settled, got.Queued, none.Settled, none.Queued)
					}
				}
			}
		})
	}
}

// TestSparseResetListsReached drives one scratch through an interleaved
// run of the masked searches core's queries land on: plain and A* point
// queries on the binary engine (A* under the exact potential and a
// ceiling at d* widened by core's margin), which list every node they
// write and reset sparsely, and a goal-less binary tree, a bucket tree
// and a Fibonacci point query, which leave the scratch dirty. After every
// search the tree equals a fresh-scratch run node for node, the scratch
// keeps a touched list exactly after a point query on the binary engine,
// and that list names every node the search reached.
func TestSparseResetListsReached(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	g, pass := maskedGraph(rng, 120, 480, false, 0.5)
	n := g.NumNodes()
	sc := NewScratch(n)
	searches := []struct {
		name  string
		kind  QueueKind
		goals bool // a point query
		astar bool
	}{
		{"plain", QueueBinary, true, false},
		{"astar", QueueBinary, true, true},
		{"binary-tree", QueueBinary, false, false},
		{"bucket-tree", QueueBucket, false, false},
		{"fibonacci", QueueFibonacci, true, false},
	}
	ran := make([]int, len(searches))
	for q := 0; q < 200; q++ {
		i := rng.Intn(len(searches))
		sr := searches[i]
		seeds := []int{rng.Intn(n)}
		var goals []int
		for len(goals) < 2 {
			if v := rng.Intn(n); !pass[v] {
				goals = append(goals, v)
			}
		}
		var (
			goalArg []int
			pot     func(int) float64
			ceiling = Inf
			mask    = pass
		)
		if sr.goals {
			goalArg = goals
		}
		if sr.kind == QueueFibonacci {
			mask = nil
		}
		if sr.astar {
			full, err := DijkstraSeedsUntilScratch(g, seeds, nil, QueueBinary, nil, nil, nil, Inf)
			if err != nil {
				t.Fatal(err)
			}
			pot = exactPotential(t, g, goals)
			if at := argminGoal(full, goals); at >= 0 {
				ceiling = full.Dist[at] * (1 + 0x1p-30)
			}
		}
		search := func(s *Scratch) *ShortestPathTree {
			tree, err := DijkstraSeedsUntilScratch(g, seeds, goalArg, sr.kind, s, mask, pot, ceiling)
			if err != nil {
				t.Fatal(err)
			}
			return tree
		}
		want := search(nil)
		got := search(sc)
		for v := range want.Dist {
			if got.Dist[v] != want.Dist[v] || got.Parent[v] != want.Parent[v] || got.ViaArc[v] != want.ViaArc[v] {
				t.Fatalf("query %d %s: node %d is (%v,%d,%d) on the reused scratch, (%v,%d,%d) fresh",
					q, sr.name, v, got.Dist[v], got.Parent[v], got.ViaArc[v], want.Dist[v], want.Parent[v], want.ViaArc[v])
			}
		}
		if got.Settled != want.Settled || got.Relaxed != want.Relaxed {
			t.Fatalf("query %d %s: settled/relaxed %d/%d on the reused scratch, %d/%d fresh",
				q, sr.name, got.Settled, got.Relaxed, want.Settled, want.Relaxed)
		}
		ran[i]++
		if sc.sparse != (sr.kind == QueueBinary && sr.goals) {
			t.Fatalf("query %d %s: touched list kept = %v; only a point query on the binary engine keeps one", q, sr.name, sc.sparse)
		}
		if !sc.sparse {
			continue
		}
		listed := make(map[int32]bool, len(sc.touched))
		for _, v := range sc.touched {
			listed[v] = true
		}
		for v := range want.Dist {
			if want.Reached(v) && !listed[int32(v)] {
				t.Fatalf("query %d %s: node %d reached but not in the touched list", q, sr.name, v)
			}
		}
	}
	for i, c := range ran {
		if c < 15 {
			t.Fatalf("%s ran %d times of 200 queries", searches[i].name, c)
		}
	}
}

// TestPassThroughRejectsBadMasks: a mask of the wrong length and a masked
// goal are caller errors; the other queue kinds accept a mask and search
// unmasked.
func TestPassThroughRejectsBadMasks(t *testing.T) {
	g := buildRandom(t, 10, 30, 6)
	pass := make([]bool, 10)
	pass[9] = true
	if _, err := DijkstraSeedsUntilScratch(g, []int{0}, nil, QueueBinary, nil, pass[:5], nil, Inf); err == nil {
		t.Error("short mask accepted")
	}
	if _, err := DijkstraSeedsUntilScratch(g, []int{0}, []int{9}, QueueBinary, nil, pass, nil, Inf); err == nil {
		t.Error("masked goal accepted")
	}
	want, err := DijkstraSeedsUntilScratch(g, []int{0}, nil, QueueFibonacci, nil, nil, nil, Inf)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DijkstraSeedsUntilScratch(g, []int{0}, nil, QueueFibonacci, nil, pass, nil, Inf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Settled != want.Settled || got.Relaxed != want.Relaxed {
		t.Errorf("fibonacci with a mask settled/relaxed %d/%d, without %d/%d", got.Settled, got.Relaxed, want.Settled, want.Relaxed)
	}
}

// TestPassThroughAllocationFree: neither the mask nor a potential costs
// the pooled search anything — still zero allocations per query.
func TestPassThroughAllocationFree(t *testing.T) {
	g, pass := maskedGraph(rand.New(rand.NewSource(17)), 200, 1200, false, 0.5)
	sc := NewScratch(g.NumNodes())
	seeds := []int{0, 1}
	for _, col := range potentials {
		pot := col.pot(t, g, []int{199})
		allocs := testing.AllocsPerRun(50, func() {
			if _, err := DijkstraSeedsUntilScratch(g, seeds, nil, QueueBinary, sc, pass, pot, Inf); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("%s: masked scratch search allocates %v objects per run, want 0", col.name, allocs)
		}
	}
}
