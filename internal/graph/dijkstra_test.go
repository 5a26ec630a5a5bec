package graph

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

var allKinds = []QueueKind{QueueFibonacci, QueueBinary, QueueLinear, QueueBucket}

func TestQueueKindString(t *testing.T) {
	cases := map[QueueKind]string{
		QueueFibonacci: "fibonacci",
		QueueBinary:    "binary",
		QueueLinear:    "linear",
		QueueKind(0):   "QueueKind(0)",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(k), got, want)
		}
	}
}

func lineGraph(t *testing.T, n int) *Digraph {
	t.Helper()
	g := New(n)
	for i := 0; i+1 < n; i++ {
		mustArc(t, g, i, i+1, float64(i+1))
	}
	return g
}

func TestDijkstraLine(t *testing.T) {
	for _, kind := range allKinds {
		t.Run(kind.String(), func(t *testing.T) {
			g := lineGraph(t, 5)
			tree, err := Dijkstra(g, 0, -1, kind)
			if err != nil {
				t.Fatal(err)
			}
			want := []float64{0, 1, 3, 6, 10}
			for v, d := range want {
				if tree.Dist[v] != d {
					t.Fatalf("Dist[%d] = %v, want %v", v, tree.Dist[v], d)
				}
			}
			path, err := tree.PathTo(4)
			if err != nil {
				t.Fatalf("PathTo: %v", err)
			}
			if len(path) != 5 {
				t.Fatalf("path = %v", path)
			}
			for i, v := range path {
				if v != i {
					t.Fatalf("path = %v, want 0..4", path)
				}
			}
		})
	}
}

func TestDijkstraPicksCheaperOfParallelArcs(t *testing.T) {
	for _, kind := range allKinds {
		t.Run(kind.String(), func(t *testing.T) {
			g := New(2)
			mustTaggedArc(t, g, 0, 1, 9, 1)
			mustTaggedArc(t, g, 0, 1, 4, 2)
			mustTaggedArc(t, g, 0, 1, 6, 3)
			tree, err := Dijkstra(g, 0, -1, kind)
			if err != nil {
				t.Fatal(err)
			}
			if tree.Dist[1] != 4 {
				t.Fatalf("Dist[1] = %v, want 4", tree.Dist[1])
			}
			hops, err := tree.ArcsTo(1)
			if err != nil {
				t.Fatal(err)
			}
			if len(hops) != 1 {
				t.Fatalf("hops = %+v", hops)
			}
			arc := g.Out(hops[0].From)[hops[0].ArcIndex]
			if arc.Tag != 2 {
				t.Fatalf("chose arc tag %d, want 2 (the cheap one)", arc.Tag)
			}
		})
	}
}

func mustTaggedArc(t *testing.T, g *Digraph, u, v int, w float64, tag int32) {
	t.Helper()
	if err := g.AddArc(u, v, w, tag); err != nil {
		t.Fatal(err)
	}
}

func TestDijkstraUnreachable(t *testing.T) {
	for _, kind := range allKinds {
		t.Run(kind.String(), func(t *testing.T) {
			g := New(3)
			mustArc(t, g, 0, 1, 1)
			tree, err := Dijkstra(g, 0, -1, kind)
			if err != nil {
				t.Fatal(err)
			}
			if tree.Reached(2) {
				t.Fatal("node 2 should be unreachable")
			}
			if _, err := tree.PathTo(2); !errors.Is(err, ErrNoPath) {
				t.Fatalf("PathTo unreachable: %v", err)
			}
		})
	}
}

func TestDijkstraEarlyStop(t *testing.T) {
	g := lineGraph(t, 100)
	tree, err := Dijkstra(g, 0, 3, QueueBinary)
	if err != nil {
		t.Fatal(err)
	}
	if tree.Dist[3] != 6 {
		t.Fatalf("Dist[3] = %v, want 6", tree.Dist[3])
	}
	if tree.Settled != 4 {
		t.Fatalf("early stop should settle nodes 0..3 only, settled %d", tree.Settled)
	}
}

func TestDijkstraArgErrors(t *testing.T) {
	g := New(2)
	if _, err := Dijkstra(g, -1, -1, QueueBinary); !errors.Is(err, ErrNodeRange) {
		t.Fatalf("bad source: %v", err)
	}
	if _, err := Dijkstra(g, 0, 5, QueueBinary); !errors.Is(err, ErrNodeRange) {
		t.Fatalf("bad goal: %v", err)
	}
	if _, err := Dijkstra(g, 0, -1, QueueKind(99)); err == nil {
		t.Fatal("unknown queue kind should error")
	}
}

func TestDijkstraZeroWeightCycle(t *testing.T) {
	// Zero-weight cycles must not hang or corrupt distances.
	for _, kind := range allKinds {
		t.Run(kind.String(), func(t *testing.T) {
			g := New(3)
			mustArc(t, g, 0, 1, 0)
			mustArc(t, g, 1, 0, 0)
			mustArc(t, g, 1, 2, 5)
			tree, err := Dijkstra(g, 0, -1, kind)
			if err != nil {
				t.Fatal(err)
			}
			if tree.Dist[2] != 5 {
				t.Fatalf("Dist[2] = %v, want 5", tree.Dist[2])
			}
		})
	}
}

// TestEnginesAgree is the central cross-validation property: on random
// digraphs every queue kind gives every node the binary heap's distance,
// bit for bit, and settles as many nodes — with no goal, and with a goal
// set, where the search stops at the same plateau and leaves the same
// tentative distances. The full trees match Bellman-Ford, and every
// reconstructed path's arc weights sum to the reported distance.
func TestEnginesAgree(t *testing.T) {
	type instance struct {
		g          *Digraph
		src        int
		goals      []int
		bellman    *ShortestPathTree
		full, goal *ShortestPathTree // QueueBinary's trees
	}
	rng, grng := rand.New(rand.NewSource(2024)), rand.New(rand.NewSource(99))
	cases := make([]instance, 40)
	for trial := range cases {
		n := 2 + rng.Intn(40)
		c := &cases[trial]
		c.g = randomDigraph(rng, n, 0.15)
		c.src = rng.Intn(n)
		c.goals = []int{grng.Intn(n), grng.Intn(n)}
		var err error
		if c.bellman, _, err = BellmanFord(c.g, c.src); err != nil {
			t.Fatalf("BellmanFord: %v", err)
		}
		if c.full, err = Dijkstra(c.g, c.src, -1, QueueBinary); err != nil {
			t.Fatal(err)
		}
		if c.goal, err = DijkstraSeedsUntil(c.g, []int{c.src}, c.goals, QueueBinary); err != nil {
			t.Fatal(err)
		}
	}
	for _, kind := range allKinds {
		t.Run(kind.String(), func(t *testing.T) {
			for trial, c := range cases {
				tree, err := Dijkstra(c.g, c.src, -1, kind)
				if err != nil {
					t.Fatal(err)
				}
				goal, err := DijkstraSeedsUntil(c.g, []int{c.src}, c.goals, kind)
				if err != nil {
					t.Fatal(err)
				}
				for _, p := range []struct {
					what      string
					got, want *ShortestPathTree
				}{{"full", tree, c.full}, {"goals", goal, c.goal}} {
					if p.got.Settled != p.want.Settled {
						t.Fatalf("trial %d %s: settled %d, binary %d", trial, p.what, p.got.Settled, p.want.Settled)
					}
					for v := range p.want.Dist {
						if math.Float64bits(p.got.Dist[v]) != math.Float64bits(p.want.Dist[v]) {
							t.Fatalf("trial %d %s: Dist[%d] = %v, binary %v", trial, p.what, v, p.got.Dist[v], p.want.Dist[v])
						}
					}
				}
				for v := range tree.Dist {
					if !almostEq(tree.Dist[v], c.bellman.Dist[v]) {
						t.Fatalf("trial %d: Dist[%d] = %v, reference %v", trial, v, tree.Dist[v], c.bellman.Dist[v])
					}
					if !tree.Reached(v) {
						continue
					}
					hops, err := tree.ArcsTo(v)
					if err != nil {
						t.Fatalf("ArcsTo(%d): %v", v, err)
					}
					sum := 0.0
					at := c.src
					for _, h := range hops {
						if h.From != at {
							t.Fatalf("path discontinuity at %d", h.From)
						}
						arc := c.g.Out(h.From)[h.ArcIndex]
						sum += arc.Weight
						at = int(arc.To)
					}
					if at != v || !almostEq(sum, tree.Dist[v]) {
						t.Fatalf("trial %d: path to %d sums to %v, Dist %v", trial, v, sum, tree.Dist[v])
					}
				}
			}
		})
	}
}

func almostEq(a, b float64) bool {
	if a == b {
		return true
	}
	d := a - b
	if d < 0 {
		d = -d
	}
	return d < 1e-7*(1+max(abs(a), abs(b)))
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// TestQuickTriangleInequality property: for random graphs, final distances
// satisfy d(v) <= d(u) + w(u,v) over every arc (relaxation fixpoint).
func TestQuickTriangleInequality(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(30)
		g := randomDigraph(rng, n, 0.2)
		tree, err := Dijkstra(g, 0, -1, QueueFibonacci)
		if err != nil {
			return false
		}
		for u := 0; u < n; u++ {
			if tree.Dist[u] == Inf {
				continue
			}
			for _, a := range g.Out(u) {
				if tree.Dist[a.To] > tree.Dist[u]+a.Weight+1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestBellmanFordRounds(t *testing.T) {
	g := lineGraph(t, 10)
	tree, rounds, err := BellmanFord(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	if tree.Dist[9] != 45 {
		t.Fatalf("Dist[9] = %v, want 45", tree.Dist[9])
	}
	// Sequential relaxation order makes a line converge fast, but rounds
	// must be at least 2 (one working round, one quiescent round).
	if rounds < 2 || rounds > 11 {
		t.Fatalf("rounds = %d, want within [2,11]", rounds)
	}
}

func TestBellmanFordBadSource(t *testing.T) {
	g := New(2)
	if _, _, err := BellmanFord(g, 7); !errors.Is(err, ErrNodeRange) {
		t.Fatalf("bad source: %v", err)
	}
}

func BenchmarkDijkstraSparse(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	const n = 2000
	g := New(n)
	for u := 0; u < n; u++ {
		for j := 0; j < 4; j++ {
			_ = g.AddArc(u, rng.Intn(n), rng.Float64()*10, 0)
		}
	}
	for _, kind := range allKinds {
		b.Run(kind.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Dijkstra(g, 0, -1, kind); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func TestDijkstraSeedsMulti(t *testing.T) {
	// Two seeds: distances are min over either origin.
	g := New(5)
	mustArc(t, g, 0, 2, 10)
	mustArc(t, g, 1, 2, 1)
	mustArc(t, g, 2, 3, 1)
	tree, err := DijkstraSeeds(g, []int{0, 1}, -1, QueueBinary)
	if err != nil {
		t.Fatal(err)
	}
	if tree.Source != -1 {
		t.Fatalf("multi-seed Source = %d, want -1", tree.Source)
	}
	if tree.Dist[2] != 1 || tree.Dist[3] != 2 {
		t.Fatalf("dists = %v", tree.Dist)
	}
	path, err := tree.PathTo(3)
	if err != nil {
		t.Fatal(err)
	}
	if path[0] != 1 {
		t.Fatalf("path should start at seed 1: %v", path)
	}
}

func TestDijkstraSeedsErrors(t *testing.T) {
	g := New(2)
	if _, err := DijkstraSeeds(g, nil, -1, QueueBinary); !errors.Is(err, ErrNodeRange) {
		t.Fatalf("no seeds: %v", err)
	}
	if _, err := DijkstraSeeds(g, []int{5}, -1, QueueBinary); !errors.Is(err, ErrNodeRange) {
		t.Fatalf("bad seed: %v", err)
	}
	if _, err := DijkstraSeedsUntil(g, []int{0}, []int{9}, QueueBinary); !errors.Is(err, ErrNodeRange) {
		t.Fatalf("bad goal: %v", err)
	}
}

// TestDijkstraSeedsUntilEarlyStop: the first goal settled ends the
// search. Node 2 is final; node 4, a goal further out, is never settled
// and its distance is not computed.
func TestDijkstraSeedsUntilEarlyStop(t *testing.T) {
	g := lineGraph(t, 100)
	for _, kind := range allKinds {
		t.Run(kind.String(), func(t *testing.T) {
			tree, err := DijkstraSeedsUntil(g, []int{0}, []int{2, 4}, kind)
			if err != nil {
				t.Fatal(err)
			}
			if tree.Dist[2] != 3 {
				t.Fatalf("Dist[2] = %v, want 3", tree.Dist[2])
			}
			if tree.Settled != 3 {
				t.Fatalf("settled %d nodes, want 3 (0, 1 and the first goal)", tree.Settled)
			}
			if tree.Reached(4) {
				t.Fatalf("goal 4 lies past the first goal, Dist %v", tree.Dist[4])
			}
		})
	}
}

// TestDijkstraSeedsUntilDrainsTies pins both halves of the stopping rule
// on a hand-built plateau. Goals 1, 3 and 4 all sit at distance 2 — 3 and
// 4 only through zero-weight arcs out of nodes that are themselves at the
// plateau key, so they enter the queue after the first goal is settled —
// and goal 5 sits at 3. Every kind must settle the whole plateau with
// exact distances and parents, whichever tied goal it pops first, and
// must not settle goal 5.
func TestDijkstraSeedsUntilDrainsTies(t *testing.T) {
	g := New(6)
	mustArc(t, g, 0, 1, 2)
	mustArc(t, g, 0, 2, 2)
	mustArc(t, g, 2, 3, 0)
	mustArc(t, g, 1, 4, 0)
	mustArc(t, g, 4, 5, 1)
	for _, kind := range allKinds {
		t.Run(kind.String(), func(t *testing.T) {
			tree, err := DijkstraSeedsUntil(g, []int{0}, []int{5, 4, 3, 1}, kind)
			if err != nil {
				t.Fatal(err)
			}
			for v, parent := range map[int]int32{1: 0, 2: 0, 3: 2, 4: 1} {
				if tree.Dist[v] != 2 || tree.Parent[v] != parent {
					t.Fatalf("node %d dist %v parent %d, want 2 via %d", v, tree.Dist[v], tree.Parent[v], parent)
				}
			}
			if tree.Settled != 5 {
				t.Fatalf("settled %d nodes, want 5 (the seed and the plateau, not goal 5)", tree.Settled)
			}
		})
	}
}

// TestGoalStopMatchesExhaustive is the exactness property behind the
// stopping rule, on tie-heavy random digraphs (small integer weights,
// many of them zero): for every queue kind, and for A* under the zero and
// the exact potential, the goal-set run and an exhaustive run of the same
// engine agree on the minimum over the goals, on the lowest-index goal
// attaining it, and on the whole parent chain into that goal.
func TestGoalStopMatchesExhaustive(t *testing.T) {
	type instance struct {
		g            *Digraph
		seeds, goals []int
	}
	rng := rand.New(rand.NewSource(77))
	cases := make([]instance, 150)
	for trial := range cases {
		n := 2 + rng.Intn(40)
		g := New(n)
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				if u != v && rng.Float64() < 0.12 {
					mustArc(t, g, u, v, float64(rng.Intn(3)))
				}
			}
		}
		seeds := []int{rng.Intn(n), rng.Intn(n)}
		goals := make([]int, 1+rng.Intn(5))
		for i := range goals {
			goals[i] = rng.Intn(n)
		}
		cases[trial] = instance{g, seeds, goals}
	}
	type engine struct {
		name string
		run  func(t *testing.T, c instance, goals []int) (*ShortestPathTree, error)
	}
	var engines []engine
	for _, kind := range allKinds {
		if kind == QueueBucket {
			// With goals it is the binary engine, and its own exhaustive
			// run may pick another of several equal-cost paths.
			continue
		}
		engines = append(engines, engine{kind.String(), func(_ *testing.T, c instance, goals []int) (*ShortestPathTree, error) {
			return DijkstraSeedsUntil(c.g, c.seeds, goals, kind)
		}})
	}
	engines = append(engines,
		engine{"astar-zero", func(_ *testing.T, c instance, goals []int) (*ShortestPathTree, error) {
			return AStarSeedsUntil(c.g, c.seeds, goals, ZeroPotential)
		}},
		engine{"astar-exact", func(t *testing.T, c instance, goals []int) (*ShortestPathTree, error) {
			return AStarSeedsUntil(c.g, c.seeds, goals, exactPotential(t, c.g, c.goals))
		}})
	for _, e := range engines {
		t.Run(e.name, func(t *testing.T) {
			for trial, c := range cases {
				got, err := e.run(t, c, c.goals)
				if err != nil {
					t.Fatalf("trial %d: %v", trial, err)
				}
				full, err := e.run(t, c, nil)
				if err != nil {
					t.Fatalf("trial %d exhaustive: %v", trial, err)
				}
				gotAt, wantAt := argminGoal(got, c.goals), argminGoal(full, c.goals)
				if gotAt != wantAt {
					t.Fatalf("trial %d: best goal %d, exhaustive run says %d", trial, gotAt, wantAt)
				}
				if wantAt < 0 {
					continue
				}
				if got.Dist[gotAt] != full.Dist[wantAt] {
					t.Fatalf("trial %d: dist %v, exhaustive %v", trial, got.Dist[gotAt], full.Dist[wantAt])
				}
				gotHops, err := got.ArcsTo(gotAt)
				if err != nil {
					t.Fatalf("trial %d: %v", trial, err)
				}
				wantHops, _ := full.ArcsTo(wantAt)
				if len(gotHops) != len(wantHops) {
					t.Fatalf("trial %d: path %v, exhaustive %v", trial, gotHops, wantHops)
				}
				for i := range gotHops {
					if gotHops[i] != wantHops[i] {
						t.Fatalf("trial %d: path %v, exhaustive %v", trial, gotHops, wantHops)
					}
				}
				if got.Settled > full.Settled {
					t.Fatalf("trial %d: settled %d > exhaustive %d", trial, got.Settled, full.Settled)
				}
			}
		})
	}
}

// argminGoal returns the lowest-numbered goal of minimum distance, or -1
// when no goal is reached — the virtual super sink's choice.
func argminGoal(t *ShortestPathTree, goals []int) int {
	best, at := Inf, -1
	for _, gl := range goals {
		if d := t.Dist[gl]; d < best || (d == best && at >= 0 && gl < at) {
			best, at = d, gl
		}
	}
	return at
}

// TestDijkstraSeedsUntilEdgeCases drives the goal-set API through its
// boundary shapes — the full-tree sentinel, seeds already inside the goal
// set, unreachable goals, duplicated seeds and goals — under every queue
// kind, pinning both distances and the stop behavior each shape implies.
func TestDijkstraSeedsUntilEdgeCases(t *testing.T) {
	// Fixture: 0→1→2→3 line (weights 1,2,3) plus isolated node 4.
	build := func(t *testing.T) *Digraph {
		g := New(5)
		mustArc(t, g, 0, 1, 1)
		mustArc(t, g, 1, 2, 2)
		mustArc(t, g, 2, 3, 3)
		return g
	}
	cases := []struct {
		name      string
		seeds     []int
		goals     []int
		wantDist  map[int]float64 // exact distances that must hold
		wantUnrea []int           // nodes that must stay unreached
		fullTree  bool            // search must settle every reachable node
		maxSettle int             // early-stop ceiling, 0 = don't check
	}{
		{
			name:     "empty goal set computes the full tree",
			seeds:    []int{0},
			goals:    nil,
			wantDist: map[int]float64{0: 0, 1: 1, 2: 3, 3: 6},
			fullTree: true,
		},
		{
			name:     "empty non-nil goal slice is the same sentinel",
			seeds:    []int{0},
			goals:    []int{},
			wantDist: map[int]float64{3: 6},
			fullTree: true,
		},
		{
			name:      "seed already in the goal set stops immediately",
			seeds:     []int{1},
			goals:     []int{1},
			wantDist:  map[int]float64{1: 0},
			maxSettle: 1,
		},
		{
			name:      "unreachable goal exhausts without error",
			seeds:     []int{0},
			goals:     []int{4},
			wantDist:  map[int]float64{3: 6},
			wantUnrea: []int{4},
		},
		{
			name:      "a reachable goal stops the search whatever else is in the set",
			seeds:     []int{0},
			goals:     []int{1, 4},
			wantDist:  map[int]float64{1: 1},
			wantUnrea: []int{4},
			maxSettle: 2,
		},
		{
			name:      "goals past the first one are left unsettled",
			seeds:     []int{0},
			goals:     []int{3, 1},
			wantDist:  map[int]float64{1: 1},
			wantUnrea: []int{3},
			maxSettle: 2,
		},
		{
			name:      "duplicate seeds behave as one",
			seeds:     []int{0, 0, 0},
			goals:     []int{2},
			wantDist:  map[int]float64{2: 3},
			maxSettle: 3,
		},
		{
			name:      "duplicate goals do not double-count the stop",
			seeds:     []int{0},
			goals:     []int{2, 2, 2},
			wantDist:  map[int]float64{2: 3},
			maxSettle: 3,
		},
		{
			name:     "multi-seed takes the min over origins",
			seeds:    []int{0, 2},
			goals:    []int{3},
			wantDist: map[int]float64{3: 3, 2: 0},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, kind := range allKinds {
				t.Run(kind.String(), func(t *testing.T) {
					g := build(t)
					tree, err := DijkstraSeedsUntil(g, tc.seeds, tc.goals, kind)
					if err != nil {
						t.Fatal(err)
					}
					for v, want := range tc.wantDist {
						if !almostEq(tree.Dist[v], want) {
							t.Fatalf("Dist[%d] = %v, want %v", v, tree.Dist[v], want)
						}
					}
					for _, v := range tc.wantUnrea {
						if tree.Reached(v) {
							t.Fatalf("node %d should be unreachable, Dist %v", v, tree.Dist[v])
						}
					}
					if tc.fullTree {
						for v := 0; v <= 3; v++ {
							if !tree.Reached(v) {
								t.Fatalf("full-tree run left reachable node %d unsettled", v)
							}
						}
					}
					if tc.maxSettle > 0 && tree.Settled > tc.maxSettle {
						t.Fatalf("settled %d nodes, early stop should need ≤%d", tree.Settled, tc.maxSettle)
					}
				})
			}
		})
	}
}

func TestDijkstraSeedsUntilUnreachableGoalRunsFull(t *testing.T) {
	g := New(4)
	mustArc(t, g, 0, 1, 1)
	mustArc(t, g, 1, 2, 1)
	// No goal reachable: the search exhausts and every distance is final.
	tree, err := DijkstraSeedsUntil(g, []int{0}, []int{3}, QueueBinary)
	if err != nil {
		t.Fatal(err)
	}
	if tree.Dist[1] != 1 || tree.Dist[2] != 2 || tree.Reached(3) || tree.Settled != 3 {
		t.Fatalf("dists %v settled %d, want a full run over 0,1,2", tree.Dist, tree.Settled)
	}
}
