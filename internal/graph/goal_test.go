package graph

import (
	"errors"
	"math/rand"
	"testing"
)

// plainBest is the reference answer for a multi-seed, goal-set query:
// run the full goal-set Dijkstra and take the min over goals.
func plainBest(t *testing.T, g *Digraph, seeds, goals []int) (float64, int) {
	t.Helper()
	tree, err := DijkstraSeedsUntil(g, seeds, goals, QueueBinary)
	if err != nil {
		t.Fatalf("reference Dijkstra: %v", err)
	}
	best, bestAt := Inf, -1
	for _, gl := range goals {
		if tree.Dist[gl] < best {
			best, bestAt = tree.Dist[gl], gl
		}
	}
	return best, bestAt
}

// checkHops validates a reconstructed hop sequence: contiguous, starts at
// a seed, ends in the goal set, and sums to want.
func checkHops(t *testing.T, g *Digraph, hops []HopRef, seeds, goals []int, want float64) {
	t.Helper()
	isSeed := make(map[int]bool, len(seeds))
	for _, s := range seeds {
		isSeed[s] = true
	}
	isGoal := make(map[int]bool, len(goals))
	for _, gl := range goals {
		isGoal[gl] = true
	}
	at := -1
	sum := 0.0
	for i, h := range hops {
		if i == 0 {
			if !isSeed[h.From] {
				t.Fatalf("path starts at %d, not a seed", h.From)
			}
		} else if h.From != at {
			t.Fatalf("path discontinuity at hop %d: from %d, expected %d", i, h.From, at)
		}
		arc := g.Out(h.From)[h.ArcIndex]
		sum += arc.Weight
		at = int(arc.To)
	}
	if len(hops) == 0 {
		// Zero-length path: legal only when a seed is itself a goal.
		for _, s := range seeds {
			if isGoal[s] {
				at = s
				break
			}
		}
	}
	if !isGoal[at] {
		t.Fatalf("path ends at %d, not a goal", at)
	}
	if !almostEq(sum, want) {
		t.Fatalf("path sums to %v, want %v", sum, want)
	}
}

func TestAStarZeroPotentialMatchesPlain(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.Intn(40)
		g := randomDigraph(rng, n, 0.15)
		seeds := []int{rng.Intn(n)}
		goals := []int{rng.Intn(n)}
		ref, err := DijkstraSeedsUntil(g, seeds, goals, QueueBinary)
		if err != nil {
			t.Fatal(err)
		}
		tree, err := AStarSeedsUntil(g, seeds, goals, ZeroPotential)
		if err != nil {
			t.Fatal(err)
		}
		gl := goals[0]
		if ref.Reached(gl) != tree.Reached(gl) || (ref.Reached(gl) && !almostEq(ref.Dist[gl], tree.Dist[gl])) {
			t.Fatalf("trial %d: zero-potential A* dist %v, plain %v", trial, tree.Dist[gl], ref.Dist[gl])
		}
	}
}

// exactPotential builds the perfect heuristic — true distance-to-goal-set
// computed on the reverse graph. It is trivially admissible and
// consistent, and unreachable-to-goal nodes get the +Inf prune.
func exactPotential(t *testing.T, g *Digraph, goals []int) func(int) float64 {
	t.Helper()
	bwd, err := DijkstraSeedsUntil(g.Reverse(), goals, nil, QueueBinary)
	if err != nil {
		t.Fatal(err)
	}
	return func(v int) float64 { return bwd.Dist[v] }
}

// TestAStarExactPotential: with the perfect heuristic the search must
// still return exact costs, settle no more nodes than plain Dijkstra,
// and produce a reconstructable path through settled-exact parents.
func TestAStarExactPotential(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	for trial := 0; trial < 40; trial++ {
		n := 3 + rng.Intn(50)
		g := randomDigraph(rng, n, 0.1)
		seeds := []int{rng.Intn(n)}
		goals := []int{rng.Intn(n), rng.Intn(n)}
		want, wantAt := plainBest(t, g, seeds, goals)
		ref, err := DijkstraSeedsUntil(g, seeds, goals, QueueBinary)
		if err != nil {
			t.Fatal(err)
		}
		tree, err := AStarSeedsUntil(g, seeds, goals, exactPotential(t, g, goals))
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if IsInf(want) {
			for _, gl := range goals {
				if tree.Reached(gl) {
					t.Fatalf("trial %d: goal %d reachable under A* but not plain", trial, gl)
				}
			}
			continue
		}
		if !tree.Reached(wantAt) || !almostEq(tree.Dist[wantAt], want) {
			t.Fatalf("trial %d: A* dist %v at %d, plain %v", trial, tree.Dist[wantAt], wantAt, want)
		}
		if tree.Settled > ref.Settled {
			t.Fatalf("trial %d: exact-potential A* settled %d > plain %d", trial, tree.Settled, ref.Settled)
		}
		hops, err := tree.ArcsTo(wantAt)
		if err != nil {
			t.Fatalf("trial %d: ArcsTo: %v", trial, err)
		}
		checkHops(t, g, hops, seeds, []int{wantAt}, want)
	}
}

// TestAStarInfPotentialPrunes: nodes the potential marks unreachable are
// never queued, and a seed with +Inf potential is skipped outright.
func TestAStarInfPotentialPrunes(t *testing.T) {
	// 0→1→2 (goal), plus a fan 0→{3,4} that cannot reach the goal.
	g := New(5)
	mustArc(t, g, 0, 1, 1)
	mustArc(t, g, 1, 2, 1)
	mustArc(t, g, 0, 3, 0.1)
	mustArc(t, g, 3, 4, 0.1)
	pot := exactPotential(t, g, []int{2})
	tree, err := AStarSeedsUntil(g, []int{0}, []int{2}, pot)
	if err != nil {
		t.Fatal(err)
	}
	if !tree.Reached(2) || tree.Dist[2] != 2 {
		t.Fatalf("goal: reached=%v dist=%v", tree.Reached(2), tree.Dist[2])
	}
	if tree.Reached(3) || tree.Reached(4) {
		t.Fatalf("dead-end fan should be pruned, dists %v %v", tree.Dist[3], tree.Dist[4])
	}
	// All-Inf seeds: the search starts empty and reports unreachable.
	tree, err = AStarSeedsUntil(g, []int{3}, []int{2}, pot)
	if err != nil {
		t.Fatal(err)
	}
	if tree.Reached(2) || tree.Settled != 0 {
		t.Fatalf("Inf-potential seed should settle nothing, settled %d", tree.Settled)
	}
}

func TestAStarArgErrors(t *testing.T) {
	g := New(3)
	if _, err := AStarSeedsUntil(g, []int{0}, []int{9}, ZeroPotential); !errors.Is(err, ErrNodeRange) {
		t.Fatalf("bad goal: %v", err)
	}
	if _, err := AStarSeedsUntil(g, []int{0}, []int{1}, nil); err == nil {
		t.Fatal("nil potential should error")
	}
	if _, err := AStarSeedsUntil(g, []int{7}, []int{1}, ZeroPotential); !errors.Is(err, ErrNodeRange) {
		t.Fatalf("bad seed: %v", err)
	}
}

// TestAStarScratchReuse runs many queries through one scratch and
// cross-checks each against a fresh-allocation run: goal marks and heap
// state must fully reset between pooled queries.
func TestAStarScratchReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	n := 35
	g := randomDigraph(rng, n, 0.12)
	sc := NewScratch(n)
	for q := 0; q < 30; q++ {
		seeds := []int{rng.Intn(n)}
		goals := []int{rng.Intn(n)}
		pot := exactPotential(t, g, goals)
		fresh, err := AStarSeedsUntil(g, seeds, goals, pot)
		if err != nil {
			t.Fatal(err)
		}
		pooled, err := AStarSeedsUntilScratch(g, seeds, goals, pot, sc)
		if err != nil {
			t.Fatal(err)
		}
		gl := goals[0]
		if fresh.Reached(gl) != pooled.Reached(gl) ||
			(fresh.Reached(gl) && !almostEq(fresh.Dist[gl], pooled.Dist[gl])) {
			t.Fatalf("query %d: fresh %v vs pooled %v", q, fresh.Dist[gl], pooled.Dist[gl])
		}
	}
}

// TestGoalDirectedSettlesFewer quantifies the point of the whole stack:
// a hub with 20 unit-weight branches of 50 nodes each, goal at the end of
// one branch. Plain goal-set Dijkstra floods every branch ring by ring;
// exact-potential A* walks only the goal branch. Costs stay identical.
func TestGoalDirectedSettlesFewer(t *testing.T) {
	const branches, length = 20, 50
	n := 1 + branches*length
	g := New(n)
	node := func(b, i int) int { return 1 + b*length + i }
	for b := 0; b < branches; b++ {
		mustArc(t, g, 0, node(b, 0), 1)
		mustArc(t, g, node(b, 0), 0, 1)
		for i := 0; i+1 < length; i++ {
			mustArc(t, g, node(b, i), node(b, i+1), 1)
			mustArc(t, g, node(b, i+1), node(b, i), 1)
		}
	}
	seeds, goals := []int{0}, []int{node(0, length-1)}
	ref, err := DijkstraSeedsUntil(g, seeds, goals, QueueBinary)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := AStarSeedsUntil(g, seeds, goals, exactPotential(t, g, goals))
	if err != nil {
		t.Fatal(err)
	}
	gl := goals[0]
	if !almostEq(tree.Dist[gl], ref.Dist[gl]) {
		t.Fatalf("A* dist %v, plain %v", tree.Dist[gl], ref.Dist[gl])
	}
	if tree.Settled*2 > ref.Settled {
		t.Fatalf("A* settled %d vs plain %d — expected at least a 2× reduction", tree.Settled, ref.Settled)
	}
}

// benchGoalGraph: the random sparse instance BenchmarkDijkstraSparse
// uses, shared by the goal-directed kernel benchmark so the smoke pass
// compares like with like.
func benchGoalGraph(n int) *Digraph {
	rng := rand.New(rand.NewSource(3))
	g := New(n)
	for u := 0; u < n; u++ {
		for j := 0; j < 4; j++ {
			_ = g.AddArc(u, rng.Intn(n), rng.Float64()*10, 0)
		}
	}
	return g
}

func BenchmarkAStarSparse(b *testing.B) {
	const n = 2000
	g := benchGoalGraph(n)
	seeds, goals := []int{0}, []int{n / 2}
	var sc Scratch
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := AStarSeedsUntilScratch(g, seeds, goals, ZeroPotential, &sc); err != nil {
			b.Fatal(err)
		}
	}
}
