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

// TestPassThroughMatchesUnmasked: on random graphs under random masks —
// masked seeds, masked chains, zero-weight arcs — a full-tree search
// with the mask, on either queue that takes one, gives every node the
// distance, bit for bit, that the unmasked binary search gives it and a
// parent chain that sums to it. The binary queue pops exactly the
// reachable unmasked nodes; the bucket queue, sized here from arc weights
// that include zeros, scans each of them at least once.
func TestPassThroughMatchesUnmasked(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(40)
		g, pass := maskedGraph(rng, n, rng.Intn(5*n), trial%2 == 0, rng.Float64())
		seeds := []int{rng.Intn(n), rng.Intn(n)}
		sc := NewScratch(n)
		want, err := DijkstraSeedsUntil(g, seeds, nil, QueueBinary)
		if err != nil {
			t.Fatal(err)
		}
		for _, kind := range []QueueKind{QueueBinary, QueueBucket} {
			got, err := DijkstraSeedsUntilScratch(g, seeds, nil, kind, sc, pass)
			if err != nil {
				t.Fatal(err)
			}
			unmasked := 0
			for v := range want.Dist {
				if math.Float64bits(got.Dist[v]) != math.Float64bits(want.Dist[v]) {
					t.Fatalf("trial %d %v: dist[%d] = %v masked, %v unmasked", trial, kind, v, got.Dist[v], want.Dist[v])
				}
				if want.Reached(v) && !pass[v] {
					unmasked++
				}
			}
			if got.Settled < unmasked || kind == QueueBinary && got.Settled != unmasked {
				t.Fatalf("trial %d %v: masked search scanned %d nodes, %d unmasked nodes are reachable", trial, kind, got.Settled, unmasked)
			}
			checkTreeSums(t, g, got)
		}
	}
}

// TestPassThroughGoalStop: with goals, the masked search stops on the
// rule of DijkstraSeedsUntil — the first goal's key plateau is drained —
// so the best goal and its distance are those of the exhaustive run.
func TestPassThroughGoalStop(t *testing.T) {
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
		full, err := DijkstraSeedsUntil(g, seeds, nil, QueueBinary)
		if err != nil {
			t.Fatal(err)
		}
		got, err := DijkstraSeedsUntilScratch(g, seeds, goals, QueueBinary, nil, pass)
		if err != nil {
			t.Fatal(err)
		}
		at, fullAt := argminGoal(got, goals), argminGoal(full, goals)
		if at != fullAt {
			t.Fatalf("trial %d: best goal %d, exhaustive %d", trial, at, fullAt)
		}
		if at >= 0 && got.Dist[at] != full.Dist[at] {
			t.Fatalf("trial %d: dist[%d] = %v, exhaustive %v", trial, at, got.Dist[at], full.Dist[at])
		}
		if got.Settled > full.Settled {
			t.Fatalf("trial %d: settled %d, exhaustive %d", trial, got.Settled, full.Settled)
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
	if _, err := DijkstraSeedsUntilScratch(g, []int{0}, nil, QueueBinary, nil, pass[:5]); err == nil {
		t.Error("short mask accepted")
	}
	if _, err := DijkstraSeedsUntilScratch(g, []int{0}, []int{9}, QueueBinary, nil, pass); err == nil {
		t.Error("masked goal accepted")
	}
	want, err := DijkstraSeedsUntil(g, []int{0}, nil, QueueFibonacci)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DijkstraSeedsUntilScratch(g, []int{0}, nil, QueueFibonacci, nil, pass)
	if err != nil {
		t.Fatal(err)
	}
	if got.Settled != want.Settled || got.Relaxed != want.Relaxed {
		t.Errorf("fibonacci with a mask settled/relaxed %d/%d, without %d/%d", got.Settled, got.Relaxed, want.Settled, want.Relaxed)
	}
}

// TestPassThroughAllocationFree: the mask costs the pooled search
// nothing — still zero allocations per query.
func TestPassThroughAllocationFree(t *testing.T) {
	g, pass := maskedGraph(rand.New(rand.NewSource(17)), 200, 1200, false, 0.5)
	sc := NewScratch(g.NumNodes())
	seeds := []int{0, 1}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := DijkstraSeedsUntilScratch(g, seeds, nil, QueueBinary, sc, pass); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("masked scratch search allocates %v objects per run, want 0", allocs)
	}
}
