package graph

import (
	"math"
	"math/rand"
	"testing"
)

// bucketRun is the bucket kernel at an explicit width and bucket count,
// which the exported entry points fix.
func bucketRun(t *testing.T, g *Digraph, seeds []int, pass []bool, width float64, buckets int) *ShortestPathTree {
	t.Helper()
	sc := NewScratch(g.NumNodes())
	tree, err := sc.seedTree(seeds)
	if err != nil {
		t.Fatal(err)
	}
	bucketTree(g, tree, newBucketQueue(buckets), width, sc.done, pass)
	return tree
}

// bellmanFordSeeds is the queue-free reference for a seed set: the
// minimum over one BellmanFord run per seed.
func bellmanFordSeeds(t *testing.T, g *Digraph, seeds []int) []float64 {
	t.Helper()
	dist := make([]float64, g.NumNodes())
	for v := range dist {
		dist[v] = Inf
	}
	for _, s := range seeds {
		bf, _, err := BellmanFord(g, s)
		if err != nil {
			t.Fatal(err)
		}
		for v, d := range bf.Dist {
			dist[v] = min(dist[v], d)
		}
	}
	return dist
}

// TestBucketMatchesBinaryAndBellmanFord: the bucket kernel's distances do
// not depend on its width or its bucket count. On random digraphs — zero
// weights and zero-weight cycles, parallel arcs, unreachable nodes, one
// seed or several with repeats, masked and unmasked — every distance is
// bit-equal to the binary heap's and to Bellman–Ford's and every parent
// chain sums to it, at widths from a hundredth of the lightest positive
// arc to a million and at 2, 16 and the default number of buckets. Only
// the scan count moves: never below the reachable unmasked nodes, and
// exactly that many when the width meets Dial's condition inside a window
// that covers the heaviest arc.
func TestBucketMatchesBinaryAndBellmanFord(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	once := 0
	for trial := 0; trial < 120; trial++ {
		n := 2 + rng.Intn(40)
		integer := trial%2 == 0
		g, pass := maskedGraph(rng, n, rng.Intn(5*n), integer, rng.Float64())
		if !integer {
			// Floats in [1, 10): the lightest arc bounds every hop from below.
			g = New(n)
			for i, arcs := 0, rng.Intn(5*n); i < arcs; i++ {
				u, v, w := rng.Intn(n), rng.Intn(n), 1+rng.Float64()*9
				mustArc(t, g, u, v, w)
				if i%7 == 0 {
					mustArc(t, g, u, v, w+rng.Float64()) // a parallel arc
				}
			}
		}
		if trial%3 == 0 {
			pass = nil
		}
		seeds := []int{rng.Intn(n)}
		for len(seeds) < 1+trial%3 {
			seeds = append(seeds, rng.Intn(n), seeds[0])
		}
		delta, heaviest := Inf, 0.0
		for u := 0; u < n; u++ {
			for _, a := range g.Out(u) {
				heaviest = max(heaviest, a.Weight)
				if a.Weight > 0 {
					delta = min(delta, a.Weight)
				}
			}
		}
		if IsInf(delta) {
			delta = 1
		}
		want, err := DijkstraSeedsUntilScratch(g, seeds, nil, QueueBinary, nil, nil, nil, Inf)
		if err != nil {
			t.Fatal(err)
		}
		bf := bellmanFordSeeds(t, g, seeds)
		reachable := 0
		for v, d := range want.Dist {
			if math.Float64bits(d) != math.Float64bits(bf[v]) {
				t.Fatalf("trial %d: references disagree at %d: binary %v, bellman-ford %v", trial, v, d, bf[v])
			}
			if Finite(d) && (pass == nil || !pass[v]) {
				reachable++
			}
		}
		for _, width := range []float64{delta / 100, delta, 10 * delta, 1e6} {
			for _, buckets := range []int{2, 16, bucketCount} {
				got := bucketRun(t, g, seeds, pass, width, buckets)
				for v := range want.Dist {
					if math.Float64bits(got.Dist[v]) != math.Float64bits(want.Dist[v]) {
						t.Fatalf("trial %d width %v buckets %d: dist[%d] = %v, binary %v",
							trial, width, buckets, v, got.Dist[v], want.Dist[v])
					}
				}
				checkTreeSums(t, g, got)
				if got.Settled < reachable {
					t.Fatalf("trial %d width %v buckets %d: %d scans, %d unmasked nodes are reachable",
						trial, width, buckets, got.Settled, reachable)
				}
				dial := !integer && pass == nil && width == delta && heaviest/width <= float64(buckets-2)
				if dial {
					once++
					if got.Settled != reachable {
						t.Fatalf("trial %d width %v buckets %d: %d scans under Dial's condition, %d nodes are reachable",
							trial, width, buckets, got.Settled, reachable)
					}
				}
			}
		}
	}
	if once < 20 {
		t.Fatalf("only %d runs met Dial's condition; the generator no longer exercises the single-scan case", once)
	}
}

// TestBucketWidthHostile: widths no weight range yields — zero, negative,
// infinite, NaN, denormal, astronomically small against the keys — still
// terminate with the binary heap's distances.
func TestBucketWidthHostile(t *testing.T) {
	g := buildRandom(t, 50, 300, 21)
	want, err := Dijkstra(g, 0, -1, QueueBinary)
	if err != nil {
		t.Fatal(err)
	}
	for _, width := range []float64{0, -1, Inf, math.NaN(), 5e-324, 1e-300, 1e300} {
		for _, buckets := range []int{2, bucketCount} {
			got := bucketRun(t, g, []int{0}, nil, width, buckets)
			for v := range want.Dist {
				if math.Float64bits(got.Dist[v]) != math.Float64bits(want.Dist[v]) {
					t.Fatalf("width %v buckets %d: dist[%d] = %v, binary %v", width, buckets, v, got.Dist[v], want.Dist[v])
				}
			}
		}
	}
}

// TestBucketWidthRule: the width is the lightest hop while the window
// then covers the heaviest, and grows just enough to cover it otherwise.
func TestBucketWidthRule(t *testing.T) {
	if w := BucketWidth(1, 10); w != 1 {
		t.Errorf("range 10 fits %d buckets: width %v, want the lightest hop", bucketCount, w)
	}
	heavy := float64(10 * bucketCount)
	w := BucketWidth(1, heavy)
	if w <= 1 || heavy/w > bucketCount-2 {
		t.Errorf("range %v: width %v leaves the heaviest hop %v buckets ahead of %d", heavy, w, heavy/w, bucketCount)
	}
	if w := BucketWidth(0, 0); w != 0 {
		t.Errorf("all-zero weights: width %v, want 0 (Reset replaces it)", w)
	}
}

// TestBucketEntryPoints: QueueBucket through the exported searches — a
// goal-less search is the bucket kernel sized from the graph's own arcs,
// on fresh and on reused scratch; with goals it is the binary engine, pop
// for pop.
func TestBucketEntryPoints(t *testing.T) {
	g, pass := maskedGraph(rand.New(rand.NewSource(23)), 80, 400, false, 0.3)
	seeds := []int{3, 5}
	want, err := DijkstraSeedsUntilScratch(g, seeds, nil, QueueBinary, nil, nil, nil, Inf)
	if err != nil {
		t.Fatal(err)
	}
	sc := NewScratch(g.NumNodes())
	for i := 0; i < 3; i++ {
		for name, run := range map[string]func() (*ShortestPathTree, error){
			"allocating": func() (*ShortestPathTree, error) {
				return DijkstraSeedsUntilScratch(g, seeds, nil, QueueBucket, nil, nil, nil, Inf)
			},
			"scratch": func() (*ShortestPathTree, error) {
				return DijkstraSeedsUntilScratch(g, seeds, nil, QueueBucket, sc, pass, nil, Inf)
			},
			"width":      func() (*ShortestPathTree, error) { return BucketTreeScratch(g, seeds, 0.5, sc, pass) },
			"no scratch": func() (*ShortestPathTree, error) { return BucketTreeScratch(g, seeds, 0.5, nil, nil) },
		} {
			got, err := run()
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			for v := range want.Dist {
				if math.Float64bits(got.Dist[v]) != math.Float64bits(want.Dist[v]) {
					t.Fatalf("%s: dist[%d] = %v, binary %v", name, v, got.Dist[v], want.Dist[v])
				}
			}
		}
	}
	goals := []int{40, 41}
	pass[40], pass[41] = false, false
	bin, err := DijkstraSeedsUntilScratch(g, seeds, goals, QueueBinary, nil, pass, nil, Inf)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DijkstraSeedsUntilScratch(g, seeds, goals, QueueBucket, sc, pass, nil, Inf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Settled != bin.Settled || got.Relaxed != bin.Relaxed {
		t.Errorf("with goals: settled/relaxed %d/%d, binary engine %d/%d", got.Settled, got.Relaxed, bin.Settled, bin.Relaxed)
	}
	if _, err := BucketTreeScratch(g, seeds, 1, sc, pass[:5]); err == nil {
		t.Error("short mask accepted")
	}
	if QueueBucket.String() != "bucket" {
		t.Errorf("QueueBucket prints as %q", QueueBucket.String())
	}
}

// TestBucketAllocationFree: on a warm scratch the bucket search allocates
// nothing — the entry array has grown to the frontier and is reused.
func TestBucketAllocationFree(t *testing.T) {
	g, pass := maskedGraph(rand.New(rand.NewSource(17)), 200, 1200, false, 0.5)
	sc := NewScratch(g.NumNodes())
	seeds := []int{0, 1}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := BucketTreeScratch(g, seeds, 0.25, sc, pass); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("bucket scratch search allocates %v objects per run, want 0", allocs)
	}
}
