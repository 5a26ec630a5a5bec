package core

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"lightpath/internal/graph"
	"lightpath/internal/oracle"
)

var (
	binaryOpts = &Options{Queue: graph.QueueBinary}
	bucketOpts = &Options{Queue: graph.QueueBucket}
)

// maxForwardRatio bounds, over the full trees of one network, the
// link-arc relaxations of the masked search as a multiple of the link
// arcs out of reached Y nodes — what the unmasked search relaxes at most
// once each (the paper's km term). The fixtures measure at most 1.053.
const maxForwardRatio = 1.25

// checkPassThrough compares, from every source of a, the two searches
// that pass the Y shore through — the binary queue and the bucket queue
// SourceTrees are served from — with the binary queue unmasked: every
// auxiliary distance bit-equal, no more pops on the heap, at least one
// scan per reached X node on the buckets, and a bucket-built SourceTree
// whose every cost is the heap-built one's bit for bit and whose every
// path is a valid semilightpath of that cost. It then checks what the
// masked search is used for — every path a SourceTree extracts
// is a valid semilightpath costing its reported distance (exactly so when
// sums are exact), plain Route on the same queue agrees with the tree and
// with the unmasked Fibonacci search bit for bit — and puts one pair in
// eight to the auxiliary-graph-free oracle.
func checkPassThrough(t *testing.T, a *Aux, rng *rand.Rand, exact bool) {
	t.Helper()
	nw := a.Network()
	n := nw.NumNodes()
	same := func(got, want float64) bool {
		if exact {
			return got == want
		}
		return costEq(got, want)
	}
	linkRelaxed, linkArcs := 0, 0
	defer func() {
		// A masked node is never marked done, so a Y node forwards its link
		// arcs once per improvement — up to once per in-arc, k·km link-arc
		// relaxations in the worst case against the paper's km. Whatever
		// the converter family makes the cheapest in-arc, re-forwarding
		// must stay a fraction of the first forwarding.
		if float64(linkRelaxed) > maxForwardRatio*float64(linkArcs) {
			t.Errorf("masked trees relaxed link arcs %d times, %d link arcs leave reached Y nodes: ratio above %v",
				linkRelaxed, linkArcs, maxForwardRatio)
		}
	}()
	for s := 0; s < n; s++ {
		st, err := a.RouteFrom(s, binaryOpts)
		if err != nil {
			t.Fatal(err)
		}
		seeds := a.sourceSeeds(nil, s)
		if len(seeds) == 0 {
			for d := 0; d < n; d++ {
				if d != s && st.Reachable(d) {
					t.Fatalf("%d→%d: reachable from a source with no outgoing channels", s, d)
				}
			}
			continue
		}
		masked, err := graph.DijkstraSeedsUntilScratch(a.g, seeds, nil, graph.QueueBinary, nil, a.yPass)
		if err != nil {
			t.Fatal(err)
		}
		plain, err := graph.DijkstraSeedsUntilScratch(a.g, seeds, nil, graph.QueueBinary, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		for v := range plain.Dist {
			if math.Float64bits(masked.Dist[v]) != math.Float64bits(plain.Dist[v]) {
				t.Fatalf("source %d: aux dist[%d] = %v masked, %v unmasked", s, v, masked.Dist[v], plain.Dist[v])
			}
		}
		// Every reached X node is popped once and tries all its arcs (they
		// enter Y, which is never done); the rest of Relaxed is link arcs.
		linkRelaxed += masked.Relaxed
		for v, d := range masked.Dist {
			if !graph.Finite(d) {
				continue
			}
			if a.yPass[v] {
				linkArcs += len(a.g.Out(v))
			} else {
				linkRelaxed -= len(a.g.Out(v))
			}
		}
		if masked.Settled > plain.Settled || st.settled != masked.Settled {
			t.Fatalf("source %d: pops masked %d, tree %d, unmasked %d", s, masked.Settled, st.settled, plain.Settled)
		}
		bucket, err := graph.BucketTreeScratch(a.g, seeds, a.bucketWidth, nil, a.yPass)
		if err != nil {
			t.Fatal(err)
		}
		for v := range plain.Dist {
			if math.Float64bits(bucket.Dist[v]) != math.Float64bits(plain.Dist[v]) {
				t.Fatalf("source %d: aux dist[%d] = %v on buckets, %v on the heap", s, v, bucket.Dist[v], plain.Dist[v])
			}
		}
		bt, err := a.RouteFrom(s, bucketOpts)
		if err != nil {
			t.Fatal(err)
		}
		// The heap pops each reached X node once, so its pop count is the
		// number of them.
		if bt.settled != bucket.Settled || bt.Rescans() != bucket.Settled-masked.Settled || bt.Rescans() < 0 {
			t.Fatalf("source %d: bucket tree scans %d (rescans %d), kernel %d, reached X nodes %d",
				s, bt.settled, bt.Rescans(), bucket.Settled, masked.Settled)
		}
		for d := 0; d < n; d++ {
			if d == s {
				continue
			}
			if math.Float64bits(bt.Dist(d)) != math.Float64bits(st.Dist(d)) {
				t.Fatalf("%d→%d: bucket tree costs %v, heap tree %v", s, d, bt.Dist(d), st.Dist(d))
			}
			if bt.Reachable(d) {
				path, err := bt.PathTo(d)
				if err != nil {
					t.Fatal(err)
				}
				if err := path.Validate(nw, s, d); err != nil {
					t.Fatalf("%d→%d: bucket tree path invalid: %v", s, d, err)
				}
				if got := path.Cost(nw); !same(got, bt.Dist(d)) {
					t.Fatalf("%d→%d: bucket tree path costs %v, dist %v", s, d, got, bt.Dist(d))
				}
			}
			res, errBin := a.Route(s, d, binaryOpts)
			ref, errFib := a.Route(s, d, plainOpts)
			if !st.Reachable(d) {
				if !errors.Is(errBin, ErrNoRoute) || !errors.Is(errFib, ErrNoRoute) {
					t.Fatalf("%d→%d: tree says unreachable, Route binary %v, fibonacci %v", s, d, errBin, errFib)
				}
				if _, err := st.PathTo(d); !errors.Is(err, ErrNoRoute) {
					t.Fatalf("%d→%d: PathTo on an unreachable node: %v", s, d, err)
				}
				continue
			}
			if errBin != nil || errFib != nil {
				t.Fatalf("%d→%d: tree costs %v, Route binary %v, fibonacci %v", s, d, st.Dist(d), errBin, errFib)
			}
			bits := math.Float64bits(st.Dist(d))
			if math.Float64bits(res.Cost) != bits || math.Float64bits(ref.Cost) != bits {
				t.Fatalf("%d→%d: tree %v, Route binary %v, fibonacci %v", s, d, st.Dist(d), res.Cost, ref.Cost)
			}
			treePath, err := st.PathTo(d)
			if err != nil {
				t.Fatal(err)
			}
			if err := treePath.Validate(nw, s, d); err != nil {
				t.Fatalf("%d→%d: tree path invalid: %v", s, d, err)
			}
			if got := treePath.Cost(nw); !same(got, st.Dist(d)) {
				t.Fatalf("%d→%d: tree path costs %v, dist %v", s, d, got, st.Dist(d))
			}
			if err := res.Path.Validate(nw, s, d); err != nil {
				t.Fatalf("%d→%d: route path invalid: %v", s, d, err)
			}
			if got := res.Path.Cost(nw); !same(got, res.Cost) {
				t.Fatalf("%d→%d: route path costs %v, reported %v", s, d, got, res.Cost)
			}
			if res.Stats.Settled > ref.Stats.Settled {
				t.Fatalf("%d→%d: masked Route popped %d, unmasked %d", s, d, res.Stats.Settled, ref.Stats.Settled)
			}
			if rng.Intn(8) == 0 {
				want, _, err := oracle.Solve(nw, s, d)
				if err != nil || !costEq(want, st.Dist(d)) {
					t.Fatalf("%d→%d: oracle %v (%v), tree %v", s, d, want, err, st.Dist(d))
				}
			}
		}
	}
}

// TestPassThroughDifferentialAcrossTopologies: every topology fixture ×
// every converter family, on the installed network and on a churned
// residual with failed links at the end of a 1000-deep ApplyDelta chain
// (every child shares the root's mask).
func TestPassThroughDifferentialAcrossTopologies(t *testing.T) {
	for conv, spec := range directedConvs {
		for name, nw := range directedFixtures(t, spec) {
			t.Run(conv+"/"+name, func(t *testing.T) {
				rng := rand.New(rand.NewSource(1515))
				a := mustAux(t, nw)
				checkPassThrough(t, a, rng, false)
				checkPassThrough(t, deepChain(t, a, rng, 1000), rng, false)
			})
		}
	}
}

// TestPassThroughOnTieHeavyNetworks: integer weights with zeros and free
// converters make whole plateaus of equal keys, across which a Y node
// forwards at the key of the pop that reached it; the instances also
// hold a source with no outgoing channels and a node nothing reaches.
// Sums are exact here, so path costs must equal distances exactly.
func TestPassThroughOnTieHeavyNetworks(t *testing.T) {
	rng := rand.New(rand.NewSource(1998))
	for trial := 0; trial < 60; trial++ {
		checkPassThrough(t, tieHeavyAux(t, rng), rng, true)
	}
}
