package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"lightpath/internal/graph"
	"lightpath/internal/obs"
	"lightpath/internal/oracle"
	"lightpath/internal/topo"
	"lightpath/internal/wdm"
	"lightpath/internal/workload"
)

func TestDirectedModeString(t *testing.T) {
	cases := map[DirectedMode]string{
		DirectedPlain:   "plain",
		DirectedAStar:   "astar",
		DirectedMode(2): "DirectedMode(2)",
		DirectedMode(9): "DirectedMode(9)",
	}
	for m, want := range cases {
		if got := m.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(m), got, want)
		}
	}
}

// TestRouteRefusesUnknownMode: a mode that names no search is an error
// naming the mode, not a silent plain search — 2 was astar's number
// before the modes were renumbered.
func TestRouteRefusesUnknownMode(t *testing.T) {
	a := mustAux(t, residualTrap(t))
	for _, mode := range []DirectedMode{2, 9} {
		res, err := a.Route(0, 3, &Options{Directed: mode})
		if err == nil || !strings.Contains(err.Error(), mode.String()) {
			t.Fatalf("mode %d: result %+v, error %v; want an error naming %s", uint8(mode), res, err, mode)
		}
	}
}

func costEq(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d < 1e-7
}

var (
	// plainOpts is the paper's search on the paper's heap: the subject
	// the differential and work gates compare A* against.
	plainOpts = &Options{Directed: DirectedPlain, Queue: graph.QueueFibonacci}
	astarOpts = &Options{Directed: DirectedAStar}
	// plainBinaryOpts is plain on the binary engine A* runs on: both
	// masked, both counting X-shore pops.
	plainBinaryOpts = &Options{Directed: DirectedPlain, Queue: graph.QueueBinary}
)

// directedConvs is every converter family the instance generator ships.
var directedConvs = map[string]workload.Spec{
	"uniform":  {K: 5, AvailProb: 0.6, Conv: workload.ConvUniform, ConvCost: 0.3},
	"distance": {K: 5, AvailProb: 0.6, Conv: workload.ConvDistance, ConvCost: 0.3, ConvRadius: 2},
	"none":     {K: 5, AvailProb: 0.6, Conv: workload.ConvNone},
	"sparse":   {K: 5, AvailProb: 0.6, Conv: workload.ConvSparseTable, ConvCost: 0.3, ConvProb: 0.6},
}

// directedFixtures is every topology generator the repo ships, each built
// into a WDM workload under spec. The goal-directed kernels must agree
// with plain Dijkstra on all of them — this is the acceptance differential.
func directedFixtures(t *testing.T, spec workload.Spec) map[string]*wdm.Network {
	t.Helper()
	rng := rand.New(rand.NewSource(2718))
	tops := map[string]*topo.Topology{
		"ring":       topo.Ring(10),
		"line":       topo.Line(9),
		"grid":       topo.Grid(4, 5),
		"sparse":     topo.RandomSparse(24, 4, 6, rng),
		"waxman":     topo.Waxman(20, 0.6, 0.5, rng),
		"complete":   topo.Complete(7),
		"torus":      topo.Torus(4, 4),
		"hypercube":  topo.Hypercube(4),
		"shufflenet": topo.ShuffleNet(2, 3),
		"nsfnet":     topo.NSFNET(),
		"arpanet":    topo.ARPANET(),
	}
	// Sorted: the builds share rng, so map order would make every run a
	// different set of networks.
	names := make([]string, 0, len(tops))
	for name := range tops {
		names = append(names, name)
	}
	sort.Strings(names)
	nets := make(map[string]*wdm.Network, len(tops)+1)
	for _, name := range names {
		tp := tops[name]
		nw, err := workload.Build(tp, spec, rng)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		nets[name] = nw
	}
	paper, err := topo.PaperExample(topo.DefaultPaperExampleSpec())
	if err != nil {
		t.Fatal(err)
	}
	nets["paper"] = paper
	return nets
}

// churnWithFailures derives a residual of nw the way the engine's epochs
// do: single channels held at random, plus a tenth of the links failed
// outright (channel-less, the shape FailLink publishes).
func churnWithFailures(t *testing.T, nw *wdm.Network, rng *rand.Rand) (*wdm.Network, []int) {
	t.Helper()
	res, changed := occupyResidual(t, nw, nw.NumLinks(), rng)
	failed := make(map[int][]wdm.Channel)
	for i := 0; i <= nw.NumLinks()/10; i++ {
		id := rng.Intn(nw.NumLinks())
		if _, dup := failed[id]; !dup {
			failed[id] = nil
			changed = append(changed, id)
		}
	}
	res, err := res.PatchChannels(failed)
	if err != nil {
		t.Fatal(err)
	}
	return res, changed
}

// allPairsMax is the largest network checkDirectedAgree routes all pairs
// of; above it each pair is drawn from rng with probability
// sampledPairs/n², about sampledPairs pairs in all.
const allPairsMax, sampledPairs = 64, 200

// checkDirectedAgree routes every (s,t) pair of a — or, above
// allPairsMax nodes, a seeded sample — under both modes and demands:
// one blocked/served verdict, astar bit-identical to plain in cost,
// every returned path a valid semilightpath of exactly its reported
// cost, and astar never settling more auxiliary nodes than plain
// (f ≤ d* implies g ≤ d*) — plain on its default queue, and plain on
// the binary engine, which counts pops as astar does. The dive that
// prices astar's ceiling must walk at most n−1 links and price a served
// pair at no less than its cost, a blocked one at +Inf. A sample of
// pairs is also put to the auxiliary-graph-free oracle. It returns each
// side's work over the served pairs: plain's settled nodes, and astar's
// settled nodes plus its bound pass's physical scans.
func checkDirectedAgree(t *testing.T, a *Aux, rng *rand.Rand) (plainWork, astarWork int) {
	t.Helper()
	nw := a.Network()
	n := nw.NumNodes()
	// While the bucket width is no more than the lightest channel (Dial's
	// condition) and the window at that width covers the heaviest, the
	// bound pass scans a physical node at most once.
	lightest, heaviest := graph.Inf, 0.0
	for _, l := range nw.Links() {
		for _, ch := range l.Channels {
			lightest, heaviest = min(lightest, ch.Weight), max(heaviest, ch.Weight)
		}
	}
	once := a.bucketWidth <= lightest && graph.BucketWidth(a.bucketWidth, heaviest) == a.bucketWidth
	qs := a.pool.get()
	defer a.pool.put(qs)
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			if s == d || n > allPairsMax && rng.Intn(n*n) >= sampledPairs {
				continue
			}
			rp, errP := a.Route(s, d, plainOpts)
			ra, errA := a.Route(s, d, astarOpts)
			if (errP == nil) != (errA == nil) {
				t.Fatalf("%d→%d: outcome disagreement plain=%v astar=%v", s, d, errP, errA)
			}
			ub := graph.Inf
			if pot, _, _ := a.physicalBound(qs, s, d, nil); pot != nil {
				var hops int
				if ub, hops = a.dive(qs.bound, s, d, pot); hops > n-1 {
					t.Fatalf("%d→%d: the dive took %d links on %d nodes", s, d, hops, n)
				}
			}
			if errP != nil && !graph.IsInf(ub) || errP == nil && !(ub >= ra.Cost) {
				t.Fatalf("%d→%d: the dive prices %v, astar %v (%v)", s, d, ub, ra, errA)
			}
			askOracle := rng.Intn(8) == 0
			if errP != nil {
				if !errors.Is(errA, ErrNoRoute) {
					t.Fatalf("%d→%d: blocked but not ErrNoRoute: %v", s, d, errA)
				}
				if errA.Error() != errP.Error() {
					t.Fatalf("%d→%d: astar blocks with %q, plain with %q", s, d, errA, errP)
				}
				if askOracle {
					if _, _, err := oracle.Solve(nw, s, d); !errors.Is(err, oracle.ErrNoRoute) {
						t.Fatalf("%d→%d: blocked, oracle says %v", s, d, err)
					}
				}
				continue
			}
			if math.Float64bits(ra.Cost) != math.Float64bits(rp.Cost) {
				t.Fatalf("%d→%d: astar cost %v, plain %v", s, d, ra.Cost, rp.Cost)
			}
			for mode, r := range map[string]*Result{"plain": rp, "astar": ra} {
				if err := r.Path.Validate(nw, s, d); err != nil {
					t.Fatalf("%d→%d %s: invalid path: %v", s, d, mode, err)
				}
				if got := r.Path.Cost(nw); !costEq(got, r.Cost) {
					t.Fatalf("%d→%d %s: path cost %v ≠ reported %v", s, d, mode, got, r.Cost)
				}
			}
			if ra.Stats.Settled > rp.Stats.Settled {
				t.Fatalf("%d→%d: astar settled %d aux nodes, plain %d", s, d, ra.Stats.Settled, rp.Stats.Settled)
			}
			rb, err := a.Route(s, d, plainBinaryOpts)
			if err != nil || math.Float64bits(rb.Cost) != math.Float64bits(ra.Cost) {
				t.Fatalf("%d→%d: plain on the binary queue %v (%v), astar %v", s, d, rb, err, ra.Cost)
			}
			if ra.Stats.Settled > rb.Stats.Settled {
				t.Fatalf("%d→%d: astar settled %d X-shore nodes, plain on the binary queue %d", s, d, ra.Stats.Settled, rb.Stats.Settled)
			}
			if ra.Stats.PhysPops < 2 || once && ra.Stats.PhysPops > n {
				t.Fatalf("%d→%d: astar physical scans = %d on %d nodes", s, d, ra.Stats.PhysPops, n)
			}
			plainWork += rp.Stats.Settled
			astarWork += ra.Stats.Settled + ra.Stats.PhysPops
			if askOracle {
				want, _, err := oracle.Solve(nw, s, d)
				if err != nil || !costEq(want, ra.Cost) {
					t.Fatalf("%d→%d: oracle %v (%v), astar %v", s, d, want, err, ra.Cost)
				}
			}
		}
	}
	return plainWork, astarWork
}

// TestDirectedDifferentialAcrossTopologies: every topology fixture ×
// every converter family, on the installed network and on a churned
// residual with failed links reached through ApplyDelta (so the physical
// bound reads the child's residual, the auxiliary search the patched
// graph).
func TestDirectedDifferentialAcrossTopologies(t *testing.T) {
	for conv, spec := range directedConvs {
		for name, nw := range directedFixtures(t, spec) {
			t.Run(conv+"/"+name, func(t *testing.T) {
				rng := rand.New(rand.NewSource(161))
				a := mustAux(t, nw)
				checkDirectedAgree(t, a, rng)
				res, changed := churnWithFailures(t, nw, rng)
				child, err := a.ApplyDelta(res, changed)
				if err != nil {
					t.Fatal(err)
				}
				checkDirectedAgree(t, child, rng)
			})
		}
	}
	// The largest tier, n=300 (the whole-stack benchmark's big_read size),
	// on seeded pairs over uniform converters: there the bound must pay
	// for itself in counts, plain settling at least 3× what astar settles
	// and scans together, on the installed network and on its residual.
	t.Run("uniform/sparse300", func(t *testing.T) {
		rng := rand.New(rand.NewSource(300))
		nw, err := workload.Build(topo.RandomSparse(300, 4, 5, rng), directedConvs["uniform"], rng)
		if err != nil {
			t.Fatal(err)
		}
		a := mustAux(t, nw)
		plain, astar := checkDirectedAgree(t, a, rng)
		res, changed := churnWithFailures(t, nw, rng)
		child, err := a.ApplyDelta(res, changed)
		if err != nil {
			t.Fatal(err)
		}
		childPlain, childAStar := checkDirectedAgree(t, child, rng)
		if plain, astar = plain+childPlain, astar+childAStar; plain < 3*astar {
			t.Fatalf("plain settled %d, astar settled+scanned %d: under 3× the work saved", plain, astar)
		}
	})
}

// TestDirectedOnTieHeavyNetworks: integer weights (zero included) make
// equal-cost optima the rule and float sums exact, so astar must return
// plain's cost bit for bit and *an* optimal path — not necessarily
// plain's — through instances with dead-end and source-less nodes.
func TestDirectedOnTieHeavyNetworks(t *testing.T) {
	rng := rand.New(rand.NewSource(1998))
	differ := 0
	for trial := 0; trial < 60; trial++ {
		a := tieHeavyAux(t, rng)
		nw := a.Network()
		n := nw.NumNodes()
		for s := 0; s < n; s++ {
			for d := 0; d < n; d++ {
				if s == d {
					continue
				}
				rp, errP := a.Route(s, d, plainOpts)
				ra, errA := a.Route(s, d, astarOpts)
				if (errP == nil) != (errA == nil) {
					t.Fatalf("trial %d %d→%d: plain %v, astar %v", trial, s, d, errP, errA)
				}
				if errP != nil {
					if errA.Error() != errP.Error() {
						t.Fatalf("trial %d %d→%d: astar blocks with %q, plain with %q", trial, s, d, errA, errP)
					}
					continue
				}
				if math.Float64bits(ra.Cost) != math.Float64bits(rp.Cost) {
					t.Fatalf("trial %d %d→%d: astar cost %v, plain %v", trial, s, d, ra.Cost, rp.Cost)
				}
				if err := ra.Path.Validate(nw, s, d); err != nil {
					t.Fatalf("trial %d %d→%d: astar path invalid: %v", trial, s, d, err)
				}
				if got := ra.Path.Cost(nw); got != rp.Cost {
					t.Fatalf("trial %d %d→%d: astar path costs %v, optimum %v", trial, s, d, got, rp.Cost)
				}
				if ra.Stats.Settled > rp.Stats.Settled {
					t.Fatalf("trial %d %d→%d: astar settled %d, plain %d", trial, s, d, ra.Stats.Settled, rp.Stats.Settled)
				}
				if fmt.Sprint(ra.Path.Hops) != fmt.Sprint(rp.Path.Hops) {
					differ++
				}
			}
		}
	}
	t.Logf("%d queries returned a different equal-cost optimum than plain", differ)
}

// TestDirectedUnderChurn replays a delta chain and checks both modes
// stay cost-identical on every intermediate Aux — the physical bound is
// read from each child's own residual, all through one shared scratch
// pool.
func TestDirectedUnderChurn(t *testing.T) {
	nw := deltaNetwork(t, 22)
	rng := rand.New(rand.NewSource(23))
	cur := mustAux(t, nw)
	residual := nw
	for step := 0; step < 6; step++ {
		res, changed := occupyResidual(t, residual, 5, rng)
		child, err := cur.ApplyDelta(res, changed)
		if err != nil {
			t.Fatal(err)
		}
		checkDirectedAgree(t, child, rng)
		cur, residual = child, res
	}
}

// TestCeilingMarginCoversRounding: on the chain 0→1→2→3 the search sums
// d* = (0.09 + 0.171875) + 0.75 = 1.0118749999999999, while X_1's key
// is 0.09 + π(1) = 0.09 + (0.171875 + 0.75) = 1.011875 (π is exact on
// the grid, so the two sums associate differently): a node on the only
// path has a key one ulp over the cost. The dive prices that path at d*
// exactly, so a ceiling of UB itself would never queue X_1 and block
// the query; UB·(1 + 2⁻³⁰) must serve it at plain's cost.
func TestCeilingMarginCoversRounding(t *testing.T) {
	nw := wdm.NewNetwork(4, 1)
	for i, w := range []float64{0.09, 0.171875, 0.75} {
		if _, err := nw.AddLink(i, i+1, []wdm.Channel{{Lambda: 0, Weight: w}}); err != nil {
			t.Fatal(err)
		}
	}
	a := mustAux(t, nw)
	rp, err := a.Route(0, 3, plainOpts)
	if err != nil {
		t.Fatal(err)
	}
	qs := a.pool.get()
	defer a.pool.put(qs)
	pot, _, _ := a.physicalBound(qs, 0, 3, nil)
	key := 0.09 + pot(int(a.xStart[1]))
	if ub, _ := a.dive(qs.bound, 0, 3, pot); ub != rp.Cost || !(key > rp.Cost) {
		t.Fatalf("fixture: the dive prices %v, d* = %v, X_1's key %v: the rounding this test needs is gone", ub, rp.Cost, key)
	}
	ra, err := a.Route(0, 3, astarOpts)
	if err != nil || math.Float64bits(ra.Cost) != math.Float64bits(rp.Cost) {
		t.Fatalf("astar %v (%v), plain %v", ra, err, rp.Cost)
	}
}

// TestDiveGivesUpOnStaleRows: rows computed once on the installed
// network and lent to queries on a loaded residual (what
// BenchmarkRouteFreshEpoch/rows=layout measures) are a valid potential
// but a stale one, and the greedy walk they steer runs into links the
// residual no longer has and around cycles. Every dive must give up
// within n−1 links or price a real path — at no less than the cost —
// and every astar answer under those rows must be plain's, bit for bit.
func TestDiveGivesUpOnStaleRows(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	nw, err := workload.Build(topo.RandomSparse(100, 4, 6, rng),
		workload.Spec{K: 8, AvailProb: 0.6, Conv: workload.ConvUniform, ConvCost: 0.5}, rng)
	if err != nil {
		t.Fatal(err)
	}
	n := nw.NumNodes()
	installed := mustAux(t, nw)
	layout := &keepRows{rows: make(map[int][]float32), build: true}
	for d := 0; d < n; d++ {
		if _, err := installed.Route((d+1)%n, d, &Options{Directed: DirectedAStar, Bound: layout}); err != nil && !errors.Is(err, ErrNoRoute) {
			t.Fatal(err)
		}
	}
	layout.build = false
	res, _ := occupyResidual(t, nw, nw.NumLinks(), rng)
	a, err := NewAuxWithLayout(nw, res)
	if err != nil {
		t.Fatal(err)
	}
	qs := a.pool.get()
	defer a.pool.put(qs)
	served, gaveUp := 0, 0
	for q := 0; q < 1500; q++ {
		s, d := rng.Intn(n), rng.Intn(n)
		if s == d {
			continue
		}
		rp, errP := a.Route(s, d, plainOpts)
		ra, errA := a.Route(s, d, &Options{Directed: DirectedAStar, Bound: layout})
		if (errP == nil) != (errA == nil) || errP == nil && math.Float64bits(ra.Cost) != math.Float64bits(rp.Cost) {
			t.Fatalf("%d→%d: astar under stale rows %v (%v), plain %v (%v)", s, d, ra, errA, rp, errP)
		}
		pot, _, from := a.physicalBound(qs, s, d, layout)
		if from != BoundRowHit || pot == nil {
			continue
		}
		ub, hops := a.dive(qs.bound, s, d, pot)
		if hops > n-1 {
			t.Fatalf("%d→%d: the dive took %d links on %d nodes", s, d, hops, n)
		}
		if errP != nil {
			continue
		}
		served++
		if graph.IsInf(ub) {
			gaveUp++
		} else if ub < rp.Cost {
			t.Fatalf("%d→%d: the dive prices %v under a cost of %v", s, d, ub, rp.Cost)
		}
	}
	// The rows must be stale enough to steer the walk wrong.
	if gaveUp*20 < served {
		t.Fatalf("the dive gave up on %d of %d served pairs: the rows are not stale enough to test anything", gaveUp, served)
	}
	t.Logf("the dive gave up on %d of %d served pairs", gaveUp, served)
}

func mustAux(t *testing.T, nw *wdm.Network) *Aux {
	t.Helper()
	a, err := NewAux(nw)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// residualTrap is the network a stale per-link minimum gets wrong. Two
// routes lead from 0 to 3: over node 1, whose last link 1→3 (link 1)
// carries λ0 at 1 and λ1 at 10, and over node 2 at 4 + 4. Free, the
// optimum is 0→1→3 on λ0 for 2; with (link 1, λ0) held it is 0→2→3 for 8.
// A bound that still believed link 1 costs 10 after the release would
// put node 1 at 11, past the detour's 8, and A* would return 8.
func residualTrap(t *testing.T) *wdm.Network {
	t.Helper()
	nw := wdm.NewNetwork(4, 2)
	for _, l := range []struct {
		from, to int
		w0, w1   float64
	}{{0, 1, 1, 1}, {1, 3, 1, 10}, {0, 2, 4, 4}, {2, 3, 4, 4}} {
		if _, err := nw.AddLink(l.from, l.to, []wdm.Channel{{Lambda: 0, Weight: l.w0}, {Lambda: 1, Weight: l.w1}}); err != nil {
			t.Fatal(err)
		}
	}
	nw.SetConverter(wdm.UniformConversion{C: 0.5})
	return nw
}

// TestPhysicalBoundReadsResidualNotBase: hold a link's cheapest channel,
// then release it. Each epoch's bound must weigh the link by what is free
// at that epoch, and the route that needs the channel must be found again
// after the release — all on one scratch pool, as the engine's delta
// chain runs it.
func TestPhysicalBoundReadsResidualNotBase(t *testing.T) {
	free := residualTrap(t)
	a0 := mustAux(t, free)
	held, err := free.PatchChannels(map[int][]wdm.Channel{1: {{Lambda: 1, Weight: 10}}})
	if err != nil {
		t.Fatal(err)
	}
	a1, err := a0.ApplyDelta(held, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	released, err := held.PatchChannels(map[int][]wdm.Channel{1: free.Link(1).Channels})
	if err != nil {
		t.Fatal(err)
	}
	a2, err := a1.ApplyDelta(released, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	for _, step := range []struct {
		name    string
		a       *Aux
		cost    float64
		via     int     // the middle node of the optimum
		piOne   float64 // π(1): link 1's cheapest free channel, capped at π(0) by the truncation
		piStart float64 // π(0)
	}{
		{"free", a0, 2, 1, 1, 2},
		{"held", a1, 8, 2, 8, 8}, // node 1 sits 10 from t, beyond s: unsettled, so π(s)
		{"released", a2, 2, 1, 1, 2},
	} {
		for _, opts := range []*Options{plainOpts, astarOpts} {
			res, err := step.a.Route(0, 3, opts)
			if err != nil {
				t.Fatalf("%s %v: %v", step.name, opts.Directed, err)
			}
			if res.Cost != step.cost {
				t.Fatalf("%s %v: cost %v, want %v", step.name, opts.Directed, res.Cost, step.cost)
			}
			if got := step.a.Network().Link(res.Path.Hops[0].Link).To; got != step.via {
				t.Fatalf("%s %v: routed over node %d, want %d", step.name, opts.Directed, got, step.via)
			}
		}
		qs := step.a.pool.get()
		pot, _, _ := step.a.physicalBound(qs, 0, 3, nil)
		if pot == nil {
			t.Fatalf("%s: physicalBound found no physical path", step.name)
		}
		// Node 1's only X-shore entries are fed by link 0; node 0 receives
		// nothing, so π(0) is read where the potential keeps it.
		if got := pot(int(step.a.xStart[1])); got != step.piOne {
			t.Fatalf("%s: π(1) = %v, want %v", step.name, got, step.piOne)
		}
		if got := qs.bound.cap; got != step.piStart {
			t.Fatalf("%s: π(0) = %v, want %v", step.name, got, step.piStart)
		}
		step.a.pool.put(qs)
	}
}

// TestPhysicalBoundIsConsistent checks the two properties A* needs, arc
// by arc on a churned residual: 0 on X_t and π(u) ≤ w + π(v) on every
// arc of G', truncation at s included. The bound must also never exceed
// the true remaining cost, read off a plain search from each node.
func TestPhysicalBoundIsConsistent(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	nw, _ := churnWithFailures(t, deltaNetwork(t, 30), rng)
	a, err := NewAuxWithLayout(deltaNetwork(t, 30), nw)
	if err != nil {
		t.Fatal(err)
	}
	checkBoundConsistent(t, a, rng, 40)
}

// checkBoundConsistent puts the backward pass's potential for random
// (s, t) pairs of a to TestPhysicalBoundIsConsistent's demands.
func checkBoundConsistent(t *testing.T, a *Aux, rng *rand.Rand, queries int) {
	t.Helper()
	n := a.nw.NumNodes()
	qs := a.pool.get()
	defer a.pool.put(qs)
	for q := 0; q < queries; q++ {
		s, d := rng.Intn(n), rng.Intn(n)
		if s == d {
			continue
		}
		pot, _, _ := a.physicalBound(qs, s, d, nil)
		if pot == nil {
			if _, err := a.Route(s, d, plainOpts); !errors.Is(err, ErrNoRoute) {
				t.Fatalf("%d→%d: bound says unreachable, plain says %v", s, d, err)
			}
			continue
		}
		for xi := range a.xLambdas[d] {
			if h := pot(int(a.xStart[d]) + xi); h != 0 {
				t.Fatalf("%d→%d: π on X_t = %v", s, d, h)
			}
		}
		for u := 0; u < a.NumAuxNodes(); u++ {
			for _, arc := range a.g.Out(u) {
				if pot(u) > arc.Weight+pot(int(arc.To)) {
					t.Fatalf("%d→%d: arc %d→%d (w %v): π %v > w + π %v", s, d, u, arc.To, arc.Weight, pot(u), pot(int(arc.To)))
				}
			}
		}
		// The labels as the pass left them: beyond π(s) they are tentative,
		// so only the capped value is a bound.
		pi := append([]float64(nil), qs.bound.pi...)
		for v := range pi {
			pi[v] = min(pi[v], qs.bound.cap)
		}
		for v := 0; v < n; v++ {
			if v == d {
				continue
			}
			// π sums a path's weights from t backward and the search from v
			// forward, so on the optimal path itself they may differ in the
			// last place.
			if res, err := a.Route(v, d, plainOpts); err == nil && pi[v] > res.Cost && !costEq(pi[v], res.Cost) {
				t.Fatalf("%d→%d: π(%d) = %v exceeds the true cost %v", s, d, v, pi[v], res.Cost)
			}
		}
	}
}

// TestSparseScratchReset drives one pooled scratch through an
// interleaved run of every search a query lands on: plain and astar
// point queries on the binary engine, which list what they write and
// reset sparsely, and a goal-less binary tree, a bucket tree and a
// Fibonacci point query, which leave the scratch dirty. After every
// search the tree must equal a fresh-scratch run node for node —
// nothing stale survives either reset (graph's TestSparseResetListsReached
// pins the touched list itself). The astar row runs under the dive's
// ceiling, as Route does.
func TestSparseScratchReset(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	nw, _ := churnWithFailures(t, deltaNetwork(t, 30), rng)
	a, err := NewAuxWithLayout(deltaNetwork(t, 30), nw)
	if err != nil {
		t.Fatal(err)
	}
	n := nw.NumNodes()
	qs := a.pool.get()
	defer a.pool.put(qs)
	searches := []struct {
		name  string
		kind  graph.QueueKind
		goals bool // a point query: stops at X_t
		astar bool // under the physical bound
	}{
		{"plain", graph.QueueBinary, true, false},
		{"astar", graph.QueueBinary, true, true},
		{"binary-tree", graph.QueueBinary, false, false},
		{"bucket-tree", graph.QueueBucket, false, false},
		{"fibonacci", graph.QueueFibonacci, true, false},
	}
	ran := make([]int, len(searches))
	for q := 0; q < 200; q++ {
		s, d := rng.Intn(n), rng.Intn(n)
		i := rng.Intn(len(searches))
		sr := searches[i]
		qs.seeds = a.sourceSeeds(qs.seeds, s)
		qs.goals = qs.goals[:0]
		for xi := range a.xLambdas[d] {
			qs.goals = append(qs.goals, int(a.xStart[d])+xi)
		}
		if s == d || len(qs.seeds) == 0 || len(qs.goals) == 0 {
			continue
		}
		var (
			goals   []int
			pot     func(int) float64
			ceiling = graph.Inf
		)
		if sr.goals {
			goals = qs.goals
		}
		if sr.astar {
			if pot, _, _ = a.physicalBound(qs, s, d, nil); pot == nil {
				continue
			}
			ub, _ := a.dive(qs.bound, s, d, pot)
			ceiling = ub * ceilingMargin
		}
		search := func(sc *graph.Scratch) *graph.ShortestPathTree {
			var tree *graph.ShortestPathTree
			var err error
			if sr.kind == graph.QueueBucket {
				tree, err = graph.BucketTreeScratch(a.g, qs.seeds, a.bucketWidth, sc, a.yPass)
			} else {
				tree, err = graph.DijkstraSeedsUntilScratch(a.g, qs.seeds, goals, sr.kind, sc, a.yPass, pot, ceiling)
			}
			if err != nil {
				t.Fatal(err)
			}
			return tree
		}
		want := search(nil)
		got := search(qs.g)
		for v := range want.Dist {
			if got.Dist[v] != want.Dist[v] || got.Parent[v] != want.Parent[v] || got.ViaArc[v] != want.ViaArc[v] {
				t.Fatalf("query %d %s (%d→%d): aux node %d is (%v,%d,%d) on the reused scratch, (%v,%d,%d) fresh",
					q, sr.name, s, d, v, got.Dist[v], got.Parent[v], got.ViaArc[v], want.Dist[v], want.Parent[v], want.ViaArc[v])
			}
		}
		if got.Settled != want.Settled || got.Relaxed != want.Relaxed {
			t.Fatalf("query %d %s (%d→%d): settled/relaxed %d/%d on the reused scratch, %d/%d fresh",
				q, sr.name, s, d, got.Settled, got.Relaxed, want.Settled, want.Relaxed)
		}
		ran[i]++
	}
	for i, c := range ran {
		if c < 15 {
			t.Fatalf("%s ran %d times of 200 queries", searches[i].name, c)
		}
	}
}

// searchSpan routes s→d on a under opts inside a private trace and
// returns the result with the query's core_search span.
func searchSpan(t *testing.T, a *Aux, s, d int, mode DirectedMode) (*Result, error, *obs.Span) {
	t.Helper()
	req := obs.StartTrace("request")
	res, err := a.Route(s, d, &Options{Queue: graph.QueueBinary, Directed: mode, Span: req.Root()})
	sp := req.Span(SpanSearch)
	if sp == nil && s != d {
		t.Fatalf("%d→%d: no %s span", s, d, SpanSearch)
	}
	return res, err, sp
}

func spanInt(t *testing.T, sp *obs.Span, key string) int64 {
	t.Helper()
	a, ok := sp.Attr(key)
	if !ok {
		t.Fatalf("span has no %q attribute", key)
	}
	return a.Int()
}

// TestBlockedCause: the backward pass separates the two ways a request
// blocks, and the early exits keep their messages.
func TestBlockedCause(t *testing.T) {
	// 0→1→2 with λ0 then λ1 and no converter; node 3 transmits nothing,
	// node 4 receives nothing; link 3 (1→2 is link 1) can be failed to cut
	// 2 off physically.
	nw := wdm.NewNetwork(5, 2)
	for _, l := range []struct {
		from, to int
		lam      wdm.Wavelength
	}{{0, 1, 0}, {1, 2, 1}, {0, 3, 0}, {4, 0, 0}} {
		if _, err := nw.AddLink(l.from, l.to, []wdm.Channel{{Lambda: l.lam, Weight: 1}}); err != nil {
			t.Fatal(err)
		}
	}
	a := mustAux(t, nw)

	_, err, sp := searchSpan(t, a, 0, 2, DirectedAStar)
	if !errors.Is(err, ErrNoRoute) {
		t.Fatalf("0→2 without conversion: %v", err)
	}
	if c, _ := sp.Attr(AttrBlockedCause); c.Str != CauseWavelength {
		t.Fatalf("0→2: blocked_cause = %q, want %q", c.Str, CauseWavelength)
	}
	if pops := spanInt(t, sp, AttrPhysPops); pops != 3 {
		t.Fatalf("0→2: phys_pops = %d, want 3 (2, 1, 0)", pops)
	}
	if spanInt(t, sp, AttrSettled) == 0 {
		t.Fatal("0→2: the auxiliary search should have run")
	}

	cut, err := nw.PatchChannels(map[int][]wdm.Channel{1: nil})
	if err != nil {
		t.Fatal(err)
	}
	child, err := a.ApplyDelta(cut, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	_, errA, sp := searchSpan(t, child, 0, 2, DirectedAStar)
	_, errP, spP := searchSpan(t, child, 0, 2, DirectedPlain)
	if !errors.Is(errA, ErrNoRoute) || errA.Error() != errP.Error() {
		t.Fatalf("0→2 with 1→2 failed: astar %v, plain %v", errA, errP)
	}
	if c, _ := sp.Attr(AttrBlockedCause); c.Str != CausePhysical {
		t.Fatalf("cut 0→2: blocked_cause = %q, want %q", c.Str, CausePhysical)
	}
	if settled, pops := spanInt(t, sp, AttrSettled), spanInt(t, sp, AttrPhysPops); settled != 0 || pops != 1 {
		t.Fatalf("cut 0→2: settled %d aux nodes after %d physical pops, want 0 after 1", settled, pops)
	}
	if _, ok := spP.Attr(AttrBlockedCause); ok {
		t.Fatal("plain runs no backward pass and must not guess a cause")
	}
	if _, ok := spP.Attr(AttrPhysPops); ok {
		t.Fatal("plain must not report physical pops")
	}

	// Early exits, identical in every mode.
	for _, mode := range []DirectedMode{DirectedPlain, DirectedAStar} {
		if res, err, _ := searchSpan(t, a, 2, 2, mode); err != nil || res.Cost != 0 || res.Path.Len() != 0 {
			t.Fatalf("%v 2→2: %+v, %v", mode, res, err)
		}
		_, err, sp := searchSpan(t, a, 3, 0, mode)
		if !errors.Is(err, ErrNoRoute) || !strings.Contains(err.Error(), "no outgoing channels at source") {
			t.Fatalf("%v 3→0: %v", mode, err)
		}
		if c, _ := sp.Attr(AttrBlockedCause); c.Str != CausePhysical {
			t.Fatalf("%v 3→0: blocked_cause = %q", mode, c.Str)
		}
		_, err, sp = searchSpan(t, a, 0, 4, mode)
		if !errors.Is(err, ErrNoRoute) || !strings.Contains(err.Error(), "no incoming channels at destination") {
			t.Fatalf("%v 0→4: %v", mode, err)
		}
		if _, ok := sp.Attr(AttrSettled); ok {
			t.Fatalf("%v 0→4: early exit ran a search", mode)
		}
	}
}

// TestAStarAllocatesNoMoreThanPlain: the bound's arrays, heap and
// potential closure live on the pooled scratch, so an astar point query
// costs no allocation beyond what the plain one pays for its Result and
// path. Best of several short runs, as in TestRouteFromMissAllocations.
func TestAStarAllocatesNoMoreThanPlain(t *testing.T) {
	nw, err := workload.Build(topo.RandomSparse(60, 4, 5, rand.New(rand.NewSource(5))),
		workload.Spec{K: 6, AvailProb: 0.7, Conv: workload.ConvUniform, ConvCost: 0.3}, rand.New(rand.NewSource(6)))
	if err != nil {
		t.Fatal(err)
	}
	a := mustAux(t, nw)
	measure := func(mode DirectedMode) float64 {
		opts := &Options{Queue: graph.QueueBinary, Directed: mode}
		best := math.Inf(1)
		for i := 0; i < 16; i++ {
			d := 1
			allocs := testing.AllocsPerRun(4, func() {
				if _, err := a.Route(0, d, opts); err != nil && !errors.Is(err, ErrNoRoute) {
					t.Fatal(err)
				}
				d = 1 + d%(nw.NumNodes()-1)
			})
			best = math.Min(best, allocs)
		}
		return best
	}
	plain, astar := measure(DirectedPlain), measure(DirectedAStar)
	if astar > plain {
		t.Fatalf("astar allocates %v objects per query, plain %v", astar, plain)
	}
}
