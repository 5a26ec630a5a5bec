package dist

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"lightpath/internal/core"
	"lightpath/internal/topo"
	"lightpath/internal/wdm"
	"lightpath/internal/workload"
)

func paperNet(t *testing.T) *wdm.Network {
	t.Helper()
	nw, err := topo.PaperExample(topo.DefaultPaperExampleSpec())
	if err != nil {
		t.Fatalf("PaperExample: %v", err)
	}
	return nw
}

func TestRouteErrors(t *testing.T) {
	nw := paperNet(t)
	if _, err := Route(nil, 0, 1); !errors.Is(err, ErrNilNetwork) {
		t.Fatalf("nil network: %v", err)
	}
	if _, err := Route(nw, -1, 1); !errors.Is(err, ErrNodeRange) {
		t.Fatalf("bad source: %v", err)
	}
	if _, err := Route(nw, 0, 9); !errors.Is(err, ErrNodeRange) {
		t.Fatalf("bad dest: %v", err)
	}
	if _, err := Route(nw, 6, 0); !errors.Is(err, ErrNoRoute) {
		t.Fatalf("unreachable: %v", err)
	}
	res, err := Route(nw, 3, 3)
	if err != nil || res.Cost != 0 || res.Path.Len() != 0 {
		t.Fatalf("trivial route: %+v %v", res, err)
	}
}

func TestRouteOnPaperExample(t *testing.T) {
	nw := paperNet(t)
	res, err := Route(nw, 0, 6)
	if err != nil {
		t.Fatalf("Route: %v", err)
	}
	if err := res.Path.Validate(nw, 0, 6); err != nil {
		t.Fatalf("invalid path: %v", err)
	}
	if got := res.Path.Cost(nw); math.Abs(got-res.Cost) > 1e-9 {
		t.Fatalf("reported %v, recomputed %v", res.Cost, got)
	}
	cres, err := core.FindSemilightpath(nw, 0, 6, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Cost-cres.Cost) > 1e-9 {
		t.Fatalf("distributed %v != centralized %v", res.Cost, cres.Cost)
	}
	if res.Stats.Messages <= 0 || res.Stats.Rounds <= 0 {
		t.Fatalf("stats not populated: %+v", res.Stats)
	}
}

// TestAgreesWithCentralized is the distributed cross-validation: on
// random instances the distributed and centralized algorithms return
// identical optimal costs and both paths validate.
func TestAgreesWithCentralized(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	for trial := 0; trial < 40; trial++ {
		tp := topo.RandomSparse(5+rng.Intn(15), 3, 5, rng)
		spec := workload.Spec{
			K:         1 + rng.Intn(5),
			AvailProb: 0.3 + 0.5*rng.Float64(),
			Conv:      workload.ConvSparseTable,
			ConvCost:  0.5,
			ConvProb:  0.6,
		}
		nw, err := workload.Build(tp, spec, rng)
		if err != nil {
			t.Fatalf("Build: %v", err)
		}
		aux, err := core.NewAux(nw)
		if err != nil {
			t.Fatal(err)
		}
		for q := 0; q < 3; q++ {
			s, d := rng.Intn(tp.N), rng.Intn(tp.N)
			dres, derr := Route(nw, s, d)
			cres, cerr := aux.Route(s, d, nil)
			if (derr == nil) != (cerr == nil) {
				t.Fatalf("trial %d (%d->%d): reachability disagrees: dist=%v core=%v",
					trial, s, d, derr, cerr)
			}
			if derr != nil {
				continue
			}
			if math.Abs(dres.Cost-cres.Cost) > 1e-9 {
				t.Fatalf("trial %d (%d->%d): dist %v != core %v", trial, s, d, dres.Cost, cres.Cost)
			}
			if s != d {
				if err := dres.Path.Validate(nw, s, d); err != nil {
					t.Fatalf("distributed path invalid: %v", err)
				}
			}
		}
	}
}

// TestTheorem3Bounds (E5): measured message and round counts stay within
// small constants of the paper's O(km) / O(kn) bounds.
func TestTheorem3Bounds(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 15; trial++ {
		n := 10 + rng.Intn(40)
		tp := topo.RandomSparse(n, 3, 5, rng)
		k := 2 + rng.Intn(4)
		nw, err := workload.Build(tp, workload.RestrictedSpec(k), rng)
		if err != nil {
			t.Fatal(err)
		}
		s, d := rng.Intn(n), rng.Intn(n)
		res, err := Route(nw, s, d)
		if errors.Is(err, ErrNoRoute) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		km := k * nw.NumLinks()
		kn := k * n
		// The km/kn bounds hold up to a modest constant; we assert 4×.
		if res.Stats.Messages > 4*km {
			t.Fatalf("trial %d: messages %d exceed 4km = %d", trial, res.Stats.Messages, 4*km)
		}
		if res.Stats.Rounds > 4*kn {
			t.Fatalf("trial %d: rounds %d exceed 4kn = %d", trial, res.Stats.Rounds, 4*kn)
		}
	}
}

// TestQuickDistMatchesCore property over seeds.
func TestQuickDistMatchesCore(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tp := topo.Ring(3 + rng.Intn(8))
		nw, err := workload.Build(tp, workload.RestrictedSpec(3), rng)
		if err != nil {
			return false
		}
		d, derr := Route(nw, 0, tp.N-1)
		c, cerr := core.FindSemilightpath(nw, 0, tp.N-1, nil)
		if (derr == nil) != (cerr == nil) {
			return false
		}
		if derr != nil {
			return true
		}
		return math.Abs(d.Cost-c.Cost) < 1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestDeterministicStats(t *testing.T) {
	nw := paperNet(t)
	first, err := Route(nw, 0, 6)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		res, err := Route(nw, 0, 6)
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats != first.Stats {
			t.Fatalf("stats changed across runs: %+v vs %+v", res.Stats, first.Stats)
		}
		if res.Cost != first.Cost {
			t.Fatalf("cost changed across runs")
		}
	}
}

func TestAllPairsAgainstCore(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	tp := topo.Grid(3, 3)
	nw, err := workload.Build(tp, workload.RestrictedSpec(3), rng)
	if err != nil {
		t.Fatal(err)
	}
	costs, stats, err := AllPairs(nw)
	if err != nil {
		t.Fatal(err)
	}
	aux, err := core.NewAux(nw)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := aux.AllPairs(nil)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < tp.N; s++ {
		for d := 0; d < tp.N; d++ {
			a, b := costs[s][d], ref.Costs[s][d]
			if math.IsInf(a, 1) != math.IsInf(b, 1) {
				t.Fatalf("(%d,%d): reachability disagrees", s, d)
			}
			if !math.IsInf(a, 1) && math.Abs(a-b) > 1e-9 {
				t.Fatalf("(%d,%d): %v != %v", s, d, a, b)
			}
		}
	}
	if stats.Messages <= 0 {
		t.Fatal("all-pairs stats empty")
	}
	if _, _, err := AllPairs(nil); !errors.Is(err, ErrNilNetwork) {
		t.Fatalf("nil: %v", err)
	}
}

func TestRuntimeValidation(t *testing.T) {
	if _, err := NewRuntime[int](2, []Wire{{From: 0, To: 5}}, nil); !errors.Is(err, ErrNodeRange) {
		t.Fatalf("bad wire: %v", err)
	}
}

// flooder is a tiny Program used to test the runtime in isolation: node
// 0 seeds a token that each node forwards once.
type flooder struct {
	visited []bool
	outs    [][]int // wires per node
}

func (f *flooder) Init(node int, send Send[int]) {
	if node != 0 {
		return
	}
	f.visited[0] = true
	for _, w := range f.outs[0] {
		send(w, 1)
	}
}

func (f *flooder) Step(node, round int, inbox []Delivery[int], send Send[int]) {
	if len(inbox) == 0 || f.visited[node] {
		return
	}
	f.visited[node] = true
	for _, w := range f.outs[node] {
		send(w, 1)
	}
}

func TestRuntimeFlood(t *testing.T) {
	// Ring of 5: 0→1→2→3→4→0.
	const n = 5
	wires := make([]Wire, n)
	outs := make([][]int, n)
	for i := 0; i < n; i++ {
		wires[i] = Wire{From: i, To: (i + 1) % n}
		outs[i] = []int{i}
	}
	f := &flooder{visited: make([]bool, n), outs: outs}
	rt, err := NewRuntime[int](n, wires, f)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := rt.Run()
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range f.visited {
		if !v {
			t.Fatalf("node %d never visited", i)
		}
	}
	// Token travels the ring once: n messages, n rounds (last delivery to
	// node 0 is consumed but not forwarded).
	if stats.Messages != n {
		t.Fatalf("messages = %d, want %d", stats.Messages, n)
	}
	if stats.Rounds != n {
		t.Fatalf("rounds = %d, want %d", stats.Rounds, n)
	}
	if stats.MaxWireLoad != 1 || stats.MaxNodeInbox != 1 {
		t.Fatalf("load stats: %+v", stats)
	}
}

// babbler sends forever; the round cap must stop it.
type babbler struct{}

func (babbler) Init(node int, send Send[int]) { send(0, 1) }
func (babbler) Step(node, round int, inbox []Delivery[int], send Send[int]) {
	for range inbox {
		send(0, 1)
	}
}

func TestRuntimeRoundCap(t *testing.T) {
	rt, err := NewRuntime[int](1, []Wire{{From: 0, To: 0}}, babbler{})
	if err != nil {
		t.Fatal(err)
	}
	rt.MaxRounds = 10
	if _, err := rt.Run(); !errors.Is(err, ErrNoQuiescence) {
		t.Fatalf("round cap: %v", err)
	}
}

// TestFig5RevisitDistributed: the distributed algorithm also finds the
// node-revisiting optimum of the Fig. 5 instance.
func TestFig5RevisitDistributed(t *testing.T) {
	nw, s, d, err := workload.RevisitInstance()
	if err != nil {
		t.Fatal(err)
	}
	res, err := Route(nw, s, d)
	if err != nil {
		t.Fatalf("Route: %v", err)
	}
	if math.Abs(res.Cost-workload.RevisitOptimalCost) > 1e-9 {
		t.Fatalf("cost = %v, want %v", res.Cost, workload.RevisitOptimalCost)
	}
	if !res.Path.RevisitsNode(nw) {
		t.Fatal("path should revisit node w")
	}
}

// recorder sends fixed messages in Init and in each Step, and records
// every inbox it is handed, copied, since an inbox is valid only during
// its Step.
type recorder struct {
	seeds   map[int][][2]int // node → (wire, msg) sends in Init, in order
	echoes  map[int][][2]int // node → (wire, msg) sends in each Step
	inboxes map[int][][]Delivery[int]
}

func (r *recorder) Init(node int, send Send[int]) {
	for _, s := range r.seeds[node] {
		send(s[0], s[1])
	}
}

func (r *recorder) Step(node, round int, inbox []Delivery[int], send Send[int]) {
	r.inboxes[node] = append(r.inboxes[node], slices.Clone(inbox))
	for _, s := range r.echoes[node] {
		send(s[0], s[1])
	}
}

// models are the runtime's two execution models, by name: the
// synchronous delay of 1 (a nil hook), and the asynchronous hook at a
// fixed delay of 0.5, so that messages sent together are due together.
func models() map[string]*asyncModel {
	return map[string]*asyncModel{
		"synchronous":  nil,
		"asynchronous": {rng: rand.New(rand.NewSource(1)), minD: 0.5, maxD: 0.5, maxMessages: 100},
	}
}

// TestRuntimeInboxOrder: messages due at one time to one node arrive as
// one inbox, sorted by wire ID and in send order within a wire, whatever
// order the senders were stepped in — under both execution models.
func TestRuntimeInboxOrder(t *testing.T) {
	for name, async := range models() {
		// Node 1 is stepped before node 2, but node 2 owns the lower wire.
		wires := []Wire{{From: 2, To: 0}, {From: 1, To: 0}}
		r := &recorder{
			seeds:   map[int][][2]int{1: {{1, 30}}, 2: {{0, 10}, {0, 20}}},
			inboxes: map[int][][]Delivery[int]{},
		}
		rt, err := NewRuntime[int](3, wires, r)
		if err != nil {
			t.Fatal(err)
		}
		rt.async = async
		if _, err := rt.Run(); err != nil {
			t.Fatal(err)
		}
		want := [][]Delivery[int]{{{Wire: 0, Msg: 10}, {Wire: 0, Msg: 20}, {Wire: 1, Msg: 30}}}
		if got := r.inboxes[0]; !slices.EqualFunc(got, want, slices.Equal) {
			t.Fatalf("%s: inboxes of node 0 = %v, want %v", name, got, want)
		}
	}
}

// TestRuntimeForeignWirePanics: a send on a wire the node does not own —
// from Init, or from a Step under either model — panics in the caller
// of Run, naming the node and the wire.
func TestRuntimeForeignWirePanics(t *testing.T) {
	panics := func(t *testing.T, rt *Runtime[int], want string) {
		t.Helper()
		defer func() {
			if p := recover(); p != want {
				t.Fatalf("recovered %v, want %q", p, want)
			}
		}()
		rt.Run()
		t.Fatal("Run returned")
	}
	r := &recorder{seeds: map[int][][2]int{1: {{0, 1}}}}
	rt, err := NewRuntime[int](3, []Wire{{From: 2, To: 0}}, r)
	if err != nil {
		t.Fatal(err)
	}
	panics(t, rt, "dist: node 1 sent on foreign wire 0")

	for name, async := range models() {
		// Node 0's Step answers on node 2's wire.
		r := &recorder{
			seeds:   map[int][][2]int{2: {{0, 1}}},
			echoes:  map[int][][2]int{0: {{0, 2}}},
			inboxes: map[int][][]Delivery[int]{},
		}
		rt, err := NewRuntime[int](3, []Wire{{From: 2, To: 0}}, r)
		if err != nil {
			t.Fatal(err)
		}
		rt.async = async
		t.Run(name, func(t *testing.T) { panics(t, rt, "dist: node 0 sent on foreign wire 0") })
	}
}

func TestRouteWithTrace(t *testing.T) {
	nw := paperNet(t)
	res, trace, err := RouteWithTrace(nw, 0, 6)
	if err != nil {
		t.Fatalf("RouteWithTrace: %v", err)
	}
	plain, err := Route(nw, 0, 6)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Cost-plain.Cost) > 1e-9 {
		t.Fatalf("traced cost %v != plain %v", res.Cost, plain.Cost)
	}
	total := 0
	for _, r := range trace.Rounds {
		total += r.Messages
	}
	if total != res.Stats.Messages {
		t.Fatalf("trace messages %d != stats %d", total, res.Stats.Messages)
	}
	if len(trace.Rounds) == 0 || trace.Rounds[0].Round != -1 {
		t.Fatalf("trace should start with init phase: %+v", trace.Rounds)
	}
	var buf strings.Builder
	trace.Fprint(&buf)
	if !strings.Contains(buf.String(), "init") {
		t.Fatalf("trace print missing init row:\n%s", buf.String())
	}

	// Error paths.
	if _, _, err := RouteWithTrace(nil, 0, 1); !errors.Is(err, ErrNilNetwork) {
		t.Fatalf("nil: %v", err)
	}
	if _, _, err := RouteWithTrace(nw, -1, 1); !errors.Is(err, ErrNodeRange) {
		t.Fatalf("bad source: %v", err)
	}
	if _, _, err := RouteWithTrace(nw, 0, 77); !errors.Is(err, ErrNodeRange) {
		t.Fatalf("bad dest: %v", err)
	}
	if res, tr, err := RouteWithTrace(nw, 2, 2); err != nil || res.Cost != 0 || len(tr.Rounds) != 0 {
		t.Fatalf("trivial: %+v %+v %v", res, tr, err)
	}
	if _, tr, err := RouteWithTrace(nw, 6, 0); !errors.Is(err, ErrNoRoute) || tr == nil {
		t.Fatalf("no route: %v %v", tr, err)
	}
}

// laddersNet is the round-cap witness: a ring 0→1→2→0 carrying every λ
// at weight 1, 3→0 on λ0 only, 2→4 on λ(k−1) only, and a one-step
// converter (cost 0.5) at node 0 alone. Every route 3→4 climbs one
// wavelength per lap of the ring, so the optimum has 3k−2 physical
// hops and costs 3k−2 + (k−1)/2: far more hops than the n = 5 nodes.
func laddersNet(t *testing.T, k int) *wdm.Network {
	t.Helper()
	nw := wdm.NewNetwork(5, k)
	all := make([]wdm.Channel, k)
	for l := range all {
		all[l] = wdm.Channel{Lambda: wdm.Wavelength(l), Weight: 1}
	}
	links := []struct {
		u, v int
		chs  []wdm.Channel
	}{
		{0, 1, all}, {1, 2, all}, {2, 0, all},
		{3, 0, all[:1]}, {2, 4, all[k-1:]},
	}
	for _, l := range links {
		if _, err := nw.AddLink(l.u, l.v, l.chs); err != nil {
			t.Fatal(err)
		}
	}
	nw.SetConverter(wdm.PerNodeConversion{Nodes: map[int]wdm.Converter{
		0: wdm.DistanceConversion{Radius: 1, PerStep: 0.5},
	}})
	return nw
}

// TestRoundCapIsTight: on the line 0→1→2 with a link 2→1 back, one λ,
// the optimum 0→2 reaches node 2 at round 1, whose announcement on 2→1
// is delivered at round 2, so the run takes Σ_v |Λ_in(v)| + 1 = 3
// rounds: exactly the cap.
func TestRoundCapIsTight(t *testing.T) {
	nw := wdm.NewNetwork(3, 1)
	for _, l := range [][2]int{{0, 1}, {1, 2}, {2, 1}} {
		if _, err := nw.AddLink(l[0], l[1], []wdm.Channel{{Lambda: 0, Weight: 1}}); err != nil {
			t.Fatal(err)
		}
	}
	res, err := Route(nw, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost != 2 || res.Stats.Rounds != 3 {
		t.Fatalf("cost %v in %d rounds, want 2 in 3", res.Cost, res.Stats.Rounds)
	}
}

// TestRoundCapWitness: an optimum with more physical hops than any
// multiple of n is still found. Synchronous rounds equal its hops, which
// stay within the cap of Σ_v |Λ_in(v)| + 1 rounds.
func TestRoundCapWitness(t *testing.T) {
	for _, k := range []int{16, 32} {
		nw := laddersNet(t, k)
		hops := 3*k - 2
		want := float64(hops) + float64(k-1)/2
		budget := 1
		for v := 0; v < nw.NumNodes(); v++ {
			budget += len(nw.LambdaIn(v))
		}
		t.Run(fmt.Sprintf("k=%d/Route", k), func(t *testing.T) {
			res, err := Route(nw, 3, 4)
			if err != nil {
				t.Fatal(err)
			}
			if res.Cost != want || len(res.Path.Hops) != hops {
				t.Fatalf("cost %v in %d hops, want %v in %d", res.Cost, len(res.Path.Hops), want, hops)
			}
			if err := res.Path.Validate(nw, 3, 4); err != nil {
				t.Fatal(err)
			}
			if res.Stats.Rounds != hops || res.Stats.Rounds > budget {
				t.Fatalf("%d rounds, want %d (cap %d)", res.Stats.Rounds, hops, budget)
			}
		})
		t.Run(fmt.Sprintf("k=%d/AllPairsPipelined", k), func(t *testing.T) {
			costs, stats, err := AllPairsPipelined(nw)
			if err != nil {
				t.Fatal(err)
			}
			if costs[3][4] != want || stats.Rounds > budget {
				t.Fatalf("cost %v in %d rounds, want %v within %d", costs[3][4], stats.Rounds, want, budget)
			}
		})
	}
}
