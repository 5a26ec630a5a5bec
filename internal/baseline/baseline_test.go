package baseline

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"lightpath/internal/core"
	"lightpath/internal/graph"
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

func TestWavelengthGraphShape(t *testing.T) {
	nw := paperNet(t)
	wg, err := NewWavelengthGraph(nw)
	if err != nil {
		t.Fatalf("NewWavelengthGraph: %v", err)
	}
	// WG always has exactly kn nodes — even for wavelengths absent from
	// every link — plus the reserved super source. That is the structural
	// difference from core's G'.
	if got := wg.g.NumNodes() - 1; got != nw.K()*nw.NumNodes() {
		t.Fatalf("|V(WG)| = %d, want %d", got, nw.K()*nw.NumNodes())
	}
	if wg.NumArcs() <= nw.TotalChannels() {
		t.Fatalf("|E(WG)| = %d should exceed the %d link arcs (conversion arcs exist)",
			wg.NumArcs(), nw.TotalChannels())
	}
}

func TestNilNetwork(t *testing.T) {
	if _, err := NewWavelengthGraph(nil); !errors.Is(err, ErrNilNetwork) {
		t.Fatalf("nil: %v", err)
	}
	if _, err := NewMatrixWavelengthGraph(nil); !errors.Is(err, ErrNilNetwork) {
		t.Fatalf("nil matrix: %v", err)
	}
}

func TestRouteErrors(t *testing.T) {
	nw := paperNet(t)
	wg, err := NewWavelengthGraph(nw)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wg.Route(-1, 0, graph.QueueLinear); !errors.Is(err, ErrNodeRange) {
		t.Fatalf("bad source: %v", err)
	}
	if _, err := wg.Route(0, 99, graph.QueueLinear); !errors.Is(err, ErrNodeRange) {
		t.Fatalf("bad dest: %v", err)
	}
	if _, err := wg.Route(6, 0, graph.QueueLinear); !errors.Is(err, ErrNoRoute) {
		t.Fatalf("no route: %v", err)
	}
	res, err := wg.Route(2, 2, graph.QueueLinear)
	if err != nil || res.Cost != 0 || res.Path.Len() != 0 {
		t.Fatalf("trivial route: %+v, %v", res, err)
	}
}

func TestRouteOnPaperExample(t *testing.T) {
	nw := paperNet(t)
	res, err := FindSemilightpath(nw, 0, 6)
	if err != nil {
		t.Fatalf("FindSemilightpath: %v", err)
	}
	if err := res.Path.Validate(nw, 0, 6); err != nil {
		t.Fatalf("invalid path: %v", err)
	}
	if got := res.Path.Cost(nw); got != res.Cost {
		t.Fatalf("reported %v, recomputed %v", res.Cost, got)
	}
}

// TestAgreesWithCore is the central E3 correctness property: on random
// instances with transitively closed conversion functions (see the
// package comment's chaining caveat) the CFZ baseline and the paper's
// algorithm return identical optimal costs, and both paths validate.
func TestAgreesWithCore(t *testing.T) {
	closedFamilies := []workload.ConvKind{
		workload.ConvUniform,  // chain of ≥2 costs ≥ 2C > C = direct
		workload.ConvDistance, // with Radius 0: chain cost ≥ direct (triangle)
		workload.ConvNone,     // no conversion arcs at all
	}
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 50; trial++ {
		tp := topo.RandomSparse(4+rng.Intn(16), 3, 5, rng)
		spec := workload.Spec{
			K:         1 + rng.Intn(6),
			AvailProb: 0.3 + 0.5*rng.Float64(),
			Conv:      closedFamilies[rng.Intn(len(closedFamilies))],
			ConvCost:  0.5,
		}
		nw, err := workload.Build(tp, spec, rng)
		if err != nil {
			t.Fatalf("Build: %v", err)
		}
		wg, err := NewWavelengthGraph(nw)
		if err != nil {
			t.Fatal(err)
		}
		aux, err := core.NewAux(nw)
		if err != nil {
			t.Fatal(err)
		}
		for q := 0; q < 5; q++ {
			s, d := rng.Intn(tp.N), rng.Intn(tp.N)
			bres, berr := wg.Route(s, d, graph.QueueLinear)
			cres, cerr := aux.Route(s, d, nil)
			if (berr == nil) != (cerr == nil) {
				t.Fatalf("trial %d (%d->%d): reachability disagrees: baseline=%v core=%v",
					trial, s, d, berr, cerr)
			}
			if berr != nil {
				continue
			}
			if math.Abs(bres.Cost-cres.Cost) > 1e-9 {
				t.Fatalf("trial %d (%d->%d): baseline cost %v != core cost %v",
					trial, s, d, bres.Cost, cres.Cost)
			}
			if s != d {
				if err := bres.Path.Validate(nw, s, d); err != nil {
					t.Fatalf("baseline path invalid: %v", err)
				}
			}
		}
	}
}

// TestQuickCostsMatch is the same agreement stated as a quick property
// over seeds.
func TestQuickCostsMatch(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tp := topo.Ring(3 + rng.Intn(8))
		nw, err := workload.Build(tp, workload.RestrictedSpec(3), rng)
		if err != nil {
			return false
		}
		b, berr := FindSemilightpath(nw, 0, tp.N-1)
		c, cerr := core.FindSemilightpath(nw, 0, tp.N-1, nil)
		if (berr == nil) != (cerr == nil) {
			return false
		}
		if berr != nil {
			return true
		}
		return math.Abs(b.Cost-c.Cost) < 1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestQueueKindsAgree: the linear-scan and heap-driven baselines give the
// same answers (the queue is an implementation detail of the bound, not
// of correctness).
func TestQueueKindsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	tp := topo.Grid(4, 5)
	nw, err := workload.Build(tp, workload.RestrictedSpec(4), rng)
	if err != nil {
		t.Fatal(err)
	}
	wg, err := NewWavelengthGraph(nw)
	if err != nil {
		t.Fatal(err)
	}
	for q := 0; q < 10; q++ {
		s, d := rng.Intn(tp.N), rng.Intn(tp.N)
		rl, el := wg.Route(s, d, graph.QueueLinear)
		rf, ef := wg.Route(s, d, graph.QueueFibonacci)
		if (el == nil) != (ef == nil) {
			t.Fatalf("reachability disagrees at (%d,%d)", s, d)
		}
		if el == nil && math.Abs(rl.Cost-rf.Cost) > 1e-9 {
			t.Fatalf("costs disagree at (%d,%d): %v vs %v", s, d, rl.Cost, rf.Cost)
		}
	}
}

// TestChainedConversionDivergence pins down the semantic caveat in the
// package comment: on a conversion table that is NOT transitively closed,
// CFZ's WG finds a chained-conversion walk strictly cheaper than the true
// Eq. (1) optimum, and the hop sequence it extracts fails validation.
// Liang & Shen's gadget construction returns the correct optimum.
func TestChainedConversionDivergence(t *testing.T) {
	// Two nodes, one link 0→1 carrying only λ3; node 0 also receives
	// nothing, so make a 3-node chain: 0 -λ1-> 1 -λ3-> 2, where at node 1
	// the direct conversion λ1→λ3 is forbidden but λ1→λ2 and λ2→λ3 are
	// both cheap. WG chains them; Eq. (1) cannot.
	nw := wdm.NewNetwork(3, 3)
	if _, err := nw.AddLink(0, 1, []wdm.Channel{{Lambda: 0, Weight: 1}}); err != nil {
		t.Fatal(err)
	}
	if _, err := nw.AddLink(1, 2, []wdm.Channel{{Lambda: 2, Weight: 1}}); err != nil {
		t.Fatal(err)
	}
	tab := wdm.NewTableConversion()
	tab.Set(1, 0, 1, 0.1) // λ1→λ2
	tab.Set(1, 1, 2, 0.1) // λ2→λ3
	// no (1, λ1→λ3) entry: direct conversion forbidden
	nw.SetConverter(tab)

	bres, berr := FindSemilightpath(nw, 0, 2)
	if berr != nil {
		t.Fatalf("baseline should find the chained walk: %v", berr)
	}
	if math.Abs(bres.Cost-2.2) > 1e-9 {
		t.Fatalf("baseline cost = %v, want 2.2 (two links + two chained conversions)", bres.Cost)
	}
	if err := bres.Path.Validate(nw, 0, 2); err == nil {
		t.Fatal("the chained-conversion hop sequence must fail Eq. (1) validation")
	}
	// The true Eq. (1) problem has NO valid semilightpath 0→2 here.
	if _, cerr := core.FindSemilightpath(nw, 0, 2, nil); !errors.Is(cerr, core.ErrNoRoute) {
		t.Fatalf("core: err = %v, want ErrNoRoute", cerr)
	}
}

// TestBaselineNeverMoreExpensive: WG solves a relaxation (chaining is
// extra freedom), so its optimum is ≤ core's on ANY instance.
func TestBaselineNeverMoreExpensive(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 40; trial++ {
		tp := topo.RandomSparse(4+rng.Intn(12), 3, 5, rng)
		spec := workload.Spec{
			K:         2 + rng.Intn(5),
			AvailProb: 0.4,
			Conv:      workload.ConvSparseTable,
			ConvCost:  0.5,
			ConvProb:  0.4,
		}
		nw, err := workload.Build(tp, spec, rng)
		if err != nil {
			t.Fatal(err)
		}
		s, d := rng.Intn(tp.N), rng.Intn(tp.N)
		bres, berr := FindSemilightpath(nw, s, d)
		cres, cerr := core.FindSemilightpath(nw, s, d, nil)
		if cerr == nil && berr != nil {
			t.Fatalf("trial %d: core reaches but relaxed baseline does not", trial)
		}
		if berr == nil && cerr == nil && bres.Cost > cres.Cost+1e-9 {
			t.Fatalf("trial %d: baseline %v > core %v", trial, bres.Cost, cres.Cost)
		}
	}
}

// TestMatrixRepresentationParity (E9): the matrix WG holds exactly the
// same finite arcs as the list WG, while occupying Θ((kn)²) cells.
func TestMatrixRepresentationParity(t *testing.T) {
	nw := paperNet(t)
	wg, err := NewWavelengthGraph(nw)
	if err != nil {
		t.Fatal(err)
	}
	mx, err := NewMatrixWavelengthGraph(nw)
	if err != nil {
		t.Fatal(err)
	}
	if mx.ArcCount() != wg.NumArcs() {
		t.Fatalf("matrix has %d arcs, list has %d", mx.ArcCount(), wg.NumArcs())
	}
	kn := nw.K() * nw.NumNodes()
	if mx.MemoryCells() != kn*kn {
		t.Fatalf("MemoryCells = %d, want %d", mx.MemoryCells(), kn*kn)
	}
	if mx.String() == "" {
		t.Fatal("empty String")
	}
}

func BenchmarkWGRepresentation(b *testing.B) {
	// E9: list vs matrix construction cost for fixed topology, growing k.
	rng := rand.New(rand.NewSource(5))
	tp := topo.Grid(5, 8) // n=40, sparse
	for _, k := range []int{4, 8, 16} {
		nw, err := workload.Build(tp, workload.Spec{K: k, K0: 3, AvailProb: 0.5}, rng)
		if err != nil {
			b.Fatal(err)
		}
		b.Run("list/k="+itoa(k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := NewWavelengthGraph(nw); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("matrix/k="+itoa(k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := NewMatrixWavelengthGraph(nw); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
