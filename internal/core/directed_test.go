package core

import (
	"errors"
	"math/rand"
	"testing"

	"lightpath/internal/graph"
	"lightpath/internal/topo"
	"lightpath/internal/wdm"
	"lightpath/internal/workload"
)

func TestDirectedModeString(t *testing.T) {
	cases := map[DirectedMode]string{
		DirectedPlain:   "plain",
		DirectedBidi:    "bidi",
		DirectedALT:     "alt",
		DirectedMode(9): "DirectedMode(9)",
	}
	for m, want := range cases {
		if got := m.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(m), got, want)
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

// directedFixtures is every topology generator the repo ships, each built
// into a WDM workload. The goal-directed kernels must agree with plain
// Dijkstra on all of them — this is the acceptance differential.
func directedFixtures(t *testing.T) map[string]*wdm.Network {
	t.Helper()
	rng := rand.New(rand.NewSource(2718))
	spec := workload.Spec{K: 5, AvailProb: 0.6, Conv: workload.ConvUniform, ConvCost: 0.3}
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
	nets := make(map[string]*wdm.Network, len(tops)+1)
	for name, tp := range tops {
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

// TestDirectedDifferentialAcrossTopologies routes every (s,t) pair of
// every fixture under all three modes and demands: identical
// blocked/served outcomes, identical optimal costs, and that each mode's
// returned path is a valid semilightpath of exactly the reported cost.
// (Equal-cost optima may differ as paths — cost identity is the
// contract, path identity is not.)
func TestDirectedDifferentialAcrossTopologies(t *testing.T) {
	for name, nw := range directedFixtures(t) {
		t.Run(name, func(t *testing.T) {
			a, err := NewAux(nw)
			if err != nil {
				t.Fatal(err)
			}
			lms, err := ComputeLandmarks(a, DefaultLandmarkCount)
			if err != nil {
				t.Fatal(err)
			}
			plain := &Options{Directed: DirectedPlain}
			bidi := &Options{Directed: DirectedBidi}
			alt := &Options{Directed: DirectedALT, Potential: lms}
			n := nw.NumNodes()
			for s := 0; s < n; s++ {
				for d := 0; d < n; d++ {
					if s == d {
						continue
					}
					rp, errP := a.Route(s, d, plain)
					rb, errB := a.Route(s, d, bidi)
					ra, errA := a.Route(s, d, alt)
					if (errP == nil) != (errB == nil) || (errP == nil) != (errA == nil) {
						t.Fatalf("%d→%d: outcome disagreement plain=%v bidi=%v alt=%v", s, d, errP, errB, errA)
					}
					if errP != nil {
						if !errors.Is(errB, ErrNoRoute) || !errors.Is(errA, ErrNoRoute) {
							t.Fatalf("%d→%d: blocked but not ErrNoRoute: %v / %v", s, d, errB, errA)
						}
						continue
					}
					if !costEq(rp.Cost, rb.Cost) || !costEq(rp.Cost, ra.Cost) {
						t.Fatalf("%d→%d: costs plain=%v bidi=%v alt=%v", s, d, rp.Cost, rb.Cost, ra.Cost)
					}
					for mode, r := range map[string]*Result{"plain": rp, "bidi": rb, "alt": ra} {
						if err := r.Path.Validate(nw, s, d); err != nil {
							t.Fatalf("%d→%d %s: invalid path: %v", s, d, mode, err)
						}
						if got := r.Path.Cost(nw); !costEq(got, r.Cost) {
							t.Fatalf("%d→%d %s: path cost %v ≠ reported %v", s, d, mode, got, r.Cost)
						}
					}
				}
			}
		})
	}
}

// TestDirectedALTFallsBackWithoutPotential: DirectedALT with no potential
// source (or one that declines) must transparently degrade to
// bidirectional search — same costs, no error.
func TestDirectedALTFallsBackWithoutPotential(t *testing.T) {
	nw := deltaNetwork(t, 21)
	a, err := NewAux(nw)
	if err != nil {
		t.Fatal(err)
	}
	plain := &Options{}
	alt := &Options{Directed: DirectedALT} // nil Potential
	decline := &Options{Directed: DirectedALT, Potential: decliningSource{}}
	n := nw.NumNodes()
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			if s == d {
				continue
			}
			rp, errP := a.Route(s, d, plain)
			ra, errA := a.Route(s, d, alt)
			rd, errD := a.Route(s, d, decline)
			if (errP == nil) != (errA == nil) || (errP == nil) != (errD == nil) {
				t.Fatalf("%d→%d: outcome disagreement %v / %v / %v", s, d, errP, errA, errD)
			}
			if errP == nil && (!costEq(rp.Cost, ra.Cost) || !costEq(rp.Cost, rd.Cost)) {
				t.Fatalf("%d→%d: costs %v / %v / %v", s, d, rp.Cost, ra.Cost, rd.Cost)
			}
		}
	}
}

// decliningSource always refuses the query, exercising the documented
// nil-potential degradation path.
type decliningSource struct{}

func (decliningSource) Potential(seeds, goals []int) (func(int) float64, func()) {
	return nil, nil
}

// TestDirectedUnderChurn replays a delta chain and checks the three
// modes stay cost-identical on every intermediate Aux — the reverse
// graph is COW-patched rather than recomputed, and landmarks computed on
// the CURRENT aux are used, so this also covers the patched-reverse and
// recomputed-landmark query paths end to end.
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
		lms, err := ComputeLandmarks(child, 4)
		if err != nil {
			t.Fatal(err)
		}
		plain := &Options{}
		bidi := &Options{Directed: DirectedBidi}
		alt := &Options{Directed: DirectedALT, Potential: lms}
		n := nw.NumNodes()
		for q := 0; q < 40; q++ {
			s, d := rng.Intn(n), rng.Intn(n)
			if s == d {
				continue
			}
			rp, errP := child.Route(s, d, plain)
			rb, errB := child.Route(s, d, bidi)
			ra, errA := child.Route(s, d, alt)
			if (errP == nil) != (errB == nil) || (errP == nil) != (errA == nil) {
				t.Fatalf("step %d %d→%d: outcomes %v / %v / %v", step, s, d, errP, errB, errA)
			}
			if errP == nil && (!costEq(rp.Cost, rb.Cost) || !costEq(rp.Cost, ra.Cost)) {
				t.Fatalf("step %d %d→%d: costs %v / %v / %v", step, s, d, rp.Cost, rb.Cost, ra.Cost)
			}
		}
		cur, residual = child, res
	}
}

func mustAux(t *testing.T, nw *wdm.Network) *Aux {
	t.Helper()
	a, err := NewAux(nw)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// TestComputeLandmarksShape pins the vector layout: count landmark rows,
// each with full forward and backward distance vectors over the aux
// nodes, and a landmark count clamped to the graph size.
func TestComputeLandmarksShape(t *testing.T) {
	nw := deltaNetwork(t, 24)
	a := mustAux(t, nw)
	lms, err := ComputeLandmarks(a, 6)
	if err != nil {
		t.Fatal(err)
	}
	if lms.Count() != 6 {
		t.Fatalf("Count = %d, want 6", lms.Count())
	}
	for i, l := range lms.Nodes() {
		if l < 0 || l >= a.NumAuxNodes() {
			t.Fatalf("landmark %d = %d out of node range", i, l)
		}
	}
	// Potential must never be positive at a goal (admissibility at the
	// goal set) and never negative anywhere after clamping.
	seeds := a.sourceSeeds(nil, 0)
	goals := []int{}
	for xi := range a.xLambdas[3] {
		goals = append(goals, int(a.xStart[3])+xi)
	}
	if len(seeds) == 0 || len(goals) == 0 {
		t.Skip("fixture lacks shores for 0→3")
	}
	pot, release := lms.Potential(seeds, goals)
	if pot == nil {
		t.Fatal("Landmarks.Potential declined")
	}
	defer release()
	for _, gl := range goals {
		if h := pot(gl); h != 0 {
			t.Fatalf("pot(goal %d) = %v, want 0", gl, h)
		}
	}
	for v := 0; v < a.NumAuxNodes(); v++ {
		h := pot(v)
		if !graph.Finite(h) {
			continue // Inf prune is legal
		}
		if h < 0 {
			t.Fatalf("pot(%d) = %v < 0", v, h)
		}
	}
}
