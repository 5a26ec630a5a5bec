package bench

import (
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"time"

	"lightpath/internal/baseline"
	"lightpath/internal/core"
	"lightpath/internal/dist"
	"lightpath/internal/graph"
	"lightpath/internal/topo"
	"lightpath/internal/wdm"
	"lightpath/internal/workload"
)

// Config tunes experiment scale so both `go test` (small) and the
// wdmbench binary (full) can drive the same code.
type Config struct {
	// Seed makes instance generation reproducible.
	Seed int64
	// Scale multiplies sweep sizes; 1 is the full published sweep,
	// smaller fractions shrink it. Must be > 0.
	Scale float64
	// Reps is the per-point timing repetition count (median is kept).
	Reps int
}

// DefaultConfig is the full-size configuration the wdmbench binary uses.
func DefaultConfig() Config { return Config{Seed: 1998, Scale: 1, Reps: 3} }

func (c Config) scaled(n int) int {
	s := int(float64(n) * c.Scale)
	if s < 4 {
		s = 4
	}
	return s
}

func (c Config) reps() int {
	if c.Reps < 1 {
		return 1
	}
	return c.Reps
}

// Experiment names accepted by Run.
var Names = []string{
	"example", "scaling-n", "scaling-k", "compare", "k-independence",
	"distributed", "revisit", "all-pairs", "observations", "representation",
	"heap-ablation", "session", "async", "k-shortest", "rwa-compare", "placement", "wavelength-requirement",
}

// Run dispatches one named experiment to w.
func Run(name string, w io.Writer, cfg Config) error {
	switch name {
	case "example":
		return RunExample(w)
	case "scaling-n":
		return RunScalingN(w, cfg)
	case "scaling-k":
		return RunScalingK(w, cfg)
	case "compare":
		return RunComparison(w, cfg)
	case "k-independence":
		return RunKIndependence(w, cfg)
	case "distributed":
		return RunDistributed(w, cfg)
	case "revisit":
		return RunRevisit(w)
	case "all-pairs":
		return RunAllPairs(w, cfg)
	case "observations":
		return RunObservations(w, cfg)
	case "representation":
		return RunRepresentation(w, cfg)
	case "heap-ablation":
		return RunHeapAblation(w, cfg)
	case "session":
		return RunSession(w, cfg)
	case "async":
		return RunAsync(w, cfg)
	case "k-shortest":
		return RunKShortest(w, cfg)
	case "rwa-compare":
		return RunRWACompare(w, cfg)
	case "placement":
		return RunPlacement(w, cfg)
	case "wavelength-requirement":
		return RunWavelengthRequirement(w, cfg)
	default:
		return fmt.Errorf("bench: unknown experiment %q (have %v)", name, Names)
	}
}

// RunAll executes every experiment in order.
func RunAll(w io.Writer, cfg Config) error {
	for _, name := range Names {
		if err := Run(name, w, cfg); err != nil {
			return fmt.Errorf("experiment %s: %w", name, err)
		}
	}
	return nil
}

// RunExample (E1) rebuilds the paper's Figs. 1–4 example and prints the
// shore sets, the G_3 gadget, the construction sizes and a sample route.
func RunExample(w io.Writer) error {
	nw, err := topo.PaperExample(topo.DefaultPaperExampleSpec())
	if err != nil {
		return err
	}
	aux, err := core.NewAux(nw)
	if err != nil {
		return err
	}

	shores := &Table{
		Title:   "E1 — Fig. 2 wavelength shores of the paper example",
		Note:    "paper numbering: node i = our i−1, λj = our j−1; Λ(⟨2,7⟩) read as {λ1,λ2} (see DESIGN.md erratum 2)",
		Headers: []string{"node", "Λ_in(G_M,v)", "Λ_out(G_M,v)"},
	}
	for v := 0; v < nw.NumNodes(); v++ {
		shores.AddRow(v+1, fmtLambdas(aux.XShore(v)), fmtLambdas(aux.YShore(v)))
	}
	shores.render(w)

	gadget := &Table{
		Title:   "E1 — Fig. 3 gadget G_3 (conversion arcs at paper node 3)",
		Note:    "λ2→λ3 is absent: the forbidden conversion of Fig. 3",
		Headers: []string{"from", "to", "cost"},
	}
	for _, c := range aux.GadgetArcs(2) {
		gadget.AddRow(fmt.Sprintf("λ%d", c.From+1), fmt.Sprintf("λ%d", c.To+1), c.Cost)
	}
	gadget.render(w)

	sizes := &Table{
		Title:   "E1 — construction sizes vs Observation bounds",
		Headers: []string{"quantity", "measured", "bound", "formula"},
	}
	st := aux.Stats()
	sizes.AddRow("|E_M|", st.MultigraphArc, st.K*st.Links, "km")
	sizes.AddRow("|V'|", st.AuxNodes, st.BoundAuxNodesGeneral(), "2kn")
	sizes.AddRow("|E'|", st.AuxArcs(), st.BoundAuxArcsGeneral(), "k²n+km")
	sizes.render(w)

	route := &Table{
		Title:   "E1 — optimal semilightpaths on the example (link weight 10, conversion 1)",
		Headers: []string{"query", "cost", "path", "conversions"},
	}
	for _, q := range [][2]int{{0, 6}, {3, 6}, {4, 0}} {
		res, err := aux.Route(q[0], q[1], nil)
		if err != nil {
			return err
		}
		route.AddRow(fmt.Sprintf("%d→%d", q[0]+1, q[1]+1), res.Cost,
			res.Path.String(nw), len(res.Path.Conversions(nw)))
	}
	route.render(w)
	return nil
}

func fmtLambdas(ls []wdm.Wavelength) string {
	if len(ls) == 0 {
		return "∅"
	}
	s := "{"
	for i, l := range ls {
		if i > 0 {
			s += ","
		}
		s += fmt.Sprintf("λ%d", l+1)
	}
	return s + "}"
}

// RunScalingN (E2) measures the core algorithm's runtime as n grows on
// sparse graphs with k fixed — the paper's O(k²n + km + kn·log(kn))
// should look near-linear (n·log n) here.
func RunScalingN(w io.Writer, cfg Config) error {
	rng := rand.New(rand.NewSource(cfg.Seed))
	t := &Table{
		Title:   "E2 — Theorem 1 scaling in n (sparse m=O(n), k=8, d≤5)",
		Note:    "time(2n)/time(n) should stay near 2 (linear·log), far from 4 (quadratic)",
		Headers: []string{"n", "m", "|V'|", "|E'|", "median time", "ratio vs prev"},
	}
	sizes := []int{250, 500, 1000, 2000, 4000}
	var prev time.Duration
	for _, rawN := range sizes {
		n := cfg.scaled(rawN)
		tp := topo.RandomSparse(n, 4, 5, rng)
		nw, err := workload.Build(tp, workload.RestrictedSpec(8), rng)
		if err != nil {
			return err
		}
		var st core.BuildStats
		dur := medianDuration(cfg.reps(), func() {
			aux, err := core.NewAux(nw)
			if err != nil {
				panic(err)
			}
			st = aux.Stats()
			if _, err := aux.Route(0, n/2, nil); err != nil && !errors.Is(err, core.ErrNoRoute) {
				panic(err)
			}
		})
		ratio := "-"
		if prev > 0 {
			ratio = fmt.Sprintf("%.2f", float64(dur)/float64(prev))
		}
		t.AddRow(n, tp.M(), st.AuxNodes, st.AuxArcs(), dur, ratio)
		prev = dur
	}
	t.render(w)
	return nil
}

// RunScalingK (E2b) fixes n and grows k to expose the k²n regime of the
// construction.
func RunScalingK(w io.Writer, cfg Config) error {
	rng := rand.New(rand.NewSource(cfg.Seed + 1))
	t := &Table{
		Title:   "E2 — Theorem 1 scaling in k (n=500 sparse, unbounded Λ(e))",
		Note:    "with Λ(e) dense in Λ the k²n gadget term dominates: expect ~4× per k doubling",
		Headers: []string{"k", "|V'|", "|E'|", "median time", "ratio vs prev"},
	}
	n := cfg.scaled(500)
	tp := topo.RandomSparse(n, 4, 5, rng)
	var prev time.Duration
	for _, k := range []int{2, 4, 8, 16, 32} {
		nw, err := workload.Build(tp, workload.Spec{K: k, AvailProb: 0.8, Conv: workload.ConvUniform, ConvCost: 0.5}, rng)
		if err != nil {
			return err
		}
		var st core.BuildStats
		dur := medianDuration(cfg.reps(), func() {
			aux, err := core.NewAux(nw)
			if err != nil {
				panic(err)
			}
			st = aux.Stats()
			if _, err := aux.Route(0, n/2, nil); err != nil && !errors.Is(err, core.ErrNoRoute) {
				panic(err)
			}
		})
		ratio := "-"
		if prev > 0 {
			ratio = fmt.Sprintf("%.2f", float64(dur)/float64(prev))
		}
		t.AddRow(k, st.AuxNodes, st.AuxArcs(), dur, ratio)
		prev = dur
	}
	t.render(w)
	return nil
}

// RunComparison (E3) is the head-to-head of Sec. III-C: the paper's
// algorithm vs the CFZ baseline on sparse graphs with k = ⌈log2 n⌉. The
// paper claims an Ω(n/max{k,d,log n}) speedup; the measured speedup
// series should grow roughly like n/log n.
func RunComparison(w io.Writer, cfg Config) error {
	rng := rand.New(rand.NewSource(cfg.Seed + 2))
	t := &Table{
		Title:   "E3 — Sec. III-C: this paper vs Chlamtac–Faragó–Zhang (m=O(n), k=⌈log2 n⌉)",
		Note:    "speedup should grow with n (paper: Ω(n/log n) when k,d = O(log n))",
		Headers: []string{"n", "k", "ours", "CFZ (linear-scan WG)", "speedup", "n/log2(n)"},
	}
	for _, rawN := range []int{100, 200, 400, 800, 1600} {
		n := cfg.scaled(rawN)
		k := int(math.Ceil(math.Log2(float64(n))))
		tp := topo.RandomSparse(n, 4, 5, rng)
		nw, err := workload.Build(tp, workload.Spec{K: k, AvailProb: 0.6, Conv: workload.ConvUniform, ConvCost: 0.5}, rng)
		if err != nil {
			return err
		}
		s, d := 0, n/2
		ours := medianDuration(cfg.reps(), func() {
			if _, err := core.FindSemilightpath(nw, s, d, nil); err != nil && !errors.Is(err, core.ErrNoRoute) {
				panic(err)
			}
		})
		theirs := medianDuration(cfg.reps(), func() {
			if _, err := baseline.FindSemilightpath(nw, s, d); err != nil && !errors.Is(err, baseline.ErrNoRoute) {
				panic(err)
			}
		})
		t.AddRow(n, k, ours, theirs,
			fmt.Sprintf("%.1fx", float64(theirs)/float64(ours)),
			fmt.Sprintf("%.0f", float64(n)/math.Log2(float64(n))))
	}
	t.render(w)
	return nil
}

// RunKIndependence (E4) demonstrates Theorem 4: with |Λ(e)| ≤ k0 fixed,
// the core algorithm's runtime is flat in the total wavelength count k,
// while CFZ's grows.
func RunKIndependence(w io.Writer, cfg Config) error {
	rng := rand.New(rand.NewSource(cfg.Seed + 3))
	t := &Table{
		Title:   "E4 — Theorem 4: k-independence with k0=4 (n=400 sparse)",
		Note:    "ours should stay flat as k grows 64×; CFZ pays for all kn wavelength-graph nodes",
		Headers: []string{"k", "|V'| ours", "ours", "|V(WG)| CFZ", "CFZ"},
	}
	n := cfg.scaled(400)
	tp := topo.RandomSparse(n, 4, 5, rng)
	for _, k := range []int{8, 32, 128, 512} {
		nw, err := workload.Build(tp, workload.Spec{K: k, K0: 4, AvailProb: 0.8, Conv: workload.ConvUniform, ConvCost: 0.5}, rng)
		if err != nil {
			return err
		}
		s, d := 0, n/2
		var st core.BuildStats
		ours := medianDuration(cfg.reps(), func() {
			aux, err := core.NewAux(nw)
			if err != nil {
				panic(err)
			}
			st = aux.Stats()
			if _, err := aux.Route(s, d, nil); err != nil && !errors.Is(err, core.ErrNoRoute) {
				panic(err)
			}
		})
		theirs := medianDuration(cfg.reps(), func() {
			if _, err := baseline.FindSemilightpath(nw, s, d); err != nil && !errors.Is(err, baseline.ErrNoRoute) {
				panic(err)
			}
		})
		t.AddRow(k, st.AuxNodes, ours, k*n, theirs)
	}
	t.render(w)
	return nil
}

// RunDistributed (E5) measures the distributed algorithm's messages and
// rounds against the O(km)/O(kn) claims of Theorem 3 and the
// O(mk0)/O(nk0) claims of Theorem 5.
func RunDistributed(w io.Writer, cfg Config) error {
	rng := rand.New(rand.NewSource(cfg.Seed + 4))
	t := &Table{
		Title:   "E5 — Theorems 3/5: distributed messages and rounds",
		Note:    "msgs/km and rounds/kn (or /mk0, /nk0 when k0-bounded) should be small constants",
		Headers: []string{"n", "m", "k", "k0", "messages", "bound", "msgs/bound", "rounds", "rounds/n"},
	}
	type pt struct{ n, k, k0 int }
	points := []pt{
		{100, 4, 0}, {200, 4, 0}, {400, 4, 0},
		{200, 8, 0}, {200, 16, 0},
		{200, 64, 3}, {200, 256, 3},
	}
	for _, p := range points {
		n := cfg.scaled(p.n)
		tp := topo.RandomSparse(n, 4, 5, rng)
		spec := workload.Spec{K: p.k, K0: p.k0, AvailProb: 0.6, Conv: workload.ConvUniform, ConvCost: 0.5}
		nw, err := workload.Build(tp, spec, rng)
		if err != nil {
			return err
		}
		res, err := dist.Route(nw, 0, n/2)
		if errors.Is(err, dist.ErrNoRoute) {
			continue
		}
		if err != nil {
			return err
		}
		bound := p.k * nw.NumLinks()
		if p.k0 > 0 {
			bound = p.k0 * nw.NumLinks()
		}
		t.AddRow(n, nw.NumLinks(), p.k, p.k0, res.Stats.Messages, bound,
			fmt.Sprintf("%.2f", float64(res.Stats.Messages)/float64(bound)),
			res.Stats.Rounds,
			fmt.Sprintf("%.2f", float64(res.Stats.Rounds)/float64(n)))
	}
	t.render(w)
	return nil
}

// RunRevisit (E6) prints the Fig. 5/6 scenario: the crafted instance
// whose optimum revisits a node, and a sweep confirming Theorem 2's
// loop-freedom under the restrictions.
func RunRevisit(w io.Writer) error {
	nw, s, d, err := workload.RevisitInstance()
	if err != nil {
		return err
	}
	res, err := core.FindSemilightpath(nw, s, d, nil)
	if err != nil {
		return err
	}
	t := &Table{
		Title:   "E6 — Fig. 5 scenario: optimum revisits a node (Restriction 1 violated)",
		Headers: []string{"quantity", "value"},
	}
	t.AddRow("instance", "4 nodes, 3 wavelengths, λ1→λ3 conversion missing at w")
	t.AddRow("optimal cost", res.Cost)
	t.AddRow("path", res.Path.String(nw))
	t.AddRow("revisits a node", res.Path.RevisitsNode(nw))
	t.AddRow("conversions", len(res.Path.Conversions(nw)))
	t.render(w)

	rng := rand.New(rand.NewSource(2))
	trials, revisits := 0, 0
	for i := 0; i < 200; i++ {
		tp := topo.RandomSparse(12, 3, 5, rng)
		rnw, err := workload.Build(tp, workload.RestrictedSpec(4), rng)
		if err != nil {
			return err
		}
		rres, err := core.FindSemilightpath(rnw, rng.Intn(12), rng.Intn(12), nil)
		if err != nil {
			continue
		}
		trials++
		if rres.Path.Len() > 0 && rres.Path.RevisitsNode(rnw) {
			revisits++
		}
	}
	t2 := &Table{
		Title:   "E6 — Theorem 2: loop-freedom under Restrictions 1+2",
		Headers: []string{"random optima examined", "with node revisits (must be 0)"},
	}
	t2.AddRow(trials, revisits)
	t2.render(w)
	return nil
}

// RunAllPairs (E7) exercises Corollary 1/2: all-pairs costs and timing,
// centralized and distributed, cross-checked for equality.
func RunAllPairs(w io.Writer, cfg Config) error {
	rng := rand.New(rand.NewSource(cfg.Seed + 5))
	t := &Table{
		Title:   "E7 — Corollaries 1/2: all-pairs optimal semilightpaths",
		Headers: []string{"n", "k", "centralized time", "distributed msgs", "cost matrices equal"},
	}
	for _, rawN := range []int{20, 40, 80} {
		n := cfg.scaled(rawN) / 2
		if n < 4 {
			n = 4
		}
		tp := topo.RandomSparse(n, 3, 5, rng)
		nw, err := workload.Build(tp, workload.RestrictedSpec(4), rng)
		if err != nil {
			return err
		}
		aux, err := core.NewAux(nw)
		if err != nil {
			return err
		}
		var ref *core.AllPairsResult
		dur := medianDuration(cfg.reps(), func() {
			ref, err = aux.AllPairs(nil)
			if err != nil {
				panic(err)
			}
		})
		costs, stats, err := dist.AllPairs(nw)
		if err != nil {
			return err
		}
		equal := true
		for s := 0; s < n && equal; s++ {
			for d := 0; d < n; d++ {
				a, b := costs[s][d], ref.Costs[s][d]
				if math.IsInf(a, 1) != math.IsInf(b, 1) || (!math.IsInf(a, 1) && math.Abs(a-b) > 1e-9) {
					equal = false
					break
				}
			}
		}
		t.AddRow(n, 4, dur, stats.Messages, equal)
	}
	t.render(w)
	return nil
}

// RunObservations (E8) sweeps random instances and reports measured
// auxiliary sizes against every Observation bound.
func RunObservations(w io.Writer, cfg Config) error {
	rng := rand.New(rand.NewSource(cfg.Seed + 6))
	t := &Table{
		Title:   "E8 — Observations 1/2/4/5: measured sizes vs bounds",
		Note:    "util = measured/bound; all rows must satisfy util ≤ 1 (2mk0 is the corrected bound, see DESIGN.md)",
		Headers: []string{"n", "m", "k", "k0", "d", "|V'|", "/2kn", "/2mk0", "|E'|", "/(k²n+km)"},
	}
	for _, p := range []struct{ n, k, k0 int }{
		{50, 4, 0}, {100, 8, 0}, {100, 16, 4}, {200, 32, 3}, {400, 8, 2},
	} {
		n := cfg.scaled(p.n)
		tp := topo.RandomSparse(n, 4, 6, rng)
		nw, err := workload.Build(tp, workload.Spec{K: p.k, K0: p.k0, AvailProb: 0.6}, rng)
		if err != nil {
			return err
		}
		aux, err := core.NewAux(nw)
		if err != nil {
			return err
		}
		st := aux.Stats()
		if err := st.CheckObservationBounds(); err != nil {
			return err
		}
		t.AddRow(st.Nodes, st.Links, st.K, st.K0, st.MaxDegree, st.AuxNodes,
			fmt.Sprintf("%.2f", float64(st.AuxNodes)/float64(st.BoundAuxNodesGeneral())),
			fmt.Sprintf("%.2f", float64(st.AuxNodes)/float64(st.BoundAuxNodesRestricted())),
			st.AuxArcs(),
			fmt.Sprintf("%.2f", float64(st.AuxArcs())/float64(st.BoundAuxArcsGeneral())))
	}
	t.render(w)
	return nil
}

// RunRepresentation (E9) demonstrates the CFZ adjacency-matrix erratum:
// matrix initialization is Θ(k²n²) while the list build stays near-linear
// in the graph size.
func RunRepresentation(w io.Writer, cfg Config) error {
	rng := rand.New(rand.NewSource(cfg.Seed + 7))
	t := &Table{
		Title:   "E9 — Sec. I erratum: WG as adjacency lists vs adjacency matrix",
		Note:    "matrix cells = (kn)²; its build time explodes while the list build tracks |E(WG)|",
		Headers: []string{"n", "k", "|V(WG)|", "|E(WG)|", "list build", "matrix cells", "matrix build"},
	}
	n := cfg.scaled(120)
	tp := topo.RandomSparse(n, 4, 5, rng)
	for _, k := range []int{4, 8, 16, 32} {
		nw, err := workload.Build(tp, workload.Spec{K: k, K0: 3, AvailProb: 0.6, Conv: workload.ConvUniform, ConvCost: 0.5}, rng)
		if err != nil {
			return err
		}
		var wgArcs int
		listT := medianDuration(cfg.reps(), func() {
			wg, err := baseline.NewWavelengthGraph(nw)
			if err != nil {
				panic(err)
			}
			wgArcs = wg.NumArcs()
		})
		var cells int
		matT := medianDuration(cfg.reps(), func() {
			mx, err := baseline.NewMatrixWavelengthGraph(nw)
			if err != nil {
				panic(err)
			}
			cells = mx.MemoryCells()
		})
		t.AddRow(n, k, k*n, wgArcs, listT, cells, matT)
	}
	t.render(w)
	return nil
}

// RunHeapAblation measures the same core queries under each queue
// structure — the design-choice ablation DESIGN.md calls out: a point
// query (route), which stops at its goal, and a full single-source tree
// (tree), which has none. The bucket queue exists for the second; under
// it a point query runs the binary heap, so its route cells repeat
// binary's.
func RunHeapAblation(w io.Writer, cfg Config) error {
	rng := rand.New(rand.NewSource(cfg.Seed + 8))
	kinds := []graph.QueueKind{
		graph.QueueFibonacci, graph.QueueBinary, graph.QueueLinear, graph.QueueBucket,
	}
	t := &Table{
		Title:   "Ablation — queue choice inside the core algorithm (k=8)",
		Note:    "Fibonacci carries the Theorem 1 bound; binary usually wins a point query; linear is the CFZ-era structure; bucket serves goal-less trees (its route cells are the binary heap)",
		Headers: []string{"queue"},
	}
	rows := make([][]any, len(kinds))
	for i, kind := range kinds {
		rows[i] = []any{kind.String()}
	}
	for _, rawN := range []int{200, 800, 3200} {
		n := cfg.scaled(rawN)
		t.Headers = append(t.Headers, fmt.Sprintf("route n=%d", n), fmt.Sprintf("tree n=%d", n))
		tp := topo.RandomSparse(n, 4, 5, rng)
		nw, err := workload.Build(tp, workload.RestrictedSpec(8), rng)
		if err != nil {
			return err
		}
		aux, err := core.NewAux(nw)
		if err != nil {
			return err
		}
		for i, kind := range kinds {
			opts := &core.Options{Queue: kind}
			route := medianDuration(cfg.reps(), func() {
				if _, err := aux.Route(0, n/2, opts); err != nil && !errors.Is(err, core.ErrNoRoute) {
					panic(err)
				}
			})
			tree := medianDuration(cfg.reps(), func() {
				if _, err := aux.RouteFrom(0, opts); err != nil {
					panic(err)
				}
			})
			rows[i] = append(rows[i], route, tree)
		}
	}
	for _, row := range rows {
		t.AddRow(row...)
	}
	t.render(w)
	return nil
}
