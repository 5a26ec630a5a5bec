package bench

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"time"

	"lightpath/internal/core"
	"lightpath/internal/graph"
	"lightpath/internal/topo"
	"lightpath/internal/workload"
)

// GoalTierResult is one topology tier of the goal-directed search
// benchmark: the same request stream is answered by plain goal-set
// Dijkstra, bidirectional Dijkstra and A* under the physical lower
// bound, all on the same compiled auxiliary graph. Costs are asserted identical during
// collection; what the tiers record is how much less of the graph the
// directed kernels settle and what that buys in wall-clock.
type GoalTierResult struct {
	Tier     string `json:"tier"`
	Nodes    int    `json:"nodes"`
	Links    int    `json:"links"`
	K        int    `json:"k"`
	AuxNodes int    `json:"aux_nodes"`
	AuxArcs  int    `json:"aux_arcs"`
	Requests int    `json:"requests"`
	Served   int    `json:"served"`

	PlainNsPerOp int64 `json:"plain_ns_per_op"`
	BidiNsPerOp  int64 `json:"bidi_ns_per_op"`
	AStarNsPerOp int64 `json:"astar_ns_per_op"`

	PlainSettledMean float64 `json:"plain_settled_mean"`
	BidiSettledMean  float64 `json:"bidi_settled_mean"`
	AStarSettledMean float64 `json:"astar_settled_mean"`

	// AStarPhysPopsMean is the backward bound pass's share of an astar
	// query: physical nodes popped before the auxiliary search starts.
	AStarPhysPopsMean float64 `json:"astar_phys_pops_mean"`

	// Settled-node reduction factors (plain / mode), gated ≥2 for bidi on
	// the largest tier.
	BidiSettledReduction  float64 `json:"bidi_settled_reduction"`
	AStarSettledReduction float64 `json:"astar_settled_reduction"`

	// Wall-clock speedups (plain ns / mode ns), gated ≥3 for astar on the
	// largest tier.
	BidiSpeedup  float64 `json:"bidi_speedup"`
	AStarSpeedup float64 `json:"astar_speedup"`
}

// GoalBenchResult is the machine-readable record of the goal-directed
// search benchmark (written to BENCH_goal.json by cmd/wdmbench).
type GoalBenchResult struct {
	Tiers       []GoalTierResult `json:"tiers"`
	GeneratedAt string           `json:"generated_at"`
}

// goalTierSpec names one benchmark topology tier.
type goalTierSpec struct {
	name  string
	build func(rng *rand.Rand) *topo.Topology
}

// GoalReport measures the goal-directed kernels across four topology
// tiers — NSFNET (small), random sparse n=100 (medium), n=300 (large, the
// whole-stack benchmark's big_read size) and n=1000 (xlarge, where the
// scaling shows) — and returns the machine-readable result. Every query's
// cost is cross-checked across modes during collection, so a run that
// completes is also a correctness witness.
func GoalReport(cfg Config) (*GoalBenchResult, error) {
	tiers := []goalTierSpec{
		{"nsfnet-small", func(*rand.Rand) *topo.Topology { return topo.NSFNET() }},
		{"sparse-medium-n100", func(rng *rand.Rand) *topo.Topology { return topo.RandomSparse(100, 4, 5, rng) }},
		{"sparse-large-n300", func(rng *rand.Rand) *topo.Topology { return topo.RandomSparse(300, 4, 5, rng) }},
		{"sparse-xlarge-n1000", func(rng *rand.Rand) *topo.Topology { return topo.RandomSparse(1000, 4, 5, rng) }},
	}
	out := &GoalBenchResult{GeneratedAt: time.Now().UTC().Format(time.RFC3339)}
	for _, tier := range tiers {
		r, err := goalTier(cfg, tier)
		if err != nil {
			return nil, fmt.Errorf("bench: goal tier %s: %w", tier.name, err)
		}
		out.Tiers = append(out.Tiers, *r)
	}
	return out, nil
}

func goalTier(cfg Config, tier goalTierSpec) (*GoalTierResult, error) {
	rng := rand.New(rand.NewSource(cfg.Seed + 53))
	nw, err := workload.Build(tier.build(rng), workload.Spec{
		K:         8,
		AvailProb: 0.6,
		Conv:      workload.ConvUniform,
		ConvCost:  0.3,
	}, rng)
	if err != nil {
		return nil, err
	}
	a, err := core.NewAux(nw)
	if err != nil {
		return nil, err
	}
	// Plain runs on the binary heap too, so the timing delta isolates the
	// search strategy rather than the priority structure.
	plain := &core.Options{Directed: core.DirectedPlain, Queue: graph.QueueBinary}
	bidi := &core.Options{Directed: core.DirectedBidi}
	astar := &core.Options{Directed: core.DirectedAStar}

	n := nw.NumNodes()
	requests := cfg.scaled(500)
	pairs := make([][2]int, requests)
	for i := range pairs {
		s, d := rng.Intn(n), rng.Intn(n)
		for d == s {
			d = rng.Intn(n)
		}
		pairs[i] = [2]int{s, d}
	}

	// Collection pass: settled-node counts plus the cost differential.
	// Every mode must agree on blocked/served and on cost — a benchmark
	// that measured a wrong answer would be worse than no benchmark.
	res := &GoalTierResult{
		Tier:     tier.name,
		Nodes:    n,
		Links:    nw.NumLinks(),
		K:        nw.K(),
		AuxNodes: a.NumAuxNodes(),
		AuxArcs:  a.NumAuxArcs(),
		Requests: requests,
	}
	var settledPlain, settledBidi, settledAStar, physPops int64
	for _, p := range pairs {
		rp, errP := a.Route(p[0], p[1], plain)
		rb, errB := a.Route(p[0], p[1], bidi)
		ra, errA := a.Route(p[0], p[1], astar)
		if (errP == nil) != (errB == nil) || (errP == nil) != (errA == nil) {
			return nil, fmt.Errorf("outcome disagreement %d->%d: plain=%v bidi=%v astar=%v",
				p[0], p[1], errP, errB, errA)
		}
		if errP != nil {
			if errors.Is(errP, core.ErrNoRoute) {
				continue
			}
			return nil, errP
		}
		if math.Abs(rp.Cost-rb.Cost) > 1e-7 || math.Abs(rp.Cost-ra.Cost) > 1e-7 {
			return nil, fmt.Errorf("cost disagreement %d->%d: plain=%v bidi=%v astar=%v",
				p[0], p[1], rp.Cost, rb.Cost, ra.Cost)
		}
		res.Served++
		settledPlain += int64(rp.Stats.Settled)
		settledBidi += int64(rb.Stats.Settled)
		settledAStar += int64(ra.Stats.Settled)
		physPops += int64(ra.Stats.PhysPops)
	}
	if res.Served == 0 {
		return nil, errors.New("no pair was routable")
	}
	res.PlainSettledMean = float64(settledPlain) / float64(res.Served)
	res.BidiSettledMean = float64(settledBidi) / float64(res.Served)
	res.AStarSettledMean = float64(settledAStar) / float64(res.Served)
	res.AStarPhysPopsMean = float64(physPops) / float64(res.Served)
	if res.BidiSettledMean > 0 {
		res.BidiSettledReduction = res.PlainSettledMean / res.BidiSettledMean
	}
	if res.AStarSettledMean > 0 {
		res.AStarSettledReduction = res.PlainSettledMean / res.AStarSettledMean
	}

	// Timing passes: identical request stream per mode, best repetition.
	timeMode := func(opts *core.Options) (int64, error) {
		d, err := bestRep(cfg.reps(), func() error {
			for _, p := range pairs {
				if _, err := a.Route(p[0], p[1], opts); err != nil && !errors.Is(err, core.ErrNoRoute) {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return 0, err
		}
		return d.Nanoseconds() / int64(requests), nil
	}
	if res.PlainNsPerOp, err = timeMode(plain); err != nil {
		return nil, err
	}
	if res.BidiNsPerOp, err = timeMode(bidi); err != nil {
		return nil, err
	}
	if res.AStarNsPerOp, err = timeMode(astar); err != nil {
		return nil, err
	}
	if res.BidiNsPerOp > 0 {
		res.BidiSpeedup = float64(res.PlainNsPerOp) / float64(res.BidiNsPerOp)
	}
	if res.AStarNsPerOp > 0 {
		res.AStarSpeedup = float64(res.PlainNsPerOp) / float64(res.AStarNsPerOp)
	}
	return res, nil
}

// WriteJSON records the result at path (pretty-printed, trailing
// newline) for downstream tooling.
func (r *GoalBenchResult) WriteJSON(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// RunGoal benchmarks the goal-directed search stack: settled-node
// reduction and wall-clock speedup of bidirectional Dijkstra and
// physical-bound A* over the plain goal-set search, per topology tier.
func RunGoal(w io.Writer, cfg Config) error {
	r, err := GoalReport(cfg)
	if err != nil {
		return err
	}
	t := &Table{
		Title: "Goal — goal-directed point queries vs plain Dijkstra (uncached path)",
		Note: "settled = mean aux nodes popped per served query (astar's physical pops listed apart); reduction = plain/mode; identical costs asserted per query\n" +
			"(scripts/bench_goal.sh writes this as BENCH_goal.json)",
		Headers: []string{"tier", "aux nodes", "served",
			"plain ns/op", "bidi ns/op", "astar ns/op",
			"plain settled", "bidi settled", "astar settled", "astar phys pops",
			"bidi reduction", "astar reduction"},
	}
	for _, tier := range r.Tiers {
		t.AddRow(tier.Tier, tier.AuxNodes, tier.Served,
			tier.PlainNsPerOp, tier.BidiNsPerOp, tier.AStarNsPerOp,
			fmt.Sprintf("%.0f", tier.PlainSettledMean),
			fmt.Sprintf("%.0f", tier.BidiSettledMean),
			fmt.Sprintf("%.0f", tier.AStarSettledMean),
			fmt.Sprintf("%.0f", tier.AStarPhysPopsMean),
			fmt.Sprintf("%.2fx", tier.BidiSettledReduction),
			fmt.Sprintf("%.2fx", tier.AStarSettledReduction))
	}
	t.render(w)
	return nil
}
