package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"sort"
	"time"

	"lightpath/internal/engine"
	"lightpath/internal/topo"
	"lightpath/internal/wdm"
	"lightpath/internal/workload"
)

// ChurnTier is the churn benchmark measured at one topology size: the
// same seeded allocate/release sequence driven through two engines over
// the same installed network — one with incremental delta maintenance
// (the default), one forced to recompile the auxiliary graph from
// scratch at every epoch (MaxDeltaDepth < 0).
type ChurnTier struct {
	Name  string `json:"name"`
	Nodes int    `json:"nodes"`
	Links int    `json:"links"`
	K     int    `json:"k"`
	// Epochs is the number of snapshot publications measured per mode
	// (allocate + release each publish one).
	Epochs int `json:"epochs"`

	// Full-compile mode: every publish pays core.NewAuxWithLayout.
	FullMeanNs       int64   `json:"full_mean_ns"`
	FullP50Ns        int64   `json:"full_p50_ns"`
	FullP99Ns        int64   `json:"full_p99_ns"`
	FullEpochsPerSec float64 `json:"full_epochs_per_sec"`

	// Delta mode: every publish after the epoch-0 compile rides
	// core.Aux.ApplyDelta on one unbroken chain — the deployed behaviour.
	DeltaMeanNs       int64   `json:"delta_mean_ns"`
	DeltaP50Ns        int64   `json:"delta_p50_ns"`
	DeltaP99Ns        int64   `json:"delta_p99_ns"`
	DeltaEpochsPerSec float64 `json:"delta_epochs_per_sec"`
	DeltaApplies      uint64  `json:"delta_applies"`
	FullRebuilds      uint64  `json:"full_rebuilds"`

	// Speedup is FullMeanNs / DeltaMeanNs — the end-to-end mutation
	// latency ratio.
	Speedup float64 `json:"speedup"`
}

// ChurnBenchResult is the machine-readable record of the churn benchmark
// (written to BENCH_churn.json by cmd/wdmbench) tracking rebuild-path
// performance across revisions.
type ChurnBenchResult struct {
	Tiers       []ChurnTier `json:"tiers"`
	GeneratedAt string      `json:"generated_at"`
}

// churnTopos are the standard sizes: the paper-era reference network
// plus the random sparse tiers the scaling experiments use.
func churnTopos(rng *rand.Rand) []struct {
	name string
	tp   *topo.Topology
	k    int
} {
	return []struct {
		name string
		tp   *topo.Topology
		k    int
	}{
		{"nsfnet-small", topo.NSFNET(), 8},
		{"sparse-medium-n100", topo.RandomSparse(100, 4, 5, rng), 8},
		{"sparse-large-n300", topo.RandomSparse(300, 4, 5, rng), 8},
	}
}

// ChurnReport measures mutation (epoch publication) latency with and
// without incremental auxiliary-graph maintenance on each tier.
func ChurnReport(cfg Config) (*ChurnBenchResult, error) {
	rng := rand.New(rand.NewSource(cfg.Seed + 67))
	result := &ChurnBenchResult{GeneratedAt: time.Now().UTC().Format(time.RFC3339)}
	ops := cfg.scaled(300)
	for _, tier := range churnTopos(rng) {
		nw, err := workload.Build(tier.tp, workload.Spec{
			K:         tier.k,
			AvailProb: 0.6,
			Conv:      workload.ConvUniform,
			ConvCost:  0.3,
		}, rng)
		if err != nil {
			return nil, fmt.Errorf("bench: build %s: %w", tier.name, err)
		}
		// One shared request sequence so both modes publish the same
		// epochs from the same occupancy trajectory.
		n := nw.NumNodes()
		pairs := make([][2]int, ops)
		for i := range pairs {
			s, d := rng.Intn(n), rng.Intn(n)
			for d == s {
				d = rng.Intn(n)
			}
			pairs[i] = [2]int{s, d}
		}

		full, _, err := churnRun(nw, pairs, &engine.Options{MaxDeltaDepth: -1})
		if err != nil {
			return nil, fmt.Errorf("bench: %s full mode: %w", tier.name, err)
		}
		delta, deltaStats, err := churnRun(nw, pairs, nil)
		if err != nil {
			return nil, fmt.Errorf("bench: %s delta mode: %w", tier.name, err)
		}

		t := ChurnTier{
			Name:         tier.name,
			Nodes:        n,
			Links:        nw.NumLinks(),
			K:            nw.K(),
			Epochs:       len(delta),
			DeltaApplies: deltaStats.DeltaApplies,
			FullRebuilds: deltaStats.FullRebuilds,
		}
		t.FullMeanNs, t.FullP50Ns, t.FullP99Ns, t.FullEpochsPerSec = latencyStats(full)
		t.DeltaMeanNs, t.DeltaP50Ns, t.DeltaP99Ns, t.DeltaEpochsPerSec = latencyStats(delta)
		if t.DeltaMeanNs > 0 {
			t.Speedup = float64(t.FullMeanNs) / float64(t.DeltaMeanNs)
		}
		result.Tiers = append(result.Tiers, t)
	}
	return result, nil
}

// churnRun drives one engine through the request sequence and returns
// the wall time of every epoch publication (the Allocate/Release calls;
// the route query is performed untimed so the numbers isolate mutation
// cost) plus the engine's final counters.
func churnRun(nw *wdm.Network, pairs [][2]int, opts *engine.Options) ([]time.Duration, engine.Stats, error) {
	e, err := engine.New(nw, opts)
	if err != nil {
		return nil, engine.Stats{}, err
	}
	lat := make([]time.Duration, 0, len(pairs)*2)
	owner := int64(0)
	for _, p := range pairs {
		res, err := e.Route(p[0], p[1])
		if err != nil {
			continue // blocked: no epoch published
		}
		owner++
		start := time.Now()
		err = e.Allocate(owner, res.Path)
		took := time.Since(start)
		if err != nil {
			owner--
			continue // conflict with own earlier state: skip
		}
		lat = append(lat, took)
		start = time.Now()
		if err := e.Release(owner); err != nil {
			return nil, engine.Stats{}, err
		}
		lat = append(lat, time.Since(start))
	}
	return lat, e.Stats(), nil
}

// latencyStats reduces a latency series to mean/p50/p99 (ns) and
// throughput (epochs/sec).
func latencyStats(lat []time.Duration) (mean, p50, p99 int64, perSec float64) {
	if len(lat) == 0 {
		return 0, 0, 0, 0
	}
	sorted := append([]time.Duration(nil), lat...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	var total time.Duration
	for _, d := range sorted {
		total += d
	}
	mean = total.Nanoseconds() / int64(len(sorted))
	p50 = sorted[len(sorted)/2].Nanoseconds()
	p99 = sorted[len(sorted)*99/100].Nanoseconds()
	if total > 0 {
		perSec = float64(len(sorted)) / total.Seconds()
	}
	return mean, p50, p99, perSec
}

// WriteJSON records the result at path (pretty-printed, trailing
// newline) for downstream tooling.
func (r *ChurnBenchResult) WriteJSON(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// RunChurn (E20) benchmarks snapshot publication under churn: full
// recompile per epoch vs incremental delta maintenance, across the
// standard topology tiers.
func RunChurn(w io.Writer, cfg Config) error {
	r, err := ChurnReport(cfg)
	if err != nil {
		return err
	}
	t := &Table{
		Title: "Engine — epoch publication: full recompile vs incremental delta",
		Note: "same seeded allocate/release sequence per tier; delta mode is one unbroken chain\n" +
			"(cmd/wdmbench -churn-json writes this as BENCH_churn.json)",
		Headers: []string{"tier", "nodes", "links", "k", "epochs",
			"full mean", "full p99", "delta mean", "delta p99", "speedup", "delta/full pubs"},
	}
	for _, tier := range r.Tiers {
		t.AddRow(tier.Name, tier.Nodes, tier.Links, tier.K, tier.Epochs,
			time.Duration(tier.FullMeanNs), time.Duration(tier.FullP99Ns),
			time.Duration(tier.DeltaMeanNs), time.Duration(tier.DeltaP99Ns),
			fmt.Sprintf("%.1fx", tier.Speedup),
			fmt.Sprintf("%d/%d", tier.DeltaApplies, tier.FullRebuilds))
	}
	t.render(w)
	return nil
}
