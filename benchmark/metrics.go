package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// metricDef names one metric. The names are fixed: BENCHMARK.json lists
// the same ones, and later issues refer to them.
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
}

// endToEndDefs are what a caller of the service sees, measured untraced
// against the real binary. Every one is reported on every workload.
var endToEndDefs = []metricDef{
	{"throughput_rps", "1/s", "higher"},
	{"latency_p50_us", "us", "lower"},
	{"latency_p95_us", "us", "lower"},
	{"read_p50_us", "us", "lower"},
	{"server_cpu_us_per_req", "us", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"setup_s", "s", "lower"},
}

// ungatedDefs are client-observed figures that carry no regression
// bound: latency_p99_us because two runs of the same code disagree by
// more than any bound worth setting, the mutate pair because only
// mid_churn mutates and a gated metric must be non-zero on every
// workload. They are measured with the end-to-end rounds and listed with
// the per-layer metrics.
var ungatedDefs = []metricDef{
	{"latency_p99_us", "us", "lower"},
	{"mutate_p50_us", "us", "lower"},
	{"mutate_p95_us", "us", "lower"},
}

// layerDefs are the figures of single layers: the in-process replay's,
// and the counts only real concurrency produces, read from the server.
var layerDefs = []metricDef{
	{"serve.wire_floor_us", "us", "lower"},
	{"serve.self_ns_per_req", "ns", "lower"},
	{"serve.allocs_per_req", "count", "lower"},
	{"serve.reply_bytes_per_req", "B", "lower"},
	{"obs.recorder_overhead_pct", "%", "lower"},
	{"obs.allocs_per_req", "count", "lower"},
	{"serve.exec_ns_per_req", "ns", "lower"},
	{"serve.requests_total", "count", "higher"},
	{"serve.shed_total", "count", "lower"},
	{"core.route_ns_per_op", "ns", "lower"},
	{"core.settled_per_route", "count", "lower"},
	{"core.relaxed_per_route", "count", "lower"},
	{"core.allocs_per_route", "count", "lower"},
	{"graph.sssp_ns_per_arc", "ns", "lower"},
	{"core.aux_nodes", "count", "lower"},
	{"core.aux_arcs", "count", "lower"},
	{"engine.route_ns_per_op", "ns", "lower"},
	{"engine.route_self_ns_per_op", "ns", "lower"},
	{"engine.routefrom_ns_per_op", "ns", "lower"},
	{"core.routefrom_ns_per_op", "ns", "lower"},
	{"engine.cache_hit_rate", "ratio", "higher"},
	{"engine.cache_evictions", "count", "lower"},
	{"engine.alloc_ns_per_op", "ns", "lower"},
	{"engine.release_ns_per_op", "ns", "lower"},
	{"engine.failrepair_ns_per_op", "ns", "lower"},
	{"engine.claim_publish_ns_per_epoch", "ns", "lower"},
	{"core.apply_delta_ns_per_epoch", "ns", "lower"},
	{"wdm.patch_ns_per_epoch", "ns", "lower"},
	{"engine.epochs", "count", "lower"},
	{"core.compile_ns", "ns", "lower"},
	{"engine.full_rebuild_share", "ratio", "lower"},
	{"engine.conflicts_per_alloc", "ratio", "lower"},
	{"client.latency_mean_us", "us", "lower"},
	{"client.latency_max_us", "us", "lower"},
	{"bench.timer_overhead_ns", "ns", "lower"},
	{"bench.unattributed_share", "ratio", "lower"},
}

// perLayerDefs is BENCHMARK.json's per_layer list: what a traced run
// prints.
func perLayerDefs() []metricDef {
	return append(append([]metricDef(nil), layerDefs...), ungatedDefs...)
}

// clientDefs are the figures an untraced run takes at the client, gated
// and ungated.
func clientDefs() []metricDef {
	return append(append([]metricDef(nil), endToEndDefs...), ungatedDefs...)
}

// spec is BENCHMARK.json.
type spec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadSpec(root string) (*spec, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

func (s *spec) bound(name string) float64 {
	for _, m := range s.EndToEnd {
		if m.Name == name {
			return m.Bound
		}
	}
	return 0
}

const usPerNs = 1e-3

// clientValues derives every client-observed figure of one round, gated
// and ungated alike, except setup_s, which a run samples more often than
// once per round.
func clientValues(r *round) map[string]float64 {
	all := sorted(r.lat.read, r.lat.mutate)
	mut := sorted(r.lat.mutate)
	v := map[string]float64{
		"throughput_rps":         float64(r.answered) / r.window.Seconds(),
		"latency_p50_us":         quantile(all, 0.50) * usPerNs,
		"latency_p95_us":         quantile(all, 0.95) * usPerNs,
		"latency_p99_us":         quantile(all, 0.99) * usPerNs,
		"read_p50_us":            quantile(sorted(r.lat.read), 0.50) * usPerNs,
		"mutate_p50_us":          quantile(mut, 0.50) * usPerNs,
		"mutate_p95_us":          quantile(mut, 0.95) * usPerNs,
		"peak_rss_mb":            r.peakRSSMB,
		"client.latency_mean_us": mean(all) * usPerNs,
	}
	if r.requests > 0 {
		v["server_cpu_us_per_req"] = r.cpu * 1e6 / float64(r.requests)
	}
	if len(all) > 0 {
		v["client.latency_max_us"] = float64(all[len(all)-1]) * usPerNs
	}
	return v
}

// summarizeRounds folds the rounds of an untraced run into one summary
// per client-observed metric: the median round, the spread, the count.
func summarizeRounds(rounds []*round, setups []time.Duration) map[string]summary {
	per := make([]map[string]float64, len(rounds))
	for i, r := range rounds {
		per[i] = clientValues(r)
	}
	out := make(map[string]summary)
	for _, d := range clientDefs() {
		var vals []float64
		if d.name == "setup_s" {
			for _, s := range setups {
				vals = append(vals, s.Seconds())
			}
		} else {
			for _, v := range per {
				vals = append(vals, v[d.name])
			}
		}
		out[d.name] = summarize(d.unit, vals)
	}
	return out
}
