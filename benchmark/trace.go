package main

import (
	"fmt"
	"time"

	"lightpath/internal/engine"
)

// execVerbs are the server's per-verb latency histograms the scripts
// exercise; control verbs (epoch, stats, metrics) are left out so that
// the benchmark's own probes do not dilute the mean.
var execVerbs = []string{"route", "routefrom", "batch", "alloc", "release", "fail", "repair"}

// delta is a server-side counter's growth over the timed window.
func delta(before, after serverMetrics, name string) float64 {
	return after.number(name) - before.number(name)
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// tracedRun is the per-layer half of a workload: one probe round
// against the real server for the figures only real concurrency
// produces, then the in-process replay, depth by depth.
func tracedRun(bin string, p *plan, ping time.Duration, replay int) (map[string]float64, *round, error) {
	r, err := runRound(bin, p, ping, true)
	if err != nil {
		return nil, nil, err
	}
	v := clientValues(r)

	// The server's own account of the window.
	var execN, execSum float64
	for _, verb := range execVerbs {
		name := "serve_verb_" + verb + "_latency_ns"
		b, a := r.before.histogram(name), r.after.histogram(name)
		execN += a.Count - b.Count
		execSum += a.Sum - b.Sum
	}
	allocs := r.after.histogram("serve_verb_alloc_latency_ns").Count -
		r.before.histogram("serve_verb_alloc_latency_ns").Count
	v["serve.wire_floor_us"] = float64(r.wireFloor) * usPerNs
	v["serve.exec_ns_per_req"] = ratio(execSum, execN)
	v["serve.requests_total"] = float64(r.final.requests)
	v["serve.shed_total"] = float64(r.final.shed)
	v["engine.cache_hit_rate"] = ratio(delta(r.before, r.after, "cache_hits"), delta(r.before, r.after, "cache_lookups"))
	v["engine.cache_evictions"] = delta(r.before, r.after, "cache_evictions")
	v["engine.epochs"] = delta(r.before, r.after, "engine_epoch")
	v["engine.full_rebuild_share"] = ratio(delta(r.before, r.after, "engine_full_rebuilds_total"), delta(r.before, r.after, "engine_rebuilds_total"))
	v["engine.conflicts_per_alloc"] = ratio(delta(r.before, r.after, "engine_conflicts_total"), allocs)
	meanNs := v["client.latency_mean_us"] / usPerNs
	v["bench.unattributed_share"] = ratio(meanNs-float64(r.wireFloor)-v["serve.exec_ns_per_req"], meanNs)
	v["bench.timer_overhead_ns"] = timerOverhead()

	// The replay: every depth on its own engine, chunk by chunk.
	ops, lead := replayOps(p.conn0, replay)
	recorded, err := newExecDepth(p.net, true)
	if err != nil {
		return nil, nil, err
	}
	bare, err := newExecDepth(p.net, false)
	if err != nil {
		return nil, nil, err
	}
	var engines [3]*engine.Engine
	for i := range engines {
		if engines[i], err = newEngine(p.net); err != nil {
			return nil, nil, err
		}
	}
	eng, cr, split := &engineDepth{eng: engines[0]}, &coreDepth{eng: engines[1]}, &splitDepth{eng: engines[2]}
	depths := []depth{recorded, bare, eng, cr}
	if !p.w.readOnly {
		depths = append(depths, split)
	}
	if err := replayAll(depths, ops, lead); err != nil {
		return nil, nil, err
	}
	if err := cr.probe(p.net, ops[lead:]); err != nil {
		return nil, nil, err
	}
	if recorded.exec.n == 0 {
		return nil, nil, fmt.Errorf("%s: nothing to replay", p.w.name)
	}
	engRoute := eng.route
	if !p.w.readOnly {
		// mid_churn's point searches are its allocs': the search half of
		// each is the engine-level route figure.
		engRoute = split.search
		v["engine.claim_publish_ns_per_epoch"] = split.claimPublish.perOp()
	}
	v["serve.self_ns_per_req"] = recorded.exec.perOp() - ratio(eng.total(), float64(recorded.exec.n))
	v["serve.allocs_per_req"] = recorded.allocsPerReq()
	v["serve.reply_bytes_per_req"] = ratio(float64(recorded.bytes), float64(recorded.exec.n))
	v["obs.recorder_overhead_pct"] = 100 * ratio(recorded.exec.perOp()-bare.exec.perOp(), bare.exec.perOp())
	v["obs.allocs_per_req"] = recorded.allocsPerReq() - bare.allocsPerReq()
	v["core.route_ns_per_op"] = cr.route.perOp()
	v["core.settled_per_route"] = ratio(float64(cr.settled), float64(cr.route.n))
	v["core.relaxed_per_route"] = ratio(float64(cr.relaxed), float64(cr.route.n))
	v["core.allocs_per_route"] = cr.routeAllocs
	v["graph.sssp_ns_per_arc"] = cr.ssspNsPerArc
	v["core.aux_nodes"] = float64(cr.auxNodes)
	v["core.aux_arcs"] = float64(cr.auxArcs)
	v["engine.route_ns_per_op"] = engRoute.perOp()
	v["engine.route_self_ns_per_op"] = engRoute.perOp() - cr.route.perOp()
	v["engine.routefrom_ns_per_op"] = eng.routeFrom.perOp()
	v["core.routefrom_ns_per_op"] = cr.routeFrom.perOp()
	v["engine.alloc_ns_per_op"] = eng.alloc.perOp()
	v["engine.release_ns_per_op"] = eng.release.perOp()
	v["engine.failrepair_ns_per_op"] = eng.failRepair.perOp()
	v["core.apply_delta_ns_per_epoch"] = cr.applyDelta.perOp()
	v["wdm.patch_ns_per_epoch"] = cr.patch.perOp()
	v["core.compile_ns"] = cr.compileNs
	// A metric whose operation the workload does not have stays absent
	// from v and reads as 0.
	return v, r, nil
}
