package main

import (
	"errors"
	"fmt"
	"runtime"
	"time"

	"lightpath/internal/core"
	"lightpath/internal/engine"
	"lightpath/internal/graph"
	"lightpath/internal/obs"
	"lightpath/internal/serve"
	"lightpath/internal/wdm"
)

// The per-layer replay runs a prefix of connection 0's script in this
// process, on one goroutine, once per depth of the stack, each depth on
// its own freshly built engine so that every depth sees the same
// operations on the same state trajectory. Only calls into public
// functions are timed, from outside, with monotonic clock pairs
// accumulated in memory. A layer's self time is its figure minus the
// figure one depth down.
//
// The depths advance through the script together, a chunk at a time: a
// self time is a difference of two large figures, and on a box whose
// speed drifts by the second two passes run one after the other would
// differ by more than the layer between them costs.

// replayChunk is how many operations one depth executes before the next
// depth takes the same ones.
const replayChunk = 64

// depth is one level of the stack replaying the script on its own
// engine. Untimed chunks (mid_churn's warm-up) only advance the state.
type depth interface {
	run(ops []op, timed bool) error
}

// replayAll advances every depth through ops chunk by chunk. The first
// lead operations are untimed.
func replayAll(depths []depth, ops []op, lead int) error {
	for start := 0; start < len(ops); {
		end := start + replayChunk
		if start < lead && end > lead {
			end = lead
		}
		if end > len(ops) {
			end = len(ops)
		}
		for _, d := range depths {
			if err := d.run(ops[start:end], start >= lead); err != nil {
				return err
			}
		}
		start = end
	}
	return nil
}

// tally accumulates the clock pairs of one kind of call.
type tally struct {
	n  int
	ns int64
}

func (t *tally) add(d time.Duration) { t.n++; t.ns += int64(d) }

func (t *tally) perOp() float64 { return ratio(float64(t.ns), float64(t.n)) }

// mallocs reads the process's cumulative heap allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// countingWriter discards what it is given and counts it.
type countingWriter struct{ n int64 }

func (w *countingWriter) Write(p []byte) (int, error) { w.n += int64(len(p)); return len(p), nil }

// replayOps is the part of connection 0's script the replay executes:
// the untimed lead-in (mid_churn's warm-up, executed but not timed) and
// the first n timed operations.
func replayOps(s *script, n int) (ops []op, lead int) {
	if n > s.timedEnd-s.timedStart {
		n = s.timedEnd - s.timedStart
	}
	return s.ops[:s.timedStart+n], s.timedStart
}

// execDepth is the serve layer: Session.Exec on each line into a
// discarding writer, with telemetry and — unless bare — the flight
// recorder configured as wdmserve's defaults configure them.
type execDepth struct {
	sess    *serve.Session
	w       countingWriter
	exec    tally
	mallocs uint64 // heap allocations over the timed requests
	bytes   int64  // reply bytes over the timed requests
}

func newExecDepth(nw *wdm.Network, withRecorder bool) (*execDepth, error) {
	eng, err := newEngine(nw)
	if err != nil {
		return nil, err
	}
	opts := &serve.SessionOptions{Telemetry: serve.NewTelemetry(eng.Metrics())}
	if withRecorder {
		opts.Tracer = obs.NewTracer(nil)
		opts.Tracer.RegisterMetrics(eng.Metrics())
	}
	d := &execDepth{}
	d.sess = serve.NewSession(eng, &d.w, opts)
	return d, nil
}

func (d *execDepth) run(ops []op, timed bool) error {
	lines := make([]string, len(ops))
	for i := range ops {
		lines[i] = ops[i].line()
	}
	b0, m0 := d.w.n, mallocs()
	for _, line := range lines {
		t0 := time.Now()
		_, _ = d.sess.Exec(line) // a blocked route or alloc is an answer, not a failure
		if timed {
			d.exec.add(time.Since(t0))
		}
	}
	if timed {
		d.mallocs += mallocs() - m0
		d.bytes += d.w.n - b0
	}
	return nil
}

func (d *execDepth) allocsPerReq() float64 { return ratio(float64(d.mallocs), float64(d.exec.n)) }

// engineDepth is the engine layer: the public Engine method each verb
// maps to.
type engineDepth struct {
	eng                                                 *engine.Engine
	route, routeFrom, batch, alloc, release, failRepair tally
}

// blockedOnly passes a blocked route through and reports anything else:
// the reference admitted exactly these operations, so any other error
// means the replay has left the reference trajectory.
func blockedOnly(o *op, err error) error {
	if err == nil || errors.Is(err, core.ErrNoRoute) {
		return nil
	}
	return fmt.Errorf("replay %s: %w", o.line(), err)
}

func batchRequests(o *op) []engine.Request {
	reqs := make([]engine.Request, 0, len(o.args)/2)
	for i := 0; i+1 < len(o.args); i += 2 {
		reqs = append(reqs, engine.Request{From: o.args[i], To: o.args[i+1]})
	}
	return reqs
}

// mutate applies one mutating op through the engine's public API and
// returns the links whose channel sets it changed (none for a blocked
// alloc, which publishes nothing).
func mutate(eng *engine.Engine, o *op) ([]int, error) {
	switch o.verb {
	case verbAlloc:
		res, err := eng.RouteAndAllocate(o.lease, o.args[0], o.args[1])
		if err != nil {
			return nil, blockedOnly(o, err)
		}
		changed := make([]int, 0, len(res.Path.Hops))
		for _, h := range res.Path.Hops {
			changed = append(changed, h.Link)
		}
		return changed, nil
	case verbRelease:
		owner := int64(o.args[0])
		var changed []int
		for _, c := range eng.OwnerChannels(owner) {
			changed = append(changed, c.Link)
		}
		return changed, blockedOnly(o, eng.Release(owner))
	case verbFail:
		_, err := eng.FailLink(o.args[0])
		return o.args[:1], blockedOnly(o, err)
	default:
		return o.args[:1], blockedOnly(o, eng.RepairLink(o.args[0]))
	}
}

func (d *engineDepth) tally(v verb) *tally {
	switch v {
	case verbRoute:
		return &d.route
	case verbRouteFrom:
		return &d.routeFrom
	case verbBatch:
		return &d.batch
	case verbAlloc:
		return &d.alloc
	case verbRelease:
		return &d.release
	default:
		return &d.failRepair
	}
}

// engineCall makes the one Engine call a verb maps to.
func engineCall(eng *engine.Engine, o *op, reqs []engine.Request) error {
	switch o.verb {
	case verbRoute:
		_, err := eng.Route(o.args[0], o.args[1])
		return blockedOnly(o, err)
	case verbRouteFrom:
		_, err := eng.RouteFrom(o.args[0])
		return blockedOnly(o, err)
	case verbBatch:
		eng.Snapshot().RouteBatch(reqs, 0) // blocked pairs are answers
		return nil
	default:
		_, err := mutate(eng, o)
		return err
	}
}

func (d *engineDepth) run(ops []op, timed bool) error {
	for i := range ops {
		o := &ops[i]
		var reqs []engine.Request
		if o.verb == verbBatch {
			reqs = batchRequests(o)
		}
		t0 := time.Now()
		err := engineCall(d.eng, o, reqs)
		el := time.Since(t0)
		if err != nil {
			return err
		}
		if timed {
			d.tally(o.verb).add(el)
		}
	}
	return nil
}

// total is the engine-level time of every timed operation.
func (d *engineDepth) total() float64 {
	return float64(d.route.ns + d.routeFrom.ns + d.batch.ns + d.alloc.ns + d.release.ns + d.failRepair.ns)
}

// splitDepth is the engine layer with each alloc split at its seam:
// the search on a pinned snapshot, then the claim and the epoch
// publication.
type splitDepth struct {
	eng                  *engine.Engine
	search, claimPublish tally
}

func (d *splitDepth) run(ops []op, timed bool) error {
	for i := range ops {
		o := &ops[i]
		if o.verb != verbAlloc {
			if o.verb.mutates() {
				if _, err := mutate(d.eng, o); err != nil {
					return err
				}
			}
			continue
		}
		t0 := time.Now()
		res, err := d.eng.Snapshot().Route(o.args[0], o.args[1])
		t1 := time.Now()
		if timed {
			d.search.add(t1.Sub(t0))
		}
		if err != nil {
			if err := blockedOnly(o, err); err != nil {
				return err
			}
			continue
		}
		err = d.eng.Allocate(o.lease, res.Path)
		t2 := time.Now()
		if err != nil {
			return fmt.Errorf("replay %s: %w", o.line(), err)
		}
		if timed {
			d.claimPublish.add(t2.Sub(t1))
		}
	}
	return nil
}

// coreDepth is the search layer and the epoch-maintenance primitives
// below the engine.
type coreDepth struct {
	eng               *engine.Engine
	route, routeFrom  tally
	settled, relaxed  int64
	patch, applyDelta tally
	routeAllocs       float64 // heap allocations per Aux.Route
	auxNodes, auxArcs int
	compileNs         float64 // median full compile of the final residual
	ssspNsPerArc      float64 // graph.Dijkstra full sweeps over the reverse aux graph
}

// coreOpts are the search options wdmserve's defaults give every
// snapshot: the binary heap, plain search.
var coreOpts = &core.Options{Queue: graph.QueueBinary}

// allocSample is how many point routes the allocation count is taken
// over; compileRuns and sweepSources size the two fixed-state probes.
const (
	allocSample  = 1000
	compileRuns  = 5
	sweepSources = 16
)

func (d *coreDepth) run(ops []op, timed bool) error {
	eng := d.eng
	for i := range ops {
		o := &ops[i]
		aux := eng.Snapshot().Aux()
		switch o.verb {
		case verbRoute, verbAlloc:
			t0 := time.Now()
			res, err := aux.Route(o.args[0], o.args[1], coreOpts)
			el := time.Since(t0)
			if err := blockedOnly(o, err); err != nil {
				return err
			}
			if timed {
				d.route.add(el)
				if res != nil {
					d.settled += int64(res.Stats.Settled)
					d.relaxed += int64(res.Stats.Relaxed)
				}
			}
		case verbRouteFrom:
			t0 := time.Now()
			_, err := aux.RouteFrom(o.args[0], coreOpts)
			el := time.Since(t0)
			if err != nil {
				return fmt.Errorf("replay %s: %w", o.line(), err)
			}
			if timed {
				d.routeFrom.add(el)
			}
		}
		if !o.verb.mutates() {
			continue
		}
		// Advance the trajectory through the engine, then feed the same
		// changed-link set to the primitives the engine publishes with.
		prev := eng.Snapshot()
		changed, err := mutate(eng, o)
		if err != nil {
			return err
		}
		next := eng.Snapshot()
		if next.Epoch() == prev.Epoch() {
			continue // a blocked alloc publishes nothing
		}
		changes := make(map[int][]wdm.Channel, len(changed))
		for _, id := range changed {
			changes[id] = next.Network().Link(id).Channels
		}
		t0 := time.Now()
		patched, err := prev.Network().PatchChannels(changes)
		t1 := time.Now()
		if err != nil {
			return fmt.Errorf("replay %s: patch: %w", o.line(), err)
		}
		_, err = prev.Aux().ApplyDelta(patched, changed)
		t2 := time.Now()
		if err != nil {
			return fmt.Errorf("replay %s: delta: %w", o.line(), err)
		}
		if timed {
			d.patch.add(t1.Sub(t0))
			d.applyDelta.add(t2.Sub(t1))
		}
	}
	return nil
}

// probe takes the fixed-state figures on the final snapshot: the aux
// graph's size, allocations per point route (over the script's own
// pairs), the full compile and the graph-level sweep.
func (d *coreDepth) probe(nw *wdm.Network, ops []op) error {
	snap := d.eng.Snapshot()
	aux := snap.Aux()
	d.auxNodes, d.auxArcs = aux.NumAuxNodes(), aux.NumAuxArcs()
	var pairs [][2]int
	for i := 0; i < len(ops) && len(pairs) < allocSample; i++ {
		if v := ops[i].verb; v == verbRoute || v == verbAlloc {
			pairs = append(pairs, [2]int{ops[i].args[0], ops[i].args[1]})
		}
	}
	if len(pairs) > 0 {
		m0 := mallocs()
		for _, p := range pairs {
			_, err := aux.Route(p[0], p[1], coreOpts)
			if err != nil && !errors.Is(err, core.ErrNoRoute) {
				return fmt.Errorf("replay route %d %d: %w", p[0], p[1], err)
			}
		}
		d.routeAllocs = float64(mallocs()-m0) / float64(len(pairs))
	}
	compiles := make([]float64, compileRuns)
	for i := range compiles {
		t0 := time.Now()
		if _, err := core.NewAuxWithLayout(nw, snap.Network()); err != nil {
			return fmt.Errorf("replay compile: %w", err)
		}
		compiles[i] = float64(time.Since(t0))
	}
	d.compileNs = median(compiles)
	rg := aux.ReverseGraph()
	var sweep tally
	var arcs int64
	for i := 0; i < sweepSources; i++ {
		src := i * rg.NumNodes() / sweepSources
		t0 := time.Now()
		tree, err := graph.Dijkstra(rg, src, -1, graph.QueueBinary)
		el := time.Since(t0)
		if err != nil {
			return fmt.Errorf("replay sweep: %w", err)
		}
		sweep.add(el)
		arcs += int64(tree.Relaxed)
	}
	d.ssspNsPerArc = ratio(float64(sweep.ns), float64(arcs))
	return nil
}

// timerOverhead is the cost of one clock pair, the instrument every
// figure above is taken with.
func timerOverhead() float64 {
	const pairs = 200_000
	var sink time.Duration
	t0 := time.Now()
	for i := 0; i < pairs; i++ {
		s := time.Now()
		sink += time.Since(s)
	}
	total := time.Since(t0)
	_ = sink
	return float64(total) / pairs
}
