// Package serve implements the wdmserve line protocol — parsing,
// dispatch against a shared routing engine, and reply encoding —
// independently of any particular transport. The stdin REPL, the
// -script runner and the TCP server (tcp.go) all execute commands
// through the same Session, so protocol behaviour (including every
// error string) is defined exactly once.
//
// A Session is the per-client execution context: it holds the client's
// reply writer and per-client toggles (trace on/off) while sharing the
// engine — and therefore epochs, leases and telemetry — with every
// other session in the process. Lease IDs come from the engine's
// process-wide sequence (engine.ReserveOwner), so sessions on different
// connections can allocate concurrently without colliding.
//
// Sessions are not safe for concurrent use; one goroutine drives each
// (the engine underneath is concurrency-safe). Replies are written in
// the same line-oriented format the original REPL produced, byte for
// byte, so scripted deployments survive the transport change.
package serve

import (
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"time"

	"lightpath/internal/core"
	"lightpath/internal/engine"
	"lightpath/internal/obs"
)

// SessionOptions configures a Session.
type SessionOptions struct {
	// Workers sets the batch verb's worker pool size (0 = GOMAXPROCS).
	Workers int
	// Telemetry, when non-nil, records per-verb request latencies and
	// outcome counters. Sessions sharing an engine should share one
	// Telemetry built from that engine's registry.
	Telemetry *Telemetry
	// Tracer, when non-nil, is the request-span recorder: Exec records
	// each command as a span tree (and the recent/slow/tracejson verbs
	// answer from its flight recorder). Sessions sharing an engine should
	// share one Tracer. A nil Tracer disables recording at zero cost and
	// makes the trace-query verbs answer "recorder not configured".
	Tracer *obs.Tracer
	// Monitor, when non-nil, answers the `health` verb and the stats
	// health column, and — when it samples — the `history` verb. Nil
	// renders health as "off"; a nil or non-sampling Monitor makes
	// `history` answer "sampler not configured".
	Monitor *obs.Monitor
}

// Session executes protocol commands for one client against a shared
// engine.
type Session struct {
	eng     *engine.Engine
	w       io.Writer
	workers int
	tel     *Telemetry
	tracer  *obs.Tracer
	mon     *obs.Monitor
	tracing bool   // trace on: append a trace summary to route/alloc answers
	out     []byte // reply under construction (reply), reused across requests
}

// NewSession builds the execution context for one client writing its
// replies to w.
func NewSession(eng *engine.Engine, w io.Writer, opts *SessionOptions) *Session {
	s := &Session{eng: eng, w: w}
	if opts != nil {
		s.workers = opts.Workers
		s.tel = opts.Telemetry
		s.tracer = opts.Tracer
		s.mon = opts.Monitor
	}
	return s
}

// processStart anchors the stats verb's uptime column. Process-wide by
// design: every session reports the same uptime regardless of when its
// connection arrived.
var processStart = time.Now()

// maxKShortest caps kshortest's K. Admission bounds only the wait for a
// slot, not how long a request holds one, and Yen's work grows faster
// than K.
const maxKShortest = 32

// CleanLine strips a trailing '#' comment and surrounding whitespace;
// an empty result means the line carries no command.
func CleanLine(line string) string {
	if i := strings.IndexByte(line, '#'); i >= 0 {
		line = line[:i]
	}
	return strings.TrimSpace(line)
}

// Exec runs one command line; the bool result requests shutdown. A
// non-nil error is a protocol-level answer (blocked request, bad
// arguments, unknown lease) the transport should render as an "error:"
// line — it never means the session is broken. Blank lines are no-ops.
//
// When the session has a Tracer, Exec owns the whole request-trace
// lifecycle: one serve_request root per command. Transports that start
// the trace earlier (the TCP server starts it before admission so queue
// wait is visible) call ExecReq with their trace instead.
func (s *Session) Exec(line string) (quit bool, err error) {
	req := s.tracer.Start(spanRequest)
	quit, err = s.ExecReq(line, req)
	s.tracer.Finish(req)
	return quit, err
}

// ExecReq is Exec executing inside the caller's request trace (nil for
// none): the verb and outcome land on the root span and the dispatch
// runs under a serve_exec child, with engine and core spans nested
// below it.
func (s *Session) ExecReq(line string, req *obs.ReqTrace) (quit bool, err error) {
	fields := strings.Fields(line)
	if len(fields) == 0 {
		return false, nil
	}
	cmd := fields[0]
	root := req.Root()
	root.SetStr(attrVerb, cmd)
	if s.tel != nil {
		start := time.Now()
		defer func() { s.tel.observe(cmd, time.Since(start), err) }()
	}
	sp := root.StartChild(spanExec)
	quit, err = s.exec(cmd, fields[1:], sp)
	sp.End()
	if err != nil {
		root.SetStr(attrOutcome, outcomeError)
	} else {
		root.SetStr(attrOutcome, outcomeOK)
	}
	return quit, err
}

// exec dispatches one parsed command; sp (possibly nil) is the request's
// serve_exec span, threaded into the engine for the verbs that route or
// mutate.
func (s *Session) exec(cmd string, rest []string, sp *obs.Span) (bool, error) {
	// trace takes a keyword argument, every other verb integers.
	if cmd == "trace" {
		return false, s.execTrace(rest)
	}
	ints := make([]int, len(rest))
	for i, f := range rest {
		v, err := strconv.Atoi(f)
		if err != nil {
			return false, fmt.Errorf("%s: bad argument %q", cmd, f)
		}
		ints[i] = v
	}
	argc := func(want int) error {
		if len(ints) != want {
			return fmt.Errorf("%s: want %d arguments, got %d", cmd, want, len(ints))
		}
		return nil
	}

	switch cmd {
	case "route":
		if err := argc(2); err != nil {
			return false, err
		}
		if s.tracing {
			sp = readableSpan(sp)
		}
		res, err := s.eng.Route(ints[0], ints[1], sp)
		if err == nil {
			s.reply(s.appendResult(s.out[:0], res))
		}
		if s.tracing {
			s.printTraceSummary(ints[0], ints[1], res, readAnatomy(sp))
		}
		if err != nil {
			return false, err
		}
	case "explain":
		if err := argc(2); err != nil {
			return false, err
		}
		sp = readableSpan(sp)
		snap := s.eng.Snapshot()
		res, err := snap.Route(ints[0], ints[1], sp)
		a := readAnatomy(sp)
		if err != nil {
			fmt.Fprintf(s.w, "explain %d -> %d: blocked after settling %d of %d aux nodes\n",
				ints[0], ints[1], a.settled, a.auxNodes)
			if a.cause != "" {
				fmt.Fprintf(s.w, "  cause: %s", a.cause)
				switch {
				case a.physPops > 0:
					fmt.Fprintf(s.w, " (bound pass popped %d of %d physical nodes)",
						a.physPops, snap.Network().NumNodes())
				case a.boundRow == core.BoundRowHit:
					fmt.Fprint(s.w, " (bound row resident)")
				}
				fmt.Fprintln(s.w)
			}
			return false, err
		}
		s.printExplain(snap, res, a)
	case "routefrom":
		if err := argc(1); err != nil {
			return false, err
		}
		costs, err := s.eng.CostsFrom(ints[0], sp)
		if err != nil {
			return false, err
		}
		n := s.eng.Base().NumNodes()
		buf := s.out[:0]
		for t := 0; t < n; t++ {
			buf = appendPair(buf, ints[0], t)
			if c := costs.To(t); !math.IsInf(c, 1) {
				buf = append(appendCost(buf, c), '\n')
			} else {
				buf = append(buf, "unreachable\n"...)
			}
		}
		s.reply(buf)
	case "kshortest":
		if err := argc(3); err != nil {
			return false, err
		}
		if ints[2] > maxKShortest {
			return false, fmt.Errorf("kshortest: K %d above the limit of %d", ints[2], maxKShortest)
		}
		paths, err := s.eng.KShortest(ints[0], ints[1], ints[2])
		if err != nil {
			return false, err
		}
		for i, p := range paths {
			fmt.Fprintf(s.w, "  #%d cost %g  %s\n", i+1, p.Cost, p.Path.String(s.eng.Base()))
		}
	case "protect":
		if err := argc(2); err != nil {
			return false, err
		}
		pair, err := s.eng.RouteProtected(ints[0], ints[1], nil)
		if err != nil {
			return false, err
		}
		fmt.Fprintf(s.w, "  primary cost %g  %s\n", pair.Primary.Cost, pair.Primary.Path.String(s.eng.Base()))
		fmt.Fprintf(s.w, "  backup  cost %g  %s\n", pair.Backup.Cost, pair.Backup.Path.String(s.eng.Base()))
	case "batch":
		if len(ints) == 0 || len(ints)%2 != 0 {
			return false, fmt.Errorf("batch: want an even number of endpoints")
		}
		reqs := make([]engine.Request, 0, len(ints)/2)
		for i := 0; i < len(ints); i += 2 {
			reqs = append(reqs, engine.Request{From: ints[i], To: ints[i+1]})
		}
		snap := s.eng.Snapshot()
		out := snap.BatchCosts(reqs, s.workers)
		buf := fmt.Appendf(s.out[:0], "batch of %d at epoch %d:\n", len(reqs), snap.Epoch())
		for _, r := range out {
			buf = appendPair(buf, r.From, r.To)
			switch {
			case errors.Is(r.Err, core.ErrNoRoute):
				buf = append(buf, "blocked\n"...)
			case r.Err != nil:
				buf = fmt.Appendf(buf, "error: %v\n", r.Err)
			default:
				buf = append(appendCost(buf, r.Cost), '\n')
			}
		}
		s.reply(buf)
	case "alloc":
		if err := argc(2); err != nil {
			return false, err
		}
		lease := s.eng.ReserveOwner()
		if s.tracing {
			sp = readableSpan(sp)
		}
		res, err := s.eng.RouteAndAllocate(lease, ints[0], ints[1], sp)
		if err != nil {
			return false, err
		}
		buf := append(s.out[:0], "lease "...)
		buf = strconv.AppendInt(buf, lease, 10)
		buf = append(buf, " (epoch "...)
		buf = strconv.AppendUint(buf, s.eng.Epoch(), 10)
		s.reply(s.appendResult(append(buf, "): "...), res))
		if s.tracing {
			s.printTraceSummary(ints[0], ints[1], res, readAnatomy(sp))
		}
	case "release":
		if err := argc(1); err != nil {
			return false, err
		}
		if err := s.eng.Release(int64(ints[0]), sp); err != nil {
			return false, err
		}
		fmt.Fprintf(s.w, "released %d (epoch %d)\n", ints[0], s.eng.Epoch())
	case "fail":
		if err := argc(1); err != nil {
			return false, err
		}
		riders, err := s.eng.FailLink(ints[0])
		if err != nil {
			return false, err
		}
		fmt.Fprintf(s.w, "failed link %d (epoch %d), riding leases: %v\n", ints[0], s.eng.Epoch(), riders)
	case "repair":
		if err := argc(1); err != nil {
			return false, err
		}
		if err := s.eng.RepairLink(ints[0]); err != nil {
			return false, err
		}
		fmt.Fprintf(s.w, "repaired link %d (epoch %d)\n", ints[0], s.eng.Epoch())
	case "epoch":
		fmt.Fprintf(s.w, "epoch %d\n", s.eng.Epoch())
	case "stats":
		st := s.eng.Stats()
		cs, rs := s.eng.CacheStats(), s.eng.BoundRowStats()
		snap := s.eng.Metrics().Snapshot()
		fmt.Fprintf(s.w, "epoch %d  allocs %d  releases %d  conflicts %d  owners %d  held %d  util %.3f\n",
			st.Epoch, st.Allocations, st.Releases, st.Conflicts, st.ActiveOwners, st.HeldChannels,
			s.eng.Utilization())
		// The reply stays five lines — scripted clients read it by count —
		// so the bound rows ride on the cache line (the cost rows') and the
		// batch split on the routes line.
		fmt.Fprintf(s.w, "cache: %d/%d entries  lookups %d  hits %d  misses %d  evictions %d  hit rate %.3f  tree rescans %d  bound rows %d/%d (lookups %d, hits %d, built %d)\n",
			cs.Size, cs.Capacity, cs.Lookups, cs.Hits, cs.Misses, cs.Evictions, cs.HitRate(),
			snap["engine_tree_rescans_total"],
			rs.Size, rs.Capacity, rs.Lookups, rs.Hits, snap["engine_bound_row_builds_total"])
		lat := snap["engine_route_latency_ns"].(obs.HistogramSnapshot)
		fmt.Fprintf(s.w, "routes %d (blocked %d)  retries %d  rebuilds %d  batched %d (row %d, tree %d, point %d)\n",
			snap["engine_routes_total"], snap["engine_routes_blocked_total"],
			snap["engine_alloc_retries_total"], st.Rebuilds, snap["engine_batch_requests_total"],
			snap["engine_batch_row_requests_total"],
			snap["engine_batch_tree_requests_total"], snap["engine_batch_point_requests_total"])
		fmt.Fprintf(s.w, "route latency: p50 %s  p95 %s  p99 %s  (n=%d, max %s)\n",
			nsDuration(lat.P50), nsDuration(lat.P95), nsDuration(lat.P99), lat.Count, nsDuration(lat.Max))
		healthState := "off"
		if s.mon != nil {
			healthState = s.mon.Status().String()
		}
		fmt.Fprintf(s.w, "uptime %s  health %s\n",
			time.Since(processStart).Round(time.Millisecond), healthState)
	case "health":
		if err := argc(0); err != nil {
			return false, err
		}
		if s.mon == nil {
			return false, fmt.Errorf("health: not configured")
		}
		fmt.Fprintf(s.w, "health %s\n", s.mon.Status())
		for _, r := range s.mon.Detail() {
			s.printRuleState(r)
		}
	case "history":
		if len(ints) > 1 {
			return false, fmt.Errorf("history: want at most one argument, got %d", len(ints))
		}
		if !s.mon.Sampling() {
			return false, fmt.Errorf("history: sampler not configured")
		}
		n := DefaultTraceList
		if len(ints) == 1 {
			if ints[0] <= 0 {
				return false, fmt.Errorf("history: count must be positive, got %d", ints[0])
			}
			n = ints[0]
		}
		s.printHistory(n)
	case "recent", "slow":
		if len(ints) > 1 {
			return false, fmt.Errorf("%s: want at most one argument, got %d", cmd, len(ints))
		}
		if s.tracer == nil {
			return false, fmt.Errorf("%s: request recorder not configured", cmd)
		}
		n := DefaultTraceList
		if len(ints) == 1 {
			if ints[0] <= 0 {
				return false, fmt.Errorf("%s: count must be positive, got %d", cmd, ints[0])
			}
			n = ints[0]
		}
		var traces []*obs.ReqTrace
		if cmd == "recent" {
			traces = s.tracer.Recent(n)
		} else {
			traces = s.tracer.Slow(n)
		}
		if len(traces) == 0 {
			fmt.Fprintln(s.w, "no traces retained")
			return false, nil
		}
		for _, r := range traces {
			s.printTraceLine(r)
		}
	case "tracejson":
		if err := argc(1); err != nil {
			return false, err
		}
		if s.tracer == nil {
			return false, fmt.Errorf("tracejson: request recorder not configured")
		}
		r := s.tracer.Find(uint64(ints[0]))
		if r == nil {
			return false, fmt.Errorf("tracejson: trace %d not retained", ints[0])
		}
		if err := obs.EncodeReqTrace(s.w, r); err != nil {
			return false, err
		}
	case "metrics":
		if err := s.eng.Metrics().WriteJSON(s.w); err != nil {
			return false, err
		}
	case "quit", "exit":
		return true, nil
	default:
		return false, fmt.Errorf("unknown command %q", cmd)
	}
	return false, nil
}

// execTrace toggles (or reports) per-answer trace summaries.
func (s *Session) execTrace(args []string) error {
	switch {
	case len(args) == 0:
		state := "off"
		if s.tracing {
			state = "on"
		}
		fmt.Fprintf(s.w, "trace %s\n", state)
		return nil
	case len(args) == 1 && args[0] == "on":
		s.tracing = true
		fmt.Fprintln(s.w, "trace on")
		return nil
	case len(args) == 1 && args[0] == "off":
		s.tracing = false
		fmt.Fprintln(s.w, "trace off")
		return nil
	default:
		return fmt.Errorf("trace: want on|off, got %q", strings.Join(args, " "))
	}
}

// The explain verb and the trace-on summaries follow one rule: what the
// search did is read back from the query's span tree, what the path
// costs is computed from the path.

// readableSpan is the span an inspected query runs under: the request's
// own serve_exec when the request is being recorded, else the root of a
// private trace nothing retains — the recorder being off or having
// sampled the request out must not blind explain.
func readableSpan(sp *obs.Span) *obs.Span {
	if sp == nil {
		return obs.StartTrace(spanExec).Root()
	}
	return sp
}

// anatomy is what one inspected request's final route attempt did.
type anatomy struct {
	epoch    uint64        // snapshot the attempt was pinned to
	elapsed  time.Duration // the engine_route span's extent
	attempts int           // route+claim rounds (0 for a read-only query)

	auxNodes, auxArcs, settled, relaxed int64
	blocked                             bool

	physPops int64  // astar's backward bound pass over the physical network; 0 in other modes
	boundRow string // core.AttrBoundRow: where astar's bound came from, "" in other modes
	cause    string // core.AttrBlockedCause of a blocked query, "" when the search names none
}

// readAnatomy collects the anatomy from the trace sp belongs to. A
// request executes one command, so every engine and core span in its
// trace belongs to that command; a later attempt's spans replace an
// earlier one's.
func readAnatomy(sp *obs.Span) anatomy {
	var a anatomy
	spans := sp.Trace().Spans()
	for i := range spans {
		c := &spans[i]
		switch c.Name {
		case engine.SpanRoute:
			a = anatomy{epoch: uint64(attrInt(c, engine.AttrEpoch)), elapsed: c.Duration(), attempts: a.attempts}
		case core.SpanSearch:
			a.auxNodes, a.auxArcs = attrInt(c, core.AttrAuxNodes), attrInt(c, core.AttrAuxArcs)
			a.settled, a.relaxed = attrInt(c, core.AttrSettled), attrInt(c, core.AttrRelaxed)
			blocked, _ := c.Attr(core.AttrBlocked)
			a.blocked = blocked.Bool()
			a.physPops = attrInt(c, core.AttrPhysPops)
			row, _ := c.Attr(core.AttrBoundRow)
			a.boundRow = row.Str
			cause, _ := c.Attr(core.AttrBlockedCause)
			a.cause = cause.Str
		case engine.SpanAllocate:
			a.attempts++
		}
	}
	return a
}

// attrInt reads an integer span attribute, 0 when absent.
func attrInt(sp *obs.Span, key string) int64 {
	a, _ := sp.Attr(key)
	return a.Int()
}

// printTraceSummary renders the one-line anatomy trace on appends to
// route and alloc answers. res is nil when the query failed.
func (s *Session) printTraceSummary(src, dst int, res *core.Result, a anatomy) {
	fmt.Fprintf(s.w, "  trace %d->%d epoch %d", src, dst, a.epoch)
	if a.blocked {
		fmt.Fprint(s.w, " BLOCKED")
	} else {
		cost, hops, taken, available := 0.0, 0, 0, 0
		if res != nil {
			cost, hops = res.Cost, res.Path.Len()
			// The gadget arcs the count walks come from the layout, which
			// every epoch's Aux shares, so the current one serves.
			taken, available = s.eng.Snapshot().Aux().ConversionChoices(res.Path)
		}
		fmt.Fprintf(s.w, " cost %g (%d hops, %d/%d conversions)", cost, hops, taken, available)
	}
	fmt.Fprintf(s.w, " aux %dn/%da settled %d relaxed %d", a.auxNodes, a.auxArcs, a.settled, a.relaxed)
	if a.boundRow != "" {
		fmt.Fprintf(s.w, " bound row %s", a.boundRow)
	}
	if a.attempts > 1 {
		fmt.Fprintf(s.w, " attempts %d", a.attempts)
	}
	fmt.Fprintf(s.w, " in %s\n", a.elapsed)
}

// printExplain renders the per-hop Eq. (1) cost anatomy of a route
// found on snap: which junction paid which conversion, what each link
// traversal cost, and the totals that reconcile to the route cost.
func (s *Session) printExplain(snap *engine.Snapshot, res *core.Result, a anatomy) {
	buf := fmt.Appendf(s.out[:0], "explain %d -> %d (epoch %d, ", res.Source, res.Dest, snap.Epoch())
	if a.boundRow != "" {
		buf = fmt.Appendf(buf, "bound row %s, ", a.boundRow)
	}
	buf = fmt.Appendf(buf, "%s)\n", a.elapsed)
	legs := res.Path.Breakdown(snap.Network())
	if len(legs) == 0 {
		s.reply(append(buf, "  trivial path (source == destination)\n"...))
		return
	}
	links, convs := 0.0, 0.0
	for i, leg := range legs {
		buf = fmt.Appendf(buf, "  hop %d: %d -[λ%d]-> %d  conv %g + link %g  (cum %g)\n",
			i+1, leg.From, leg.Hop.Wavelength+1, leg.To, leg.ConvCost, leg.LinkCost, leg.Cumulative)
		links += leg.LinkCost
		convs += leg.ConvCost
	}
	buf = fmt.Appendf(buf, "  totals: links %g + conversions %g = %g\n", links, convs, links+convs)
	buf = s.appendResult(append(buf, "  "...), res)
	// The search line stays last: it is what frames an explain reply. Every
	// astar reply says where its bound came from on the line before.
	switch a.boundRow {
	case core.BoundRowHit:
		buf = append(buf, "  bound: row resident\n"...)
	case core.BoundRowBuilt, core.BoundRowAbsent:
		buf = fmt.Appendf(buf, "  bound: backward pass popped %d of %d physical nodes\n",
			a.physPops, snap.Network().NumNodes())
	}
	taken, available := snap.Aux().ConversionChoices(res.Path)
	s.reply(fmt.Appendf(buf, "  search: aux %d nodes / %d arcs, settled %d, relaxed %d, conversions %d/%d taken/available\n",
		a.auxNodes, a.auxArcs, a.settled, a.relaxed, taken, available))
}

// printTraceLine renders one flight-recorder entry as a summary line:
// id, total duration, verb, outcome and span count, with the dominant
// child span (queue wait vs execution) split out when present.
func (s *Session) printTraceLine(r *obs.ReqTrace) {
	verb, outcome := "-", "-"
	if a, ok := r.Root().Attr(attrVerb); ok {
		verb = a.Str
	}
	if a, ok := r.Root().Attr(attrOutcome); ok {
		outcome = a.Str
	}
	fmt.Fprintf(s.w, "  trace %d  %s  verb %s  outcome %s  spans %d",
		r.ID, r.Duration(), verb, outcome, len(r.Spans()))
	if q := r.Span(spanQueueWait); q != nil {
		fmt.Fprintf(s.w, "  queue %s", q.Duration())
	}
	if e := r.Span(spanExec); e != nil {
		fmt.Fprintf(s.w, "  exec %s", e.Duration())
	}
	fmt.Fprintln(s.w)
}

// printRuleState renders one health rule's last evaluation.
func (s *Session) printRuleState(r obs.RuleState) {
	value := "unknown"
	if r.Known {
		value = fmt.Sprintf("%g", r.Value)
	}
	fmt.Fprintf(s.w, "  %s: %s(%s) %s threshold %g  streak %d/%d  severity %s",
		r.Name, r.Kind, r.Metric, value, r.Threshold, r.Streak, r.Sustain, r.Severity)
	if r.Firing {
		fmt.Fprint(s.w, "  FIRING")
	}
	fmt.Fprintln(s.w)
}

// HealthRules is the server's health-rule table, watching the metrics
// the history verb prints. Blocking is the paper's time-varying health
// signal and a route query's cost is what Theorem 1 bounds, but neither
// alone can tell saturation caused by the network from saturation caused
// by the workload, so both only degrade. Sustained shedding means
// clients are being turned away, and is the one failing rule.
var HealthRules = []obs.Rule{
	// Blocked routes per second: on a healthy instance blocking is rare;
	// a stream of ErrNoRoute answers means saturation or a partition.
	{Name: "engine_blocked_rate_high", Metric: "engine_routes_blocked_total",
		Threshold: 100, Severity: obs.HealthDegraded},
	// Route p99 over the frame gap, in ns: routes are served from
	// compiled snapshots in microseconds, so 10ms means thrashing or
	// starvation.
	{Name: "engine_route_p99_slow", Metric: "engine_route_latency_ns", Quantile: 0.99,
		Threshold: 10e6, Severity: obs.HealthDegraded},
	// Sheds per second: faster than any transient burst explains.
	{Name: "serve_shed_rate_failing", Metric: "serve_shed_total",
		Threshold: 100, Severity: obs.HealthFailing},
}

// printHistory renders the newest n sampled frames, newest first, with
// the operational rates derived from each frame pair: requests/shed per
// second from the serve counters, blocked routes per second from the
// engine counter, and the route p99 over that frame's window.
func (s *Session) printHistory(n int) {
	// One extra frame: each line needs its predecessor.
	frames := s.mon.Last(min(n, obs.HistorySize) + 1)
	if len(frames) < 2 {
		fmt.Fprintln(s.w, "no history sampled yet (need two frames)")
		return
	}
	rate := func(newer, older *obs.Frame, metric string) string {
		if r, ok := obs.Rate(newer, older, metric); ok {
			return fmt.Sprintf("%.1f", r)
		}
		return "-"
	}
	now := time.Now()
	for i := 0; i+1 < len(frames); i++ {
		newer, older := frames[i], frames[i+1]
		fmt.Fprintf(s.w, "  frame %d  age %s  req/s %s  shed/s %s  blocked/s %s",
			newer.Seq, now.Sub(newer.At).Round(time.Millisecond),
			rate(newer, older, "serve_requests_total"),
			rate(newer, older, "serve_shed_total"),
			rate(newer, older, "engine_routes_blocked_total"))
		if d, ok := obs.Window(newer, older, "engine_route_latency_ns"); ok {
			fmt.Fprintf(s.w, "  route p99 %s (n=%d)", nsDuration(d.P99), d.Count)
		}
		fmt.Fprintln(s.w)
	}
}

// nsDuration renders a nanosecond quantity from a histogram as a
// human-readable duration.
func nsDuration(ns float64) time.Duration {
	return time.Duration(ns) * time.Nanosecond
}

// appendPair appends the "  S -> T: " prefix of a routefrom or batch
// reply line, as fmt's "  %d -> %d: " renders it.
func appendPair(buf []byte, from, to int) []byte {
	buf = append(buf, "  "...)
	buf = strconv.AppendInt(buf, int64(from), 10)
	buf = append(buf, " -> "...)
	buf = strconv.AppendInt(buf, int64(to), 10)
	return append(buf, ": "...)
}

// appendCost appends "cost C" with C as fmt's %g renders a float64:
// shortest representation that round-trips.
func appendCost(buf []byte, c float64) []byte {
	return strconv.AppendFloat(append(buf, "cost "...), c, 'g', -1, 64)
}

// appendResult appends one routing answer, "cost C  PATH\n", as fmt's
// "cost %g  %s\n" renders it.
func (s *Session) appendResult(buf []byte, res *core.Result) []byte {
	buf = append(appendCost(buf, res.Cost), "  "...)
	return append(res.Path.AppendText(buf, s.eng.Base()), '\n')
}

// reply sends one reply built in the session's buffer (s.out[:0]
// extended) in a single Write and keeps the buffer for the next. Like
// Fprintf on every other reply line, a failing writer is left to the
// transport's flush.
func (s *Session) reply(buf []byte) {
	_, _ = s.w.Write(buf)
	s.out = buf
}
