package obs

import (
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// This file is the request-scoped tracing substrate: a Span tree built
// while one request executes, a Tracer that decides which requests to
// record, and a flight recorder (ring.go) that retains the most recent
// completed trees by value plus an always-retained slow-request log.
//
// The design constraint is the same one the metric types obey: the
// *disabled* path must be free. Tracer.Start returns a nil *ReqTrace
// when recording is off (or the request is head-sampled out), every
// Span and ReqTrace method is nil-receiver safe, and nil spans thread
// through serve → engine → core without a single allocation — the
// AllocsPerRun tests in internal/engine pin this at 0 allocs/op.
//
// The recording path allocates nothing in the steady state either. A
// trace is built in a buffer drawn from the tracer's pool: a span array
// of fixed capacity (spans never move, so *Span pointers handed to
// callers stay valid) and one flat attribute list in setting order (each
// entry names its span). Finish copies the used prefix of both into a
// ring slot's own storage and returns the buffer to the pool; readers copy a
// slot out again. Nothing retained points into a build buffer.
//
// Ownership: a trace belongs to the goroutine that started it until
// Finish, and to nobody after — the buffer is someone else's next
// request. Finish empties the trace before pooling it, and the API
// checks its own lifecycle from that: a span whose index is past its
// trace's length is stale (Span.usable), so StartChild, End and the
// setters on it are dropped, as is a second Finish of an emptied trace;
// a child still open when its trace finishes is recorded as it stands.
// Each of the three is counted on the tracer (Misuses,
// trace_misuse_total) rather than applied or panicked on, so a
// telemetry bug costs a count, not a crash of a server holding leases.
// What was recorded is read back with Recent/Slow/Find, which return
// private copies.

// AttrKind discriminates the typed payload of an Attr.
type AttrKind uint8

// Attribute payload kinds.
const (
	AttrInt AttrKind = iota + 1
	AttrStr
	AttrBool
	AttrFloat
)

// Attr is one typed key/value annotation on a span. Str holds an AttrStr
// value; the other kinds share one payload word that Int, Bool or Float
// (whichever matches Kind) decodes.
type Attr struct {
	Key  string
	Kind AttrKind
	span int32  // index of the span it annotates
	num  uint64 // int64 bits, 0/1, or float64 bits, per Kind
	Str  string
}

func (a Attr) Int() int64     { return int64(a.num) }
func (a Attr) Bool() bool     { return a.num != 0 }
func (a Attr) Float() float64 { return math.Float64frombits(a.num) }

// Span is one timed operation inside a request: a name (a compile-time
// constant, enforced by the metricname analyzer), start/end offsets in
// nanoseconds from the request's begin instant (monotonic — offsets are
// derived from time.Since on the ReqTrace's anchor) and the index of its
// parent span. Spans are created with StartChild and closed with End; an
// unclosed span keeps EndNs == 0. Its attributes live on the owning
// trace (Attr reads them).
type Span struct {
	Name    string
	Parent  int32 // index into the owning trace's span slice; -1 for the root
	idx     int32
	StartNs int64
	EndNs   int64

	req *ReqTrace
}

// StartChild opens a child span under s. Safe on a nil receiver (the
// disabled-tracing path), returning nil. When the owning request has
// reached its span capacity the child is dropped (counted on the
// trace) and nil is returned — nil children absorb all further calls.
func (s *Span) StartChild(name string) *Span {
	if !s.usable() {
		return nil
	}
	r := s.req
	if len(r.spans) == cap(r.spans) {
		r.DroppedSpans++
		return nil
	}
	idx := int32(len(r.spans))
	r.spans = append(r.spans, Span{
		Name:    name,
		Parent:  s.idx,
		idx:     idx,
		StartNs: r.sinceBegin(),
		req:     r,
	})
	return &r.spans[idx]
}

// End closes the span. Nil-safe; calling End twice keeps the later
// offset (harmless, single-goroutine construction makes it rare).
func (s *Span) End() {
	if s.usable() {
		s.EndNs = s.req.sinceBegin()
	}
}

// usable reports whether a call on s takes effect: never on the nil
// span (tracing off, free), and not on a stale one. Finish truncates
// its trace's spans to length 0, and the buffer's next owner rewrites
// slot i only once its own trace grows past i, so an index out of
// bounds marks a span whose trace has finished — the call is dropped
// and counted on the owning tracer.
func (s *Span) usable() bool {
	if s == nil {
		return false
	}
	if int(s.idx) < len(s.req.spans) {
		return true
	}
	s.req.owner.misused()
	return false
}

// Duration is the span's closed extent (0 for unclosed spans).
func (s *Span) Duration() time.Duration {
	if s == nil || s.EndNs < s.StartNs {
		return 0
	}
	return time.Duration(s.EndNs-s.StartNs) * time.Nanosecond
}

func (s *Span) set(key string, kind AttrKind, num uint64, str string) {
	if s.usable() {
		s.req.attrs = append(s.req.attrs, Attr{Key: key, Kind: kind, span: s.idx, num: num, Str: str})
	}
}

// SetInt attaches an integer attribute. Nil-safe.
func (s *Span) SetInt(key string, v int64) { s.set(key, AttrInt, uint64(v), "") }

// SetStr attaches a string attribute; v is retained, not copied, so it
// should be a constant or a string that outlives the request anyway.
// Nil-safe.
func (s *Span) SetStr(key, v string) { s.set(key, AttrStr, 0, v) }

// SetBool attaches a boolean attribute. Nil-safe.
func (s *Span) SetBool(key string, v bool) { s.set(key, AttrBool, boolBits(v), "") }

func boolBits(v bool) uint64 {
	if v {
		return 1
	}
	return 0
}

// SetFloat attaches a float attribute. Nil-safe. Non-finite values are
// stored as-is but render as 0 in JSON (JSON has no Inf/NaN literal).
func (s *Span) SetFloat(key string, v float64) { s.set(key, AttrFloat, math.Float64bits(v), "") }

// Attr looks an attribute up by key (first match wins). Nil-safe.
func (s *Span) Attr(key string) (Attr, bool) {
	if s == nil {
		return Attr{}, false
	}
	for _, a := range s.req.attrs {
		if a.span == s.idx && a.Key == key {
			return a, true
		}
	}
	return Attr{}, false
}

// Trace returns the request trace s belongs to, so a caller handed only
// a span can read back what ran beneath it. Nil-safe.
func (s *Span) Trace() *ReqTrace {
	if s == nil {
		return nil
	}
	return s.req
}

// ReqTrace is the span tree of one request: a root span (index 0) plus
// every child opened during execution, in start order. It is built by
// one goroutine between Tracer.Start and Tracer.Finish; the traces the
// recorder's readers return are private copies.
type ReqTrace struct {
	ID           uint64
	Begin        time.Time // wall clock; carries the monotonic anchor
	DurationNs   int64     // set by Finish
	DroppedSpans int32     // children discarded at span capacity

	spans []Span  // capacity is the span limit while building
	attrs []Attr  // every span's attributes, in setting order
	owner *Tracer // whose pool the buffer is from; nil for StartTrace
}

// newTrace returns an empty build buffer for at most maxSpans spans.
func newTrace(owner *Tracer, maxSpans int) *ReqTrace {
	return &ReqTrace{spans: make([]Span, 0, maxSpans), owner: owner}
}

// begin starts a new tree in r's storage, which is empty: fresh, or
// emptied by the Finish that pooled it.
func (r *ReqTrace) begin(name string, id uint64) *ReqTrace {
	r.ID, r.Begin, r.DurationNs, r.DroppedSpans = id, time.Now(), 0, 0
	r.spans = append(r.spans, Span{Name: name, Parent: -1, req: r})
	return r
}

// copyTrace makes dst a self-contained copy of src, reusing dst's
// storage: the assignment both directions of the recorder ring use.
func copyTrace(dst, src *ReqTrace) {
	dst.ID, dst.Begin, dst.DurationNs, dst.DroppedSpans = src.ID, src.Begin, src.DurationNs, src.DroppedSpans
	dst.spans = append(dst.spans[:0], src.spans...)
	for i := range dst.spans {
		dst.spans[i].req = dst
	}
	dst.attrs = append(dst.attrs[:0], src.attrs...)
}

// sinceBegin is the monotonic offset from the request's begin instant.
func (r *ReqTrace) sinceBegin() int64 { return time.Since(r.Begin).Nanoseconds() }

// Root returns the request's root span. Safe on a nil trace and on one
// already finished (both yield nil), so the whole span API chains off a
// possibly-nil trace: req.Root().StartChild(...).SetInt(...).
func (r *ReqTrace) Root() *Span {
	if r == nil || len(r.spans) == 0 {
		return nil
	}
	return &r.spans[0]
}

// Spans returns the trace's spans in start order (index 0 is the root).
// Callers must not mutate the slice.
func (r *ReqTrace) Spans() []Span {
	if r == nil {
		return nil
	}
	return r.spans
}

// Span returns the first span with the given name, or nil.
func (r *ReqTrace) Span(name string) *Span {
	if r == nil {
		return nil
	}
	for i := range r.spans {
		if r.spans[i].Name == name {
			return &r.spans[i]
		}
	}
	return nil
}

// Duration is the request's total extent as measured by Finish.
func (r *ReqTrace) Duration() time.Duration {
	if r == nil {
		return 0
	}
	return time.Duration(r.DurationNs) * time.Nanosecond
}

// TracerOptions configures a Tracer.
type TracerOptions struct {
	// RingSize is the flight recorder's capacity in completed request
	// traces (the newest RingSize survive). 0 means DefaultRingSize.
	RingSize int
	// SlowRingSize bounds the slow-request log. 0 means
	// DefaultSlowRingSize.
	SlowRingSize int
	// SlowThreshold is the duration at or above which a finished request
	// is also retained in the slow log. 0 means DefaultSlowThreshold;
	// negative disables the slow log.
	SlowThreshold time.Duration
	// Sample head-samples recording: only every Sample-th request is
	// recorded (1, the default for 0, records every request). The
	// decision is made at Start, so sampled-out requests cost nothing.
	Sample int
	// MaxSpans caps the spans recorded per request; children beyond the
	// cap are dropped and counted. 0 means DefaultMaxSpans.
	MaxSpans int
	// Disabled builds a tracer that never records.
	Disabled bool
}

// Defaults for TracerOptions zero values.
const (
	DefaultRingSize      = 256
	DefaultSlowRingSize  = 64
	DefaultSlowThreshold = time.Millisecond
	DefaultMaxSpans      = 64
)

// Tracer decides which requests are recorded and retains their span
// trees: every finished sampled-in request lands in the flight
// recorder (a fixed ring — bounded retention, always on), and requests
// at or above the slow threshold are additionally retained in a
// separate slow log so a burst of fast traffic cannot evict the
// evidence of a slow one. All methods are safe for concurrent use and
// nil-receiver safe on the hot path (Start/Finish), so layers can
// thread an optional tracer without guards.
type Tracer struct {
	enabled  bool
	sample   uint64       // head-sampling modulus
	slowNs   atomic.Int64 // slow threshold; < 0 disables
	seq      atomic.Uint64
	recorded atomic.Uint64
	slowRec  atomic.Uint64
	misuse   atomic.Uint64 // span API calls dropped by the lifecycle check
	maxSpans int
	bufs     sync.Pool // *ReqTrace build buffers between Finish and the next Start
	recent   *ring[ReqTrace]
	slow     *ring[ReqTrace]
}

// NewTracer builds a tracer with the given options (nil for defaults).
func NewTracer(opts *TracerOptions) *Tracer {
	o := TracerOptions{}
	if opts != nil {
		o = *opts
	}
	if o.RingSize <= 0 {
		o.RingSize = DefaultRingSize
	}
	if o.SlowRingSize <= 0 {
		o.SlowRingSize = DefaultSlowRingSize
	}
	if o.SlowThreshold == 0 {
		o.SlowThreshold = DefaultSlowThreshold
	}
	if o.Sample <= 0 {
		o.Sample = 1
	}
	if o.MaxSpans <= 0 {
		o.MaxSpans = DefaultMaxSpans
	}
	t := &Tracer{
		enabled:  !o.Disabled,
		sample:   uint64(o.Sample),
		maxSpans: o.MaxSpans,
		recent:   newRing(o.RingSize, copyTrace),
		slow:     newRing(o.SlowRingSize, copyTrace),
	}
	t.SetSlowThreshold(o.SlowThreshold)
	return t
}

// Enabled reports whether Start records. Nil-safe.
func (t *Tracer) Enabled() bool { return t != nil && t.enabled }

// SetSlowThreshold changes the slow-log threshold (negative disables).
func (t *Tracer) SetSlowThreshold(d time.Duration) {
	if d < 0 {
		t.slowNs.Store(-1)
		return
	}
	t.slowNs.Store(d.Nanoseconds())
}

// Start begins the span tree for one request, returning nil — the
// zero-cost signal every downstream layer honours — when the tracer is
// nil, disabled, or the request is head-sampled out. name becomes the
// root span's name. The trace is the caller's until it is passed to
// Finish.
func (t *Tracer) Start(name string) *ReqTrace {
	if t == nil || !t.enabled {
		return nil
	}
	id := t.seq.Add(1)
	if t.sample > 1 && id%t.sample != 0 {
		return nil
	}
	r, _ := t.bufs.Get().(*ReqTrace)
	if r == nil {
		r = newTrace(t, t.maxSpans)
	}
	return r.begin(name, id)
}

// StartTrace begins a span tree no tracer will retain (ID 0, default
// span capacity): for a caller that must read a query's spans back even
// when the recorder is off or sampled the request out — the explain
// verb does.
func StartTrace(name string) *ReqTrace { return newTrace(nil, DefaultMaxSpans).begin(name, 0) }

// Finish closes the request's root span, stamps the total duration and
// retains a copy of the trace: always in the flight recorder, and
// additionally in the slow log when the duration reaches the threshold.
// Nil-safe in both receiver and argument. The trace's storage goes back
// to the tracer: the caller must not touch r, or any span of it, again
// (a call that does is dropped and counted, see Misuses).
func (t *Tracer) Finish(r *ReqTrace) {
	t.finish(r, true)
}

// FinishRecentOnly is Finish without slow-log consideration, for traces
// whose duration is a lifetime rather than a latency (a connection, a
// session): they would otherwise always exceed the threshold and evict
// genuinely slow requests from the bounded slow ring.
func (t *Tracer) FinishRecentOnly(r *ReqTrace) {
	t.finish(r, false)
}

func (t *Tracer) finish(r *ReqTrace, slowEligible bool) {
	if t == nil || r == nil {
		return
	}
	if len(r.spans) == 0 {
		t.misused() // finished already
		return
	}
	d := r.sinceBegin()
	r.DurationNs = d
	r.spans[0].EndNs = d
	for i := 1; i < len(r.spans); i++ {
		if r.spans[i].EndNs == 0 {
			t.misused() // a child never ended: recorded open
		}
	}
	t.recent.push(r)
	t.recorded.Add(1)
	if s := t.slowNs.Load(); slowEligible && s >= 0 && d >= s {
		t.slow.push(r)
		t.slowRec.Add(1)
	}
	r.spans, r.attrs = r.spans[:0], r.attrs[:0]
	t.bufs.Put(r)
}

// Recent returns copies of up to n retained request traces, newest
// first. Nil-safe.
func (t *Tracer) Recent(n int) []*ReqTrace {
	if t == nil {
		return nil
	}
	return t.recent.last(n)
}

// Slow returns copies of up to n retained slow-request traces, newest
// first. Nil-safe.
func (t *Tracer) Slow(n int) []*ReqTrace {
	if t == nil {
		return nil
	}
	return t.slow.last(n)
}

// Find returns a copy of the retained trace with the given ID —
// searching the flight recorder first, then the slow log (a slow trace
// can outlive its recorder slot) — or nil. Nil-safe.
func (t *Tracer) Find(id uint64) *ReqTrace {
	if t == nil {
		return nil
	}
	match := func(r *ReqTrace) bool { return r.ID == id }
	if r := t.recent.find(match); r != nil {
		return r
	}
	return t.slow.find(match)
}

// Recorded reports how many request traces Finish has retained.
func (t *Tracer) Recorded() uint64 {
	if t == nil {
		return 0
	}
	return t.recorded.Load()
}

// SlowRecorded reports how many traces crossed the slow threshold.
func (t *Tracer) SlowRecorded() uint64 {
	if t == nil {
		return 0
	}
	return t.slowRec.Load()
}

// Misuses reports how many span lifecycle violations were dropped or
// flagged: a call on a span of a finished trace, a Finish of a trace
// already finished, and a child span still open at its trace's Finish.
// A correct caller keeps it at 0.
func (t *Tracer) Misuses() uint64 {
	if t == nil {
		return 0
	}
	return t.misuse.Load()
}

func (t *Tracer) misused() {
	if t != nil {
		t.misuse.Add(1)
	}
}

// RegisterMetrics exposes the tracer's own health on a registry, so a
// /metrics scrape shows whether the recorder is on and how much it has
// retained.
func (t *Tracer) RegisterMetrics(reg *Registry) {
	reg.GaugeFunc("trace_recorded_total", func() float64 { return float64(t.Recorded()) })
	reg.GaugeFunc("trace_slow_recorded_total", func() float64 { return float64(t.SlowRecorded()) })
	reg.GaugeFunc("trace_misuse_total", func() float64 { return float64(t.Misuses()) })
	reg.GaugeFunc("trace_recorder_enabled", func() float64 {
		if t.Enabled() {
			return 1
		}
		return 0
	})
}
