package obs

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// This file is the metric-history layer: a Sampler that periodically
// renders a Registry into timestamped Frames, and a History ring that
// retains the newest frames for rate derivation, SLO evaluation
// (health.go) and JSON export. Publication follows the flight
// recorder's discipline: one assignment into a ring slot per frame, so
// the routing hot path never contends with a scrape — samplers only
// *read* the lock-free instruments other goroutines write.

// Frame is one timestamped rendering of a registry: every metric's
// value at the sample instant, sorted by name. A frame is immutable
// after publication and may be read concurrently.
type Frame struct {
	Seq    uint64    // 1-based sample sequence number
	At     time.Time // sample instant (wall clock, monotonic anchor)
	Values []NamedValue
}

// Value looks a metric up by name (binary search over the sorted
// values). The second result is false when the frame has no such
// metric.
func (f *Frame) Value(name string) (any, bool) {
	if f == nil {
		return nil, false
	}
	i := sort.Search(len(f.Values), func(i int) bool { return f.Values[i].Name >= name })
	if i < len(f.Values) && f.Values[i].Name == name {
		return f.Values[i].Value, true
	}
	return nil, false
}

// Number returns a metric's value as a float64: counters (uint64),
// gauges (int64) and gauge funcs (float64) all coerce; histograms and
// missing metrics report false.
func (f *Frame) Number(name string) (float64, bool) {
	v, ok := f.Value(name)
	if !ok {
		return 0, false
	}
	switch n := v.(type) {
	case uint64:
		return float64(n), true
	case int64:
		return float64(n), true
	case float64:
		return n, true
	}
	return 0, false
}

// Histogram returns a metric's value as a histogram snapshot, when it
// is one.
func (f *Frame) Histogram(name string) (HistogramSnapshot, bool) {
	v, ok := f.Value(name)
	if !ok {
		return HistogramSnapshot{}, false
	}
	h, ok := v.(HistogramSnapshot)
	return h, ok
}

// History is a fixed-size ring of the newest frames (ring.go: by-value
// slots, approximate reads during traffic). A frame's values are never
// written after publication, so slots and readers share them.
type History struct {
	frames *ring[Frame]
}

// DefaultHistorySize is the frame capacity when SamplerOptions.Capacity
// is zero: at the default 1s interval, a bit over two minutes of
// history.
const DefaultHistorySize = 128

// NewHistory builds an empty ring with the given capacity (values < 2
// are raised to 2 — rate derivation needs frame pairs).
func NewHistory(capacity int) *History {
	return &History{frames: newRing(max(capacity, 2), func(dst, src *Frame) { *dst = *src })}
}

// Push publishes one frame.
func (h *History) Push(f *Frame) { h.frames.push(f) }

// Cap reports the ring's frame capacity.
func (h *History) Cap() int { return len(h.frames.slots) }

// Len reports how many frames are currently retained.
func (h *History) Len() int { return h.frames.len() }

// Last returns up to n retained frames, newest first. Nil-safe.
func (h *History) Last(n int) []*Frame {
	if h == nil {
		return nil
	}
	return h.frames.last(n)
}

// Latest returns the newest frame, or nil before the first sample.
func (h *History) Latest() *Frame {
	fs := h.Last(1)
	if len(fs) == 0 {
		return nil
	}
	return fs[0]
}

// Rate derives a counter's per-second rate over the last `back` frame
// gaps (back=1 compares the two newest frames). The rate is computed
// from the frame pair's values and timestamps, so irregular sampling
// (a stalled ticker, a manual SampleNow) still yields a truthful
// per-second figure. A counter reset between the frames (process
// restart: later < earlier) clamps to 0 rather than reporting a
// negative rate. The second result is false when fewer than back+1
// frames exist, the metric is missing from either frame, or the frame
// gap has no measurable duration.
func (h *History) Rate(metric string, back int) (float64, bool) {
	if back < 1 {
		back = 1
	}
	fs := h.Last(back + 1)
	if len(fs) < back+1 {
		return 0, false
	}
	newer, older := fs[0], fs[len(fs)-1]
	v1, ok1 := newer.Number(metric)
	v0, ok0 := older.Number(metric)
	dt := newer.At.Sub(older.At).Seconds()
	if !ok1 || !ok0 || dt <= 0 {
		return 0, false
	}
	d := v1 - v0
	if d < 0 {
		d = 0 // counter reset
	}
	return d / dt, true
}

// WindowDelta derives a histogram's distribution over the last `back`
// frame gaps: the newest snapshot minus the one back frames earlier
// (HistogramSnapshot.Sub, which handles counter resets by falling back
// to the newer snapshot). The second result is false when frames or
// the metric are missing.
func (h *History) WindowDelta(metric string, back int) (HistogramSnapshot, bool) {
	if back < 1 {
		back = 1
	}
	fs := h.Last(back + 1)
	if len(fs) < back+1 {
		return HistogramSnapshot{}, false
	}
	newer, ok1 := fs[0].Histogram(metric)
	older, ok0 := fs[len(fs)-1].Histogram(metric)
	if !ok1 || !ok0 {
		return HistogramSnapshot{}, false
	}
	return newer.Sub(older), true
}

// WriteJSON exports the newest n frames (all retained when n <= 0) as
// a JSON array in chronological order, each frame an object with its
// sequence number, RFC3339Nano timestamp and metric values in sorted
// name order — the deterministic series shape diagnostic bundles and
// /debug/history serve.
func (h *History) WriteJSON(w io.Writer, n int) error {
	if n <= 0 || n > h.Cap() {
		n = h.Cap()
	}
	fs := h.Last(n)
	// Reverse to chronological order.
	for i, j := 0, len(fs)-1; i < j; i, j = i+1, j-1 {
		fs[i], fs[j] = fs[j], fs[i]
	}
	var buf bytes.Buffer
	buf.WriteString("[\n")
	for i, f := range fs {
		if i > 0 {
			buf.WriteString(",\n")
		}
		buf.WriteString(`{"seq":`)
		buf.WriteString(strconv.FormatUint(f.Seq, 10))
		buf.WriteString(`,"at":`)
		at, err := json.Marshal(f.At.Format(time.RFC3339Nano))
		if err != nil {
			return err
		}
		buf.Write(at)
		buf.WriteString(`,"values":{`)
		for j, nv := range f.Values {
			if j > 0 {
				buf.WriteByte(',')
			}
			key, err := json.Marshal(nv.Name)
			if err != nil {
				return err
			}
			buf.Write(key)
			buf.WriteByte(':')
			val, err := json.Marshal(nv.Value)
			if err != nil {
				return err
			}
			buf.Write(val)
		}
		buf.WriteString("}}")
	}
	buf.WriteString("\n]\n")
	_, err := w.Write(buf.Bytes())
	return err
}

// ServeHTTP serves the frame series as JSON; ?n= bounds the frame
// count (default: everything retained).
func (h *History) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	n := 0
	if s := r.URL.Query().Get("n"); s != "" {
		if v, err := strconv.Atoi(s); err == nil && v > 0 {
			n = v
		}
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	_ = h.WriteJSON(w, n)
}

// SamplerOptions configures a Sampler.
type SamplerOptions struct {
	// Interval between samples. 0 means DefaultSampleInterval; the
	// sampler never ticks faster than MinSampleInterval.
	Interval time.Duration
	// Capacity is the history ring's frame count. 0 means
	// DefaultHistorySize.
	Capacity int
}

// Sampling interval bounds.
const (
	DefaultSampleInterval = time.Second
	MinSampleInterval     = time.Millisecond
)

// Sampler periodically snapshots a Registry into a History ring and,
// when a Health is attached, evaluates its SLO rules against the ring
// after every sample. The sampler is pull-based: the instrumented hot
// paths never see it — each tick reads the registry's lock-free
// instruments from a background goroutine, so steady-state sampling
// costs the serving path nothing (TestCachedRouteFromAllocationFree
// holds the cached route at zero allocations beside a running sampler).
type Sampler struct {
	reg      *Registry
	hist     *History
	interval time.Duration
	health   atomic.Pointer[Health]
	seq      atomic.Uint64
	samples  atomic.Uint64

	mu   sync.Mutex
	stop chan struct{}
	done chan struct{}
}

// NewSampler builds a sampler over reg (nil opts for defaults). The
// sampler is idle until Start (SampleNow works at any time).
func NewSampler(reg *Registry, opts *SamplerOptions) *Sampler {
	o := SamplerOptions{}
	if opts != nil {
		o = *opts
	}
	if o.Interval <= 0 {
		o.Interval = DefaultSampleInterval
	}
	if o.Interval < MinSampleInterval {
		o.Interval = MinSampleInterval
	}
	if o.Capacity <= 0 {
		o.Capacity = DefaultHistorySize
	}
	return &Sampler{
		reg:      reg,
		hist:     NewHistory(o.Capacity),
		interval: o.Interval,
	}
}

// History exposes the sampler's frame ring. Nil-safe.
func (s *Sampler) History() *History {
	if s == nil {
		return nil
	}
	return s.hist
}

// Interval reports the configured sampling interval.
func (s *Sampler) Interval() time.Duration { return s.interval }

// Samples reports how many frames have been captured. Nil-safe.
func (s *Sampler) Samples() uint64 {
	if s == nil {
		return 0
	}
	return s.samples.Load()
}

// AttachHealth makes every subsequent sample evaluate h against the
// ring (nil detaches).
func (s *Sampler) AttachHealth(h *Health) { s.health.Store(h) }

// SampleNow captures one frame synchronously — the tick body, also
// called directly by tests and by export paths that want a frame no
// older than now. Safe for concurrent use with the background loop
// (each call captures and publishes its own frame).
func (s *Sampler) SampleNow() *Frame {
	f := &Frame{
		Seq:    s.seq.Add(1),
		At:     time.Now(),
		Values: s.reg.SnapshotOrdered(),
	}
	s.hist.Push(f)
	s.samples.Add(1)
	if h := s.health.Load(); h != nil {
		h.Eval(s.hist)
	}
	return f
}

// Start launches the background sampling loop. Starting a running
// sampler is a no-op. Nil-safe, so optional sampling threads through
// call sites without guards.
func (s *Sampler) Start() {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.stop != nil {
		return
	}
	s.stop = make(chan struct{})
	s.done = make(chan struct{})
	go s.loop(s.stop, s.done)
}

// Stop halts the background loop and waits for it to exit. Stopping an
// idle (or nil) sampler is a no-op.
func (s *Sampler) Stop() {
	if s == nil {
		return
	}
	s.mu.Lock()
	stop, done := s.stop, s.done
	s.stop, s.done = nil, nil
	s.mu.Unlock()
	if stop == nil {
		return
	}
	close(stop)
	<-done
}

func (s *Sampler) loop(stop, done chan struct{}) {
	defer close(done)
	t := time.NewTicker(s.interval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			s.SampleNow()
		case <-stop:
			return
		}
	}
}

// RegisterMetrics exposes the sampler's own state on a registry, so the
// history subsystem is visible in the very frames it captures.
func (s *Sampler) RegisterMetrics(reg *Registry) {
	reg.GaugeFunc("obs_sampler_frames_total", func() float64 { return float64(s.Samples()) })
	reg.GaugeFunc("obs_sampler_interval_ms", func() float64 {
		return float64(s.interval) / float64(time.Millisecond)
	})
}
