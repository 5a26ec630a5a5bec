package obs

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"sort"
	"sync"
)

// Registry names and owns a set of metrics. Metric accessors are
// get-or-create, so independently-instrumented layers (engine, session,
// server) can share one registry without coordinating construction
// order. All methods are safe for concurrent use.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	gaugeFuncs map[string]func() float64
	histograms map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		gaugeFuncs: make(map[string]func() float64),
		histograms: make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// GaugeFunc registers a derived gauge evaluated lazily at snapshot
// time — the natural fit for levels another structure already tracks
// (cache size, epoch, utilization). Re-registering a name replaces the
// function.
func (r *Registry) GaugeFunc(name string, fn func() float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.gaugeFuncs[name] = fn
}

// Histogram returns the named histogram, creating it with the given
// bounds on first use (later bounds are ignored — first caller wins).
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[name]
	if !ok {
		h = NewHistogram(bounds)
		r.histograms[name] = h
	}
	return h
}

// Snapshot renders every metric to a JSON-serializable map: counters
// and gauges as numbers, histograms as HistogramSnapshot objects.
// GaugeFuncs are evaluated outside the registry lock so a slow or
// re-entrant func cannot deadlock metric creation.
func (r *Registry) Snapshot() map[string]any {
	r.mu.Lock()
	out := make(map[string]any, len(r.counters)+len(r.gauges)+len(r.gaugeFuncs)+len(r.histograms))
	funcs := make(map[string]func() float64, len(r.gaugeFuncs))
	for name, c := range r.counters {
		out[name] = c.Value()
	}
	for name, g := range r.gauges {
		out[name] = g.Value()
	}
	for name, h := range r.histograms {
		out[name] = h.Snapshot()
	}
	for name, fn := range r.gaugeFuncs {
		funcs[name] = fn
	}
	r.mu.Unlock()
	for name, fn := range funcs {
		out[name] = fn()
	}
	return out
}

// NamedValue is one metric of an ordered snapshot: the registered name
// plus its rendered value (uint64 for counters, int64 for gauges,
// float64 for gauge functions, HistogramSnapshot for histograms).
type NamedValue struct {
	Name  string
	Value any
}

// SnapshotOrdered renders every metric like Snapshot but as a slice
// sorted by name — the deterministic form WriteJSON and soak tooling
// consume, immune to map iteration order. GaugeFuncs are evaluated
// outside the registry lock, exactly as in Snapshot.
func (r *Registry) SnapshotOrdered() []NamedValue {
	r.mu.Lock()
	out := make([]NamedValue, 0, len(r.counters)+len(r.gauges)+len(r.gaugeFuncs)+len(r.histograms))
	for name, c := range r.counters {
		out = append(out, NamedValue{Name: name, Value: c.Value()})
	}
	for name, g := range r.gauges {
		out = append(out, NamedValue{Name: name, Value: g.Value()})
	}
	for name, h := range r.histograms {
		out = append(out, NamedValue{Name: name, Value: h.Snapshot()})
	}
	type namedFunc struct {
		name string
		fn   func() float64
	}
	funcs := make([]namedFunc, 0, len(r.gaugeFuncs))
	for name, fn := range r.gaugeFuncs {
		funcs = append(funcs, namedFunc{name: name, fn: fn})
	}
	r.mu.Unlock()
	for _, nf := range funcs {
		out = append(out, NamedValue{Name: nf.name, Value: nf.fn()})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// WriteJSON renders the snapshot as indented JSON with a trailing
// newline. Keys are emitted in sorted name order by construction (the
// object is assembled from SnapshotOrdered, not from a map), so two
// scrapes of an unchanged registry are byte-identical — the property
// soak tooling diffs against, pinned by a golden test.
func (r *Registry) WriteJSON(w io.Writer) error {
	ordered := r.SnapshotOrdered()
	if len(ordered) == 0 {
		_, err := io.WriteString(w, "{}\n")
		return err
	}
	var buf bytes.Buffer
	buf.WriteByte('{')
	for i, nv := range ordered {
		if i > 0 {
			buf.WriteByte(',')
		}
		buf.WriteString("\n  ")
		key, err := json.Marshal(nv.Name)
		if err != nil {
			return err
		}
		buf.Write(key)
		buf.WriteString(": ")
		val, err := json.MarshalIndent(nv.Value, "  ", "  ")
		if err != nil {
			return err
		}
		buf.Write(val)
	}
	buf.WriteString("\n}\n")
	_, err := w.Write(buf.Bytes())
	return err
}

// ServeHTTP serves the JSON snapshot, so a registry can be mounted
// directly on a debug mux (wdmserve exposes it at /metrics).
func (r *Registry) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	_ = r.WriteJSON(w)
}
