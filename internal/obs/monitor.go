package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Frame is one timestamped rendering of a registry: every metric's
// value at the sample instant, sorted by name. A frame is immutable
// after publication and may be read concurrently.
type Frame struct {
	Seq    uint64    // 1-based sample sequence number
	At     time.Time // sample instant (wall clock, monotonic anchor)
	Values []NamedValue
}

// value looks a metric up by name (binary search over the sorted values).
func (f *Frame) value(name string) (any, bool) {
	i := sort.Search(len(f.Values), func(i int) bool { return f.Values[i].Name >= name })
	if i < len(f.Values) && f.Values[i].Name == name {
		return f.Values[i].Value, true
	}
	return nil, false
}

// number coerces counters (uint64), gauges (int64) and gauge funcs
// (float64) to a float64; histograms and missing metrics report false.
func (f *Frame) number(name string) (float64, bool) {
	v, _ := f.value(name)
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

// Rate is a counter's per-second rate from older to newer, computed
// from the frames' own timestamps so an irregular gap still reads
// truthfully. A counter that went backwards (a process restart) clamps
// to 0. The second result is false when either frame lacks the metric
// or the gap has no measurable duration.
func Rate(newer, older *Frame, metric string) (float64, bool) {
	v1, ok1 := newer.number(metric)
	v0, ok0 := older.number(metric)
	if !ok1 || !ok0 || !newer.At.After(older.At) {
		return 0, false
	}
	return max(v1-v0, 0) / newer.At.Sub(older.At).Seconds(), true
}

// Window is a histogram's distribution between two frames: the newer
// snapshot minus the older (HistogramSnapshot.Sub, which falls back to
// the newer snapshot across a reset). The second result is false when
// either frame lacks the histogram.
func Window(newer, older *Frame, metric string) (HistogramSnapshot, bool) {
	nv, _ := newer.value(metric)
	ov, _ := older.value(metric)
	nh, ok1 := nv.(HistogramSnapshot)
	oh, ok0 := ov.(HistogramSnapshot)
	if !ok1 || !ok0 {
		return HistogramSnapshot{}, false
	}
	return nh.Sub(oh), true
}

// HealthStatus is the folded verdict of all health rules. The ordering
// is severity: a failing rule dominates a degraded one.
type HealthStatus int

// Health statuses, in ascending severity.
const (
	HealthOK HealthStatus = iota
	HealthDegraded
	HealthFailing
)

var statusNames = [...]string{"ok", "degraded", "failing"}

// String renders the status the way the protocol and /healthz spell it.
func (s HealthStatus) String() string {
	if s >= 0 && int(s) < len(statusNames) {
		return statusNames[s]
	}
	return fmt.Sprintf("HealthStatus(%d)", int(s))
}

// MarshalJSON renders the status as its string form.
func (s HealthStatus) MarshalJSON() ([]byte, error) {
	return json.Marshal(s.String())
}

// Rule is one health rule over the newest frame gap. It reads the
// per-second Rate of a counter or, when Quantile > 0, that quantile of
// the histogram's Window, and breaches when the value is strictly above
// Threshold. It fires after sustain consecutive breaching samples and
// then imposes Severity (HealthDegraded or HealthFailing).
type Rule struct {
	Name      string
	Metric    string
	Quantile  float64
	Threshold float64
	Severity  HealthStatus
}

// sustain is how many consecutive breaching samples fire a rule: one
// noisy frame never flips the status, one clean frame resets the streak.
const sustain = 3

// value is the rule's reading of the gap between two frames.
func (r Rule) value(newer, older *Frame) (float64, bool) {
	if r.Quantile <= 0 {
		return Rate(newer, older, r.Metric)
	}
	d, ok := Window(newer, older, r.Metric)
	if !ok || d.Count == 0 {
		return 0, false
	}
	return d.Quantile(r.Quantile), true
}

// RuleState is one rule's most recent check, for detail reporting.
type RuleState struct {
	Name      string       `json:"name"`
	Metric    string       `json:"metric"`
	Kind      string       `json:"kind"`
	Value     float64      `json:"value"`
	Known     bool         `json:"known"` // false: metric/frames missing, rule cannot breach
	Threshold float64      `json:"threshold"`
	Streak    int          `json:"streak"`
	Sustain   int          `json:"sustain"`
	Firing    bool         `json:"firing"`
	Severity  HealthStatus `json:"severity"`
}

// Fixed sizes: wdmserve's default interval, the frame ring (at one
// sample a second, a bit over two minutes), the fastest tick, and the
// bundle rate limit and per-process cap that keep a flapping rule from
// filling the disk.
const (
	DefaultSampleInterval = time.Second
	HistorySize           = 128
	minSampleInterval     = time.Millisecond
	bundleMinInterval     = time.Minute
	maxBundles            = 16
)

// Monitor is the process's self-observation. It samples a Registry into
// a ring of Frames on a fixed interval, checks a fixed table of rules
// after every sample, and writes a diagnostic bundle when the status
// moves into failing. It only reads the lock-free instruments the
// serving goroutines write, so the request path never sees it
// (TestCachedRouteFromAllocationFree holds a cached query at zero
// allocations beside a running Monitor). Safe for concurrent use.
type Monitor struct {
	reg      *Registry
	interval time.Duration // 0: sampling off, the rules stay unknown
	frames   *ring[Frame]
	seq      atomic.Uint64

	mu          sync.Mutex // rule states
	rules       []Rule
	states      []RuleState
	status      atomic.Int64 // HealthStatus, written under mu
	transitions atomic.Uint64

	bundleDir   string // "": no bundles
	tracer      *Tracer
	config      []byte
	log         io.Writer
	bundleMu    sync.Mutex // bundle sequence and rate limit
	bundleEvery time.Duration
	maxBundles  int
	bundleSeq   uint64
	lastBundle  time.Time
	written     atomic.Uint64
	suppressed  atomic.Uint64

	loopMu sync.Mutex
	stop   chan struct{}
	done   chan struct{}
}

// NewMonitor builds a monitor over reg checking rules after every
// sample, and registers its own gauges on reg. interval <= 0 turns
// sampling off: the monitor still answers health (ok, every rule
// unknown) but keeps no history. The monitor is idle until Start.
func NewMonitor(reg *Registry, interval time.Duration, rules []Rule) *Monitor {
	m := &Monitor{
		reg:         reg,
		frames:      newRing(HistorySize, func(dst, src *Frame) { *dst = *src }),
		rules:       rules,
		states:      make([]RuleState, len(rules)),
		bundleEvery: bundleMinInterval,
		maxBundles:  maxBundles,
	}
	for i, r := range rules {
		kind := "rate"
		if r.Quantile > 0 {
			kind = "quantile"
		}
		m.states[i] = RuleState{Name: r.Name, Metric: r.Metric, Kind: kind,
			Threshold: r.Threshold, Sustain: sustain, Severity: r.Severity}
	}
	reg.GaugeFunc("health_status", func() float64 { return float64(m.Status()) })
	reg.GaugeFunc("health_transitions_total", func() float64 { return float64(m.transitions.Load()) })
	if interval > 0 {
		m.interval = max(interval, minSampleInterval)
		reg.GaugeFunc("obs_sampler_frames_total", func() float64 { return float64(m.seq.Load()) })
		reg.GaugeFunc("obs_sampler_interval_ms", func() float64 { return m.interval.Seconds() * 1e3 })
	}
	return m
}

// BundleOnFailing makes every transition into failing write a bundle
// under dir (artifacts below; config verbatim as config.txt) and report
// it in one line to log (nil: silent). Call before Start.
func (m *Monitor) BundleOnFailing(dir string, tracer *Tracer, config []byte, log io.Writer) {
	m.bundleDir, m.tracer, m.config, m.log = dir, tracer, config, log
	m.reg.GaugeFunc("obs_bundles_written_total", func() float64 { return float64(m.written.Load()) })
	m.reg.GaugeFunc("obs_bundles_suppressed_total", func() float64 { return float64(m.suppressed.Load()) })
}

// Sampling reports whether the monitor keeps a history. Nil-safe.
func (m *Monitor) Sampling() bool { return m != nil && m.interval > 0 }

// Last returns up to n retained frames, newest first.
func (m *Monitor) Last(n int) []*Frame { return m.frames.last(n) }

// SampleNow captures one frame and checks the rules: the tick body.
func (m *Monitor) SampleNow() *Frame {
	f := &Frame{Seq: m.seq.Add(1), At: time.Now(), Values: m.reg.SnapshotOrdered()}
	m.frames.push(f)
	m.check()
	return f
}

// check folds every rule's value over the newest frame gap into the
// status. An unknowable value (metric or frames missing, empty window)
// never breaches. The transition into failing writes a bundle.
func (m *Monitor) check() {
	fs := m.frames.last(2)
	m.mu.Lock()
	status := HealthOK
	for i, r := range m.rules {
		st := &m.states[i]
		st.Value, st.Known = 0, false
		if len(fs) == 2 {
			st.Value, st.Known = r.value(fs[0], fs[1])
		}
		if st.Known && st.Value > r.Threshold {
			st.Streak++
		} else {
			st.Streak = 0
		}
		st.Firing = st.Streak >= sustain
		if st.Firing && r.Severity > status {
			status = r.Severity
		}
	}
	from := HealthStatus(m.status.Swap(int64(status)))
	if status != from {
		m.transitions.Add(1)
	}
	m.mu.Unlock()
	if status == HealthFailing && from != HealthFailing && m.bundleDir != "" {
		path, err := m.Capture("health_failing")
		switch {
		case m.log == nil:
		case err != nil:
			fmt.Fprintf(m.log, "health failing: bundle capture failed: %v\n", err)
		case path != "":
			fmt.Fprintf(m.log, "health failing: diagnostic bundle captured at %s\n", path)
		}
	}
}

// Status reports the folded status of the most recent check.
func (m *Monitor) Status() HealthStatus { return HealthStatus(m.status.Load()) }

// Detail reports every rule's most recent check, in table order.
func (m *Monitor) Detail() []RuleState {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]RuleState(nil), m.states...)
}

// Start launches the background sampling loop. A no-op when sampling is
// off, already running, or m is nil.
func (m *Monitor) Start() {
	if !m.Sampling() {
		return
	}
	m.loopMu.Lock()
	defer m.loopMu.Unlock()
	if m.stop == nil {
		m.stop, m.done = make(chan struct{}), make(chan struct{})
		go m.loop(m.stop, m.done)
	}
}

// Stop halts the loop and waits for it to exit. Nil-safe and
// idempotent.
func (m *Monitor) Stop() {
	if m == nil {
		return
	}
	m.loopMu.Lock()
	stop, done := m.stop, m.done
	m.stop, m.done = nil, nil
	m.loopMu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
}

func (m *Monitor) loop(stop, done chan struct{}) {
	defer close(done)
	t := time.NewTicker(m.interval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			m.SampleNow()
		case <-stop:
			return
		}
	}
}

// writeHistory renders the newest n frames (n <= 0: all) as a JSON
// array, oldest first, each frame {seq, at (RFC3339Nano), values in
// name order}; "[]" when sampling is off.
func (m *Monitor) writeHistory(w io.Writer, n int) error {
	if !m.Sampling() {
		_, err := io.WriteString(w, "[]\n")
		return err
	}
	if n <= 0 {
		n = HistorySize
	}
	fs := m.Last(n)
	var buf bytes.Buffer
	buf.WriteString("[\n")
	for i := len(fs) - 1; i >= 0; i-- {
		values := make(map[string]any, len(fs[i].Values)) // encoding/json sorts the keys
		for _, nv := range fs[i].Values {
			values[nv.Name] = nv.Value
		}
		enc, err := json.Marshal(struct {
			Seq    uint64         `json:"seq"`
			At     string         `json:"at"`
			Values map[string]any `json:"values"`
		}{fs[i].Seq, fs[i].At.Format(time.RFC3339Nano), values})
		if err != nil {
			return err
		}
		buf.Write(enc)
		if i > 0 {
			buf.WriteString(",\n")
		}
	}
	buf.WriteString("\n]\n")
	_, err := w.Write(buf.Bytes())
	return err
}

// ServeHistory serves the frame series as JSON, for mounting at
// /debug/history; ?n= bounds the frame count (default: all retained).
func (m *Monitor) ServeHistory(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	_ = m.writeHistory(w, queryN(r, 0))
}

// writeHealth renders the status and per-rule detail as indented JSON.
func (m *Monitor) writeHealth(w io.Writer) error {
	m.mu.Lock()
	body := struct {
		Status HealthStatus `json:"status"`
		Rules  []RuleState  `json:"rules"`
	}{m.Status(), append([]RuleState(nil), m.states...)}
	m.mu.Unlock()
	enc, err := json.MarshalIndent(body, "", "  ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(enc, '\n'))
	return err
}

// ServeHTTP implements /healthz: HTTP 200 with the JSON detail while ok
// or degraded (degraded still serves traffic), 503 once failing.
func (m *Monitor) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	var buf bytes.Buffer
	if err := m.writeHealth(&buf); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	if m.Status() == HealthFailing {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	_, _ = w.Write(buf.Bytes())
}

// artifact is one named file of a diagnostic bundle.
type artifact struct {
	name  string
	write func(io.Writer) error
}

// artifacts lists what a bundle holds, in manifest order.
func (m *Monitor) artifacts() []artifact {
	return []artifact{
		{"history.json", func(w io.Writer) error { return m.writeHistory(w, 0) }},
		{"metrics.json", m.reg.WriteJSON},
		{"health.json", m.writeHealth},
		{"traces_recent.json", func(w io.Writer) error { return WriteTraces(w, m.tracer.Recent(DefaultRingSize)) }},
		{"traces_slow.json", func(w io.Writer) error { return WriteTraces(w, m.tracer.Slow(DefaultSlowRingSize)) }},
		{"goroutines.txt", func(w io.Writer) error { return pprof.Lookup("goroutine").WriteTo(w, 2) }},
		{"heap.pprof", func(w io.Writer) error { return pprof.Lookup("heap").WriteTo(w, 0) }},
		{"config.txt", func(w io.Writer) error { _, err := w.Write(m.config); return err }},
	}
}

// Capture writes bundle-NNN-<reason> under the bundle directory and
// returns its path, as the transition into failing does. Inside the rate
// limit or past the cap it returns ("", nil) and counts as suppressed.
func (m *Monitor) Capture(reason string) (string, error) {
	return m.writeBundle(reason, m.artifacts())
}

// writeBundle writes into a hidden temp directory renamed into place
// only once every artifact and the manifest succeeded: nobody sees a
// partial bundle, and a failed attempt leaves no litter and no limit.
func (m *Monitor) writeBundle(reason string, arts []artifact) (string, error) {
	m.bundleMu.Lock()
	defer m.bundleMu.Unlock()
	now := time.Now()
	if m.bundleSeq >= uint64(m.maxBundles) ||
		m.bundleEvery > 0 && !m.lastBundle.IsZero() && now.Sub(m.lastBundle) < m.bundleEvery {
		m.suppressed.Add(1)
		return "", nil
	}
	if err := os.MkdirAll(m.bundleDir, 0o755); err != nil {
		return "", fmt.Errorf("bundle dir: %w", err)
	}
	tmp, err := os.MkdirTemp(m.bundleDir, ".bundle-tmp-")
	if err != nil {
		return "", fmt.Errorf("bundle temp dir: %w", err)
	}
	defer os.RemoveAll(tmp) // no-op after a successful rename
	manifest := struct {
		Reason    string    `json:"reason"`
		At        time.Time `json:"at"`
		Seq       uint64    `json:"seq"`
		Artifacts []string  `json:"artifacts"`
	}{Reason: reason, At: now, Seq: m.bundleSeq + 1}
	for _, a := range arts {
		var buf bytes.Buffer
		err := a.write(&buf)
		if err == nil {
			err = os.WriteFile(filepath.Join(tmp, a.name), buf.Bytes(), 0o644)
		}
		if err != nil {
			return "", fmt.Errorf("bundle artifact %s: %w", a.name, err)
		}
		manifest.Artifacts = append(manifest.Artifacts, a.name)
	}
	mf, err := json.MarshalIndent(manifest, "", "  ")
	if err != nil {
		return "", err
	}
	if err := os.WriteFile(filepath.Join(tmp, "manifest.json"), append(mf, '\n'), 0o644); err != nil {
		return "", fmt.Errorf("bundle manifest: %w", err)
	}
	final := filepath.Join(m.bundleDir, fmt.Sprintf("bundle-%03d-%s", m.bundleSeq+1, reason))
	if err := os.Rename(tmp, final); err != nil {
		return "", fmt.Errorf("bundle rename: %w", err)
	}
	m.bundleSeq++
	m.lastBundle = now
	m.written.Add(1)
	return final, nil
}
