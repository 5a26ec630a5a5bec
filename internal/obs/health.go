package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
)

// This file is the SLO layer over the metric history ring: declarative
// rules ("this metric's rate over the last N frames must stay under X,
// sustained for M frames") evaluated after every sample, folding into
// one ok/degraded/failing status with per-rule detail. The sustain
// requirement is what separates an SLO breach from a blip — one slow
// frame never flips the status, and one fast frame never clears it
// until the streak is actually broken.

// HealthStatus is the folded verdict of all health rules. The ordering
// is severity: a failing rule dominates a degraded one.
type HealthStatus int

// Health statuses, in ascending severity.
const (
	HealthOK HealthStatus = iota
	HealthDegraded
	HealthFailing
)

// String renders the status the way the protocol and /healthz spell it.
func (s HealthStatus) String() string {
	switch s {
	case HealthOK:
		return "ok"
	case HealthDegraded:
		return "degraded"
	case HealthFailing:
		return "failing"
	}
	return fmt.Sprintf("HealthStatus(%d)", int(s))
}

// MarshalJSON renders the status as its string form.
func (s HealthStatus) MarshalJSON() ([]byte, error) {
	return json.Marshal(s.String())
}

// RuleKind selects how a rule derives its value from the history ring.
type RuleKind int

// Rule kinds.
const (
	// RuleValue reads the metric's instantaneous value from the newest
	// frame (gauges, or counters where the absolute level matters).
	RuleValue RuleKind = iota
	// RuleRate derives the metric's per-second rate across the last
	// Window frame gaps (History.Rate) — the natural kind for shed and
	// blocking counters.
	RuleRate
	// RuleQuantile derives a quantile of the histogram's windowed delta
	// across the last Window frame gaps (History.WindowDelta) — "p99
	// over the last window", not since process start.
	RuleQuantile
)

// String names the kind for rule detail lines.
func (k RuleKind) String() string {
	switch k {
	case RuleValue:
		return "value"
	case RuleRate:
		return "rate"
	case RuleQuantile:
		return "quantile"
	}
	return fmt.Sprintf("RuleKind(%d)", int(k))
}

// RuleSpec declares one SLO rule: how to derive a value from the ring,
// the threshold it must stay at or under, and how many consecutive
// breaching frames it takes to fire.
type RuleSpec struct {
	// Metric is the registry name the rule watches.
	Metric string
	// Kind selects the derivation (value, rate, quantile).
	Kind RuleKind
	// Quantile is the target quantile for RuleQuantile (e.g. 0.99).
	Quantile float64
	// Window is how many frame gaps back the rate/quantile derivation
	// reaches (minimum and default 1: the two newest frames).
	Window int
	// Threshold is the exclusive ceiling: the rule breaches when the
	// derived value is strictly greater.
	Threshold float64
	// Sustain is how many consecutive breaching evaluations fire the
	// rule (minimum and default 1). With the sampler's fixed interval
	// this is the "for 3 frames" in "shed rate > X for 3 frames".
	Sustain int
	// Severity is the status a firing rule imposes (HealthDegraded or
	// HealthFailing; 0 means HealthDegraded).
	Severity HealthStatus
}

// RuleState is one rule's most recent evaluation, for detail reporting.
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

type healthRule struct {
	name   string
	spec   RuleSpec
	streak int
	last   RuleState
}

// Health evaluates a set of SLO rules against a metric history ring.
// Attach one to a Sampler (Sampler.AttachHealth) to evaluate after
// every sample. All methods are safe for concurrent use; transition
// callbacks run outside the lock.
type Health struct {
	mu          sync.Mutex
	rules       []*healthRule
	byName      map[string]bool
	status      HealthStatus
	evals       atomic.Uint64
	transitions atomic.Uint64
	onTrans     []func(from, to HealthStatus, detail []RuleState)
}

// NewHealth returns a Health with no rules (status HealthOK).
func NewHealth() *Health {
	return &Health{byName: make(map[string]bool)}
}

// AddRule registers one SLO rule under a unique lower_snake name (the
// same naming discipline as metrics and spans, enforced by the
// metricname analyzer at the call site and revalidated here). Window
// and Sustain default to 1; Severity defaults to HealthDegraded.
func (h *Health) AddRule(name string, spec RuleSpec) error {
	if !isLowerSnake(name) {
		return fmt.Errorf("health rule %q: name must be lower_snake", name)
	}
	if spec.Metric == "" {
		return fmt.Errorf("health rule %q: empty metric", name)
	}
	if spec.Kind == RuleQuantile && (spec.Quantile <= 0 || spec.Quantile > 1) {
		return fmt.Errorf("health rule %q: quantile %v outside (0, 1]", name, spec.Quantile)
	}
	if spec.Window < 1 {
		spec.Window = 1
	}
	if spec.Sustain < 1 {
		spec.Sustain = 1
	}
	if spec.Severity != HealthDegraded && spec.Severity != HealthFailing {
		spec.Severity = HealthDegraded
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.byName[name] {
		return fmt.Errorf("health rule %q: duplicate name", name)
	}
	h.byName[name] = true
	h.rules = append(h.rules, &healthRule{
		name: name,
		spec: spec,
		last: RuleState{
			Name:      name,
			Metric:    spec.Metric,
			Kind:      spec.Kind.String(),
			Threshold: spec.Threshold,
			Sustain:   spec.Sustain,
			Severity:  spec.Severity,
		},
	})
	return nil
}

// isLowerSnake mirrors the metricname analyzer's compile-time check for
// the runtime path (rule names can in principle arrive from config).
func isLowerSnake(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z':
		case c >= '0' && c <= '9':
		case c == '_':
		default:
			return false
		}
	}
	return s[0] != '_' && s[len(s)-1] != '_'
}

// OnTransition registers a callback invoked after every status change
// (from != to), outside the health lock, with the per-rule detail of
// the evaluation that caused it. The anomaly bundler hooks this to
// capture diagnostics on the transition to failing.
func (h *Health) OnTransition(fn func(from, to HealthStatus, detail []RuleState)) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.onTrans = append(h.onTrans, fn)
}

// Eval evaluates every rule against the ring and folds the results
// into the current status, returning it. An unknowable rule (metric or
// frames missing) is treated as not breaching — absence of evidence
// never degrades health, it only fails to clear an existing streak
// when the metric reappears breaching.
func (h *Health) Eval(hist *History) HealthStatus {
	h.evals.Add(1)
	h.mu.Lock()
	status := HealthOK
	for _, r := range h.rules {
		value, known := ruleValue(hist, r.spec)
		breaching := known && value > r.spec.Threshold
		if breaching {
			r.streak++
		} else {
			r.streak = 0
		}
		firing := r.streak >= r.spec.Sustain
		r.last.Value = value
		r.last.Known = known
		r.last.Streak = r.streak
		r.last.Firing = firing
		if firing && r.spec.Severity > status {
			status = r.spec.Severity
		}
	}
	from := h.status
	h.status = status
	var fire []func(from, to HealthStatus, detail []RuleState)
	var detail []RuleState
	if status != from {
		h.transitions.Add(1)
		fire = append(fire, h.onTrans...)
		detail = h.detailLocked()
	}
	h.mu.Unlock()
	for _, fn := range fire {
		fn(from, status, detail)
	}
	return status
}

// ruleValue derives one rule's current value from the ring.
func ruleValue(hist *History, spec RuleSpec) (float64, bool) {
	if hist == nil {
		return 0, false
	}
	switch spec.Kind {
	case RuleValue:
		return hist.Latest().Number(spec.Metric)
	case RuleRate:
		return hist.Rate(spec.Metric, spec.Window)
	case RuleQuantile:
		d, ok := hist.WindowDelta(spec.Metric, spec.Window)
		if !ok || d.Count == 0 {
			return 0, false
		}
		return d.Quantile(spec.Quantile), true
	}
	return 0, false
}

// Status reports the folded status of the most recent evaluation.
func (h *Health) Status() HealthStatus {
	if h == nil {
		return HealthOK
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.status
}

// Detail reports every rule's most recent evaluation, in registration
// order. Nil-safe (no rules: empty).
func (h *Health) Detail() []RuleState {
	if h == nil {
		return nil
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.detailLocked()
}

func (h *Health) detailLocked() []RuleState {
	out := make([]RuleState, len(h.rules))
	for i, r := range h.rules {
		out[i] = r.last
	}
	return out
}

// Transitions reports how many status changes have occurred.
func (h *Health) Transitions() uint64 { return h.transitions.Load() }

// Evals reports how many evaluations have run.
func (h *Health) Evals() uint64 { return h.evals.Load() }

// RegisterMetrics exposes the health state on a registry, so the status
// itself lands in the sampled frames (0 ok, 1 degraded, 2 failing).
func (h *Health) RegisterMetrics(reg *Registry) {
	reg.GaugeFunc("health_status", func() float64 { return float64(h.Status()) })
	reg.GaugeFunc("health_transitions_total", func() float64 { return float64(h.Transitions()) })
}

// WriteJSON renders the status and per-rule detail as JSON.
func (h *Health) WriteJSON(w *bytes.Buffer) error {
	h.mu.Lock()
	status := h.status
	detail := h.detailLocked()
	h.mu.Unlock()
	enc, err := json.MarshalIndent(struct {
		Status HealthStatus `json:"status"`
		Rules  []RuleState  `json:"rules"`
	}{status, detail}, "", "  ")
	if err != nil {
		return err
	}
	w.Write(enc)
	w.WriteByte('\n')
	return nil
}

// ServeHTTP implements /healthz: HTTP 200 with the JSON detail while
// ok or degraded (degraded still serves traffic), 503 once failing.
func (h *Health) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	var buf bytes.Buffer
	status := h.Status()
	if err := h.WriteJSON(&buf); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	if status == HealthFailing {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	_, _ = w.Write(buf.Bytes())
}
