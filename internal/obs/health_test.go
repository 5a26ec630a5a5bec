package obs

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// histAt pushes a frame with the given metric values onto h at a fixed
// one-second cadence, so rate rules see stable frame gaps.
type healthHarness struct {
	hist *History
	now  time.Time
	seq  uint64
}

func newHealthHarness() *healthHarness {
	return &healthHarness{hist: NewHistory(16), now: time.Now()}
}

func (hh *healthHarness) push(values ...NamedValue) {
	hh.seq++
	hh.now = hh.now.Add(time.Second)
	hh.hist.Push(&Frame{Seq: hh.seq, At: hh.now, Values: values})
}

func TestHealthAddRuleValidation(t *testing.T) {
	h := NewHealth()
	if err := h.AddRule("shed_rate_high", RuleSpec{Metric: "serve_shed_total", Kind: RuleRate, Threshold: 1}); err != nil {
		t.Fatal(err)
	}
	if err := h.AddRule("shed_rate_high", RuleSpec{Metric: "x", Kind: RuleValue}); err == nil {
		t.Error("duplicate rule name must be rejected")
	}
	if err := h.AddRule("Bad-Name", RuleSpec{Metric: "x"}); err == nil {
		t.Error("non-lower_snake name must be rejected")
	}
	if err := h.AddRule("no_metric", RuleSpec{}); err == nil {
		t.Error("empty metric must be rejected")
	}
	if err := h.AddRule("bad_quantile", RuleSpec{Metric: "x", Kind: RuleQuantile, Quantile: 1.5}); err == nil {
		t.Error("quantile outside (0,1] must be rejected")
	}
}

func TestHealthSustainRequiresConsecutiveBreaches(t *testing.T) {
	h := NewHealth()
	if err := h.AddRule("depth_high", RuleSpec{
		Metric: "depth", Kind: RuleValue, Threshold: 5, Sustain: 3, Severity: HealthFailing,
	}); err != nil {
		t.Fatal(err)
	}
	hh := newHealthHarness()

	breach := func() {
		hh.push(NamedValue{Name: "depth", Value: int64(10)})
		h.Eval(hh.hist)
	}
	clear := func() {
		hh.push(NamedValue{Name: "depth", Value: int64(1)})
		h.Eval(hh.hist)
	}

	breach()
	breach()
	if got := h.Status(); got != HealthOK {
		t.Fatalf("status after 2/3 sustain = %v, want ok", got)
	}
	clear() // streak broken
	breach()
	breach()
	if got := h.Status(); got != HealthOK {
		t.Fatalf("status after broken streak = %v, want ok", got)
	}
	breach() // third consecutive
	if got := h.Status(); got != HealthFailing {
		t.Fatalf("status after 3 consecutive breaches = %v, want failing", got)
	}
	detail := h.Detail()
	if len(detail) != 1 || !detail[0].Firing || detail[0].Streak != 3 {
		t.Errorf("detail = %+v", detail)
	}
	clear()
	if got := h.Status(); got != HealthOK {
		t.Errorf("status after recovery = %v, want ok", got)
	}
}

func TestHealthRateRule(t *testing.T) {
	h := NewHealth()
	if err := h.AddRule("req_rate_high", RuleSpec{
		Metric: "reqs", Kind: RuleRate, Threshold: 100, Severity: HealthDegraded,
	}); err != nil {
		t.Fatal(err)
	}
	hh := newHealthHarness()
	hh.push(NamedValue{Name: "reqs", Value: uint64(0)})
	h.Eval(hh.hist) // single frame: rate unknowable, must not breach
	if got := h.Status(); got != HealthOK {
		t.Fatalf("status with unknowable rate = %v, want ok", got)
	}
	hh.push(NamedValue{Name: "reqs", Value: uint64(50)}) // 50/s
	h.Eval(hh.hist)
	if got := h.Status(); got != HealthOK {
		t.Fatalf("status at 50/s = %v, want ok", got)
	}
	hh.push(NamedValue{Name: "reqs", Value: uint64(250)}) // 200/s
	h.Eval(hh.hist)
	if got := h.Status(); got != HealthDegraded {
		t.Fatalf("status at 200/s = %v, want degraded", got)
	}
	d := h.Detail()
	if d[0].Value != 200 || !d[0].Known {
		t.Errorf("rate detail = %+v", d[0])
	}
}

func TestHealthQuantileRule(t *testing.T) {
	h := NewHealth()
	if err := h.AddRule("route_p99_slow", RuleSpec{
		Metric: "lat", Kind: RuleQuantile, Quantile: 0.99, Threshold: 1000,
	}); err != nil {
		t.Fatal(err)
	}
	hist := NewHistogram([]float64{10, 100, 1000, 10000})
	hh := newHealthHarness()
	for i := 0; i < 100; i++ {
		hist.Observe(5)
	}
	hh.push(NamedValue{Name: "lat", Value: hist.Snapshot()})
	hh.push(NamedValue{Name: "lat", Value: hist.Snapshot()})
	h.Eval(hh.hist) // empty window: unknowable, not breaching
	if got := h.Status(); got != HealthOK {
		t.Fatalf("status with empty window = %v, want ok", got)
	}
	for i := 0; i < 50; i++ {
		hist.Observe(5000) // slow burst in this window only
	}
	hh.push(NamedValue{Name: "lat", Value: hist.Snapshot()})
	h.Eval(hh.hist)
	if got := h.Status(); got != HealthDegraded {
		t.Fatalf("status with slow window p99 = %v, want degraded", got)
	}
}

func TestHealthSeverityFolding(t *testing.T) {
	h := NewHealth()
	if err := h.AddRule("soft_rule", RuleSpec{Metric: "a", Kind: RuleValue, Threshold: 0, Severity: HealthDegraded}); err != nil {
		t.Fatal(err)
	}
	if err := h.AddRule("hard_rule", RuleSpec{Metric: "b", Kind: RuleValue, Threshold: 0, Severity: HealthFailing}); err != nil {
		t.Fatal(err)
	}
	hh := newHealthHarness()
	hh.push(NamedValue{Name: "a", Value: int64(1)}, NamedValue{Name: "b", Value: int64(0)})
	if got := h.Eval(hh.hist); got != HealthDegraded {
		t.Errorf("soft only = %v, want degraded", got)
	}
	hh.push(NamedValue{Name: "a", Value: int64(1)}, NamedValue{Name: "b", Value: int64(1)})
	if got := h.Eval(hh.hist); got != HealthFailing {
		t.Errorf("soft+hard = %v, want failing (max severity wins)", got)
	}
}

func TestHealthTransitionsAndCallbacks(t *testing.T) {
	h := NewHealth()
	if err := h.AddRule("depth_high", RuleSpec{
		Metric: "depth", Kind: RuleValue, Threshold: 5, Severity: HealthFailing,
	}); err != nil {
		t.Fatal(err)
	}
	type trans struct{ from, to HealthStatus }
	var got []trans
	h.OnTransition(func(from, to HealthStatus, detail []RuleState) {
		got = append(got, trans{from, to})
		if len(detail) != 1 {
			t.Errorf("transition detail = %+v", detail)
		}
	})
	hh := newHealthHarness()
	eval := func(depth int64) {
		hh.push(NamedValue{Name: "depth", Value: depth})
		h.Eval(hh.hist)
	}
	eval(1) // ok -> ok: no transition
	eval(10)
	eval(10) // failing -> failing: no transition
	eval(1)
	want := []trans{{HealthOK, HealthFailing}, {HealthFailing, HealthOK}}
	if len(got) != len(want) {
		t.Fatalf("transitions = %+v, want %+v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("transition[%d] = %+v, want %+v", i, got[i], want[i])
		}
	}
	if h.Transitions() != 2 {
		t.Errorf("Transitions = %d, want 2", h.Transitions())
	}
}

func TestHealthStatusStringAndJSON(t *testing.T) {
	for s, want := range map[HealthStatus]string{
		HealthOK: "ok", HealthDegraded: "degraded", HealthFailing: "failing",
	} {
		if s.String() != want {
			t.Errorf("%d.String() = %q", int(s), s.String())
		}
		j, err := json.Marshal(s)
		if err != nil || string(j) != `"`+want+`"` {
			t.Errorf("marshal %v = %s, %v", s, j, err)
		}
	}
}

func TestHealthServeHTTP(t *testing.T) {
	h := NewHealth()
	if err := h.AddRule("depth_high", RuleSpec{
		Metric: "depth", Kind: RuleValue, Threshold: 5, Severity: HealthFailing,
	}); err != nil {
		t.Fatal(err)
	}
	hh := newHealthHarness()
	hh.push(NamedValue{Name: "depth", Value: int64(1)})
	h.Eval(hh.hist)

	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/healthz", nil))
	if rr.Code != 200 || !strings.Contains(rr.Body.String(), `"status": "ok"`) {
		t.Errorf("healthy /healthz = %d %q", rr.Code, rr.Body.String())
	}

	hh.push(NamedValue{Name: "depth", Value: int64(10)})
	h.Eval(hh.hist)
	rr = httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/healthz", nil))
	if rr.Code != 503 || !strings.Contains(rr.Body.String(), `"status": "failing"`) {
		t.Errorf("failing /healthz = %d %q", rr.Code, rr.Body.String())
	}
	var parsed struct {
		Status string `json:"status"`
		Rules  []struct {
			Name     string `json:"name"`
			Severity string `json:"severity"`
		} `json:"rules"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &parsed); err != nil {
		t.Fatalf("healthz body must be JSON: %v", err)
	}
	if len(parsed.Rules) != 1 || parsed.Rules[0].Name != "depth_high" || parsed.Rules[0].Severity != "failing" {
		t.Errorf("rules = %+v", parsed.Rules)
	}
}

func TestHealthRegisterMetrics(t *testing.T) {
	reg := NewRegistry()
	h := NewHealth()
	h.RegisterMetrics(reg)
	snap := reg.Snapshot()
	if snap["health_status"].(float64) != 0 {
		t.Errorf("health_status = %v", snap["health_status"])
	}
	if snap["health_transitions_total"].(float64) != 0 {
		t.Errorf("health_transitions_total = %v", snap["health_transitions_total"])
	}
	var nilHealth *Health
	if nilHealth.Status() != HealthOK || nilHealth.Detail() != nil {
		t.Error("nil health accessors must be zero-valued")
	}
}
