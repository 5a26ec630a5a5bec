package obs

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter("requests")
	c1.Add(3)
	if c2 := r.Counter("requests"); c2 != c1 || c2.Value() != 3 {
		t.Error("Counter must return the same instance per name")
	}
	g1 := r.Gauge("depth")
	g1.Add(7)
	if g2 := r.Gauge("depth"); g2 != g1 || g2.Value() != 7 {
		t.Error("Gauge must return the same instance per name")
	}
	h1 := r.Histogram("lat", DefaultLatencyBuckets())
	h1.Observe(5000)
	if h2 := r.Histogram("lat", nil); h2 != h1 || h2.Snapshot().Count != 1 {
		t.Error("Histogram must return the same instance per name")
	}
}

func TestRegistrySnapshotAndJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("hits").Add(11)
	r.Gauge("depth").Add(-2)
	r.GaugeFunc("derived", func() float64 { return 1.5 })
	r.Histogram("lat", []float64{10, 100}).Observe(50)

	snap := r.Snapshot()
	if snap["hits"].(uint64) != 11 {
		t.Errorf("hits = %v", snap["hits"])
	}
	if snap["depth"].(int64) != -2 {
		t.Errorf("depth = %v", snap["depth"])
	}
	if snap["derived"].(float64) != 1.5 {
		t.Errorf("derived = %v", snap["derived"])
	}
	if hs := snap["lat"].(HistogramSnapshot); hs.Count != 1 {
		t.Errorf("lat = %+v", hs)
	}

	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded map[string]any
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("registry JSON invalid: %v\n%s", err, buf.String())
	}
	for _, key := range []string{"hits", "depth", "derived", "lat"} {
		if _, ok := decoded[key]; !ok {
			t.Errorf("JSON missing %q:\n%s", key, buf.String())
		}
	}

	names := metricNames(r)
	if want := []string{"depth", "derived", "hits", "lat"}; strings.Join(names, ",") != strings.Join(want, ",") {
		t.Errorf("names = %v, want %v", names, want)
	}
}

func TestRegistryServeHTTP(t *testing.T) {
	r := NewRegistry()
	r.Counter("pings").Inc()
	rec := httptest.NewRecorder()
	r.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "application/json") {
		t.Errorf("content type %q", ct)
	}
	if !strings.Contains(rec.Body.String(), `"pings": 1`) {
		t.Errorf("metrics body missing counter:\n%s", rec.Body.String())
	}
}

// metricNames lists every registered metric name, sorted.
func metricNames(r *Registry) []string {
	var names []string
	for _, nv := range r.SnapshotOrdered() {
		names = append(names, nv.Name)
	}
	return names
}
