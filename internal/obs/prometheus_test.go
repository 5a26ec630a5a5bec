package obs

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// goldenRegistry builds a registry with fixed, deterministic contents:
// one of each metric family, names deliberately out of insertion order.
func goldenRegistry() *Registry {
	reg := NewRegistry()
	reg.Counter("zeta_requests_total").Add(7)
	reg.Gauge("alpha_depth").Add(3)
	reg.GaugeFunc("mid_cache_size", func() float64 { return 12.5 })
	h := reg.Histogram("beta_latency_ns", []float64{100, 1000})
	h.Observe(50)
	h.Observe(150)
	h.Observe(5000)
	return reg
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run go test -run %s -update): %v", t.Name(), err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("output differs from %s:\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}

// TestWriteJSONGolden pins the exact byte output of WriteJSON: sorted
// keys, two-space indentation, trailing newline. Deterministic output is
// what lets soak tooling diff consecutive scrapes.
func TestWriteJSONGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenRegistry().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "golden_registry.json", buf.Bytes())
}

// TestWritePrometheusGolden pins the text exposition format output.
func TestWritePrometheusGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenRegistry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "golden_registry.prom", buf.Bytes())
}

// TestWriteJSONDeterministic: two scrapes of an unchanged registry are
// byte-identical, and repeated runs see the same key order.
func TestWriteJSONDeterministic(t *testing.T) {
	reg := goldenRegistry()
	var a, b bytes.Buffer
	if err := reg.WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := reg.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Error("consecutive scrapes differ")
	}
	if a.Len() == 0 || a.Bytes()[a.Len()-1] != '\n' {
		t.Error("output must end with a newline")
	}
	alpha := strings.Index(a.String(), "alpha_depth")
	zeta := strings.Index(a.String(), "zeta_requests_total")
	if alpha == -1 || zeta == -1 || alpha > zeta {
		t.Errorf("keys not sorted: alpha@%d zeta@%d", alpha, zeta)
	}
}

func TestWriteJSONEmptyRegistry(t *testing.T) {
	var buf bytes.Buffer
	if err := NewRegistry().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.String() != "{}\n" {
		t.Errorf("empty registry = %q, want {}\\n", buf.String())
	}
}

func TestSnapshotOrderedSorted(t *testing.T) {
	reg := goldenRegistry()
	ordered := reg.SnapshotOrdered()
	if len(ordered) != 4 {
		t.Fatalf("got %d entries, want 4", len(ordered))
	}
	for i := 1; i < len(ordered); i++ {
		if ordered[i-1].Name >= ordered[i].Name {
			t.Errorf("not sorted at %d: %q >= %q", i, ordered[i-1].Name, ordered[i].Name)
		}
	}
}

// TestWritePrometheusCumulativeBuckets checks the histogram translation:
// internal per-bucket counts become cumulative le-labelled samples.
func TestWritePrometheusCumulativeBuckets(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenRegistry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE beta_latency_ns histogram",
		`beta_latency_ns_bucket{le="100"} 1`,
		`beta_latency_ns_bucket{le="1000"} 2`,
		`beta_latency_ns_bucket{le="+Inf"} 3`,
		"beta_latency_ns_sum 5200",
		"beta_latency_ns_count 3",
		"# TYPE zeta_requests_total counter",
		"zeta_requests_total 7",
		"# TYPE alpha_depth gauge",
		"alpha_depth 3",
		"# TYPE mid_cache_size gauge",
		"mid_cache_size 12.5",
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestPromFloat(t *testing.T) {
	cases := []struct {
		in   float64
		want string
	}{
		{0, "0"},
		{12.5, "12.5"},
		{1e10, "1e+10"},
		{-3, "-3"},
	}
	for _, c := range cases {
		if got := promFloat(c.in); got != c.want {
			t.Errorf("promFloat(%v) = %q, want %q", c.in, got, c.want)
		}
	}
}
