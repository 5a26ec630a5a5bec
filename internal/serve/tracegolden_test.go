package serve

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"lightpath/internal/core"
	"lightpath/internal/engine"
	"lightpath/internal/obs"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/trace.golden")

// traceGoldenScript walks the counted paths a request can take: a pair
// searched, stored in the route memo and answered by it; a source's
// cost row built and then hit; an explain; and, with summaries on, a
// route, an alloc and its release, and a batch at the epochs they
// publish.
const traceGoldenScript = `route 0 9
route 0 9
route 0 9
routefrom 3
routefrom 3
explain 2 11
trace on
route 1 12
alloc 0 13
release 1
batch 0 9 4 7 4 10
`

// durationText matches a rendered time.Duration: the only bytes of a
// reply that change from run to run.
var durationText = regexp.MustCompile(`[0-9.]+(ns|µs|ms|s)\b`)

// traceTiming matches the wall-clock fields of an encoded trace.
var traceTiming = regexp.MustCompile(`"(begin|start_ns|end_ns|duration_ns)":("[^"]*"|[0-9]+)`)

// TestTraceGolden pins what the flight recorder holds for one session:
// its replies, then every retained trace as tracejson encodes it, oldest
// first. Over NSFNET k=8 at a fixed seed, on one goroutine, each span's
// attributes — Theorem 1's |V′| and |E′|, the nodes the search settled,
// where its bound and its answer came from — are deterministic; only
// durations and instants are masked. `go test ./internal/serve -run
// TestTraceGolden -update` rewrites testdata/trace.golden.
func TestTraceGolden(t *testing.T) {
	eng, err := engine.New(buildNet(t, "-topo", "nsfnet", "-k", "8", "-seed", "7"),
		&engine.Options{Directed: core.DirectedAStar})
	if err != nil {
		t.Fatal(err)
	}
	tracer := obs.NewTracer(nil)
	var replies bytes.Buffer
	sess := NewSession(eng, &replies, &SessionOptions{Workers: 1, Tracer: tracer})
	if err := RunScript(sess, strings.NewReader(traceGoldenScript)); err != nil {
		t.Fatal(err)
	}
	if n := tracer.Misuses(); n != 0 {
		t.Fatalf("tracer counted %d span misuses", n)
	}

	var got bytes.Buffer
	got.WriteString("# replies\n")
	got.Write(durationText.ReplaceAll(replies.Bytes(), []byte("DUR")))
	got.WriteString("# traces\n")
	traces := tracer.Recent(obs.DefaultRingSize)
	for i := len(traces) - 1; i >= 0; i-- {
		var line bytes.Buffer
		if err := obs.EncodeReqTrace(&line, traces[i]); err != nil {
			t.Fatal(err)
		}
		got.Write(traceTiming.ReplaceAll(line.Bytes(), []byte(`"$1":"-"`)))
	}

	path := filepath.Join("testdata", "trace.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run go test ./internal/serve -run %s -update): %v", t.Name(), err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("session differs from %s:\n%s", path, firstDiff(string(want), got.String()))
	}
}

// firstDiff renders the first line where two transcripts part.
func firstDiff(want, got string) string {
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(wl) || i < len(gl); i++ {
		var w, g string
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if w != g {
			return fmt.Sprintf("line %d:\n  want: %s\n  got:  %s", i+1, w, g)
		}
	}
	return "they differ only in length"
}
