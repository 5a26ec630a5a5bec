package serve

import (
	"io"
	"runtime"
	"strconv"
	"testing"

	"lightpath/internal/core"
	"lightpath/internal/engine"
	"lightpath/internal/obs"
)

// execTiers are the two instances the recorder's cost is pinned on: the
// one where a request is mostly fixed cost and the one where it is
// mostly search (nsf_read's and big_read's networks in benchmark/).
var execTiers = []struct {
	name string
	args []string
}{
	{"nsfnet", []string{"-topo", "nsfnet", "-k", "8", "-seed", "1"}},
	{"n=300", []string{"-topo", "sparse", "-n", "300", "-k", "8", "-seed", "1"}},
}

// execSession is a session as wdmserve configures one — the default
// search mode, serve telemetry — writing into a discarding writer, with
// the default flight recorder when recorded and none when not.
func execSession(tb testing.TB, recorded bool, args ...string) *Session {
	tb.Helper()
	eng, err := engine.New(buildNet(tb, args...), &engine.Options{Directed: core.DirectedAStar})
	if err != nil {
		tb.Fatalf("engine: %v", err)
	}
	opts := &SessionOptions{Telemetry: NewTelemetry(eng.Metrics())}
	if recorded {
		opts.Tracer = obs.NewTracer(nil)
	}
	return NewSession(eng, io.Discard, opts)
}

// execRouteLines is a fixed cycle of point queries spread over the
// instance's nodes.
func execRouteLines(sess *Session) []string {
	n := sess.eng.Base().NumNodes()
	lines := make([]string, 0, 64)
	for i := 0; len(lines) < cap(lines); i++ {
		s, t := (i*7)%n, (i*13+5)%n
		if s != t {
			lines = append(lines, "route "+strconv.Itoa(s)+" "+strconv.Itoa(t))
		}
	}
	return lines
}

// BenchmarkSessionExec is one `route` through Session.Exec with and
// without the default recorder: the pair whose difference is what
// recording a request costs (ns, B and allocs per op under -benchmem).
// The n=100 rows are mid_tree's two verbs on its network — `routefrom`,
// and a `batch` of 16 pairs over 4 sources — with every source's cost
// row resident, and with none: a fresh epoch, published with the clock
// stopped, before every request, which is a pass for the routefrom and
// 16 point queries for the batch. Resident, either is a lookup and the
// encoding of its reply.
func BenchmarkSessionExec(b *testing.B) {
	for _, verb := range []string{"routefrom", "batch"} {
		for _, rows := range []string{"resident", "absent"} {
			b.Run("n=100/"+verb+"/rows="+rows, func(b *testing.B) {
				sess := execSession(b, false, "-topo", "sparse", "-n", "100", "-k", "8", "-seed", "1")
				eng, n := sess.eng, sess.eng.Base().NumNodes()
				lines := make([]string, n)
				for s := range lines {
					lines[s] = "routefrom " + strconv.Itoa(s)
					if verb == "batch" {
						lines[s] = "batch"
						for j := 0; j < 16; j++ {
							lines[s] += " " + strconv.Itoa((s+j%4)%n) + " " + strconv.Itoa((s*7+j*13+5)%n)
						}
					}
					for ask := 0; ask < 2; ask++ { // every row, and the reply buffer's size
						_, _ = sess.Exec("routefrom " + strconv.Itoa(s))
					}
				}
				held, err := eng.Route(0, 9)
				if err != nil {
					b.Fatal(err)
				}
				hits := eng.CacheStats().Hits
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if rows == "absent" {
						b.StopTimer()
						if err := eng.Allocate(1, held.Path); err != nil {
							b.Fatal(err)
						}
						if err := eng.Release(1); err != nil {
							b.Fatal(err)
						}
						b.StartTimer()
					}
					if _, err := sess.Exec(lines[i%n]); err != nil {
						b.Fatal(err)
					}
				}
				if got := eng.CacheStats().Hits - hits; (got != 0) != (rows == "resident") {
					b.Fatalf("rows=%s: %d row reads over %d requests", rows, got, b.N)
				}
			})
		}
	}
	for _, tier := range execTiers {
		for _, mode := range []struct {
			name     string
			recorded bool
		}{{"bare", false}, {"recorded", true}} {
			b.Run(tier.name+"/"+mode.name, func(b *testing.B) {
				sess := execSession(b, mode.recorded, tier.args...)
				lines := execRouteLines(sess)
				for _, l := range lines { // warm pools, ring slots and scratch
					_, _ = sess.Exec(l)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					_, _ = sess.Exec(lines[i%len(lines)]) // a blocked route is an answer
				}
			})
		}
	}
}

// TestRecordedRequestAllocations pins what the default recorder adds to
// a request: the same routes through a recorded and a bare session differ
// by at most one allocation and 64 bytes per request (the trace is built
// in a pooled buffer and retained by value), on the instance where a
// request is mostly fixed cost and on the one where it is mostly search.
func TestRecordedRequestAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop buffers: pooled paths allocate")
	}
	perRequest := func(sess *Session, lines []string) (allocs, bytes float64) {
		run := func() {
			for _, l := range lines {
				_, _ = sess.Exec(l)
			}
		}
		// Pools, reply buffer and every ring slot reach their steady size.
		for done := 0; done < 2*obs.DefaultRingSize; done += len(lines) {
			run()
		}
		const rounds = 20
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < rounds; i++ {
			run()
		}
		runtime.ReadMemStats(&after)
		n := float64(rounds * len(lines))
		return float64(after.Mallocs-before.Mallocs) / n, float64(after.TotalAlloc-before.TotalAlloc) / n
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // as testing.AllocsPerRun: no other P's caches in the count
	for _, tier := range execTiers {
		bare := execSession(t, false, tier.args...)
		recorded := execSession(t, true, tier.args...)
		lines := execRouteLines(bare)
		bareAllocs, bareBytes := perRequest(bare, lines)
		recAllocs, recBytes := perRequest(recorded, lines)
		t.Logf("%s: bare %.2f allocs %.0f B, recorded %.2f allocs %.0f B per request",
			tier.name, bareAllocs, bareBytes, recAllocs, recBytes)
		if d := recAllocs - bareAllocs; d > 1 {
			t.Errorf("%s: recording adds %.2f allocations per request, want <= 1", tier.name, d)
		}
		if d := recBytes - bareBytes; d > 64 {
			t.Errorf("%s: recording adds %.0f bytes per request, want <= 64", tier.name, d)
		}
		if got := recorded.tracer.Recorded(); got == 0 {
			t.Errorf("%s: the recorded session retained no trace", tier.name)
		}
	}
}
