package serve

import (
	"bytes"
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"

	"lightpath/internal/core"
	"lightpath/internal/engine"
	"lightpath/internal/graph"
	"lightpath/internal/obs"
	"lightpath/internal/oracle"
)

// wire runs one command through a session on eng and returns the reply
// as the transports frame it: error answers as an "error:" line.
func wire(t *testing.T, eng *engine.Engine, line string) string {
	t.Helper()
	var buf bytes.Buffer
	if _, err := NewSession(eng, &buf, &SessionOptions{Workers: 2}).Exec(line); err != nil {
		fmt.Fprintf(&buf, "error: %v\n", err)
	}
	return buf.String()
}

// TestCostRepliesIgnoreCacheState: what `routefrom` and `batch` put on
// the wire is a function of the command and the epoch alone — the same
// bytes with the caches disabled, cold and holding the sources' cost
// rows, under either search mode and either tree queue. The script covers an unreachable destination, a source with no
// outgoing channel, S→S, duplicate pairs, a source named often enough
// for the batch to build its tree, and endpoints out of range; the
// engine's counters prove each state answered the way its name says.
// After an alloc and a fail bump the epoch, the row of the epoch before
// is not what answers, and what does is what internal/oracle computes
// from the problem definition on the new residual.
func TestCostRepliesIgnoreCacheState(t *testing.T) {
	for _, inst := range []struct {
		name string
		args []string
		src  [3]int // a: asked for often; b: beside it; c: named by one batch only
		mute int    // every link out of it is failed: a source with no outgoing channel
		deaf int    // every link into it is failed: a destination nothing reaches
	}{
		{"paper", []string{"-topo", "paper"}, [3]int{0, 2, 3}, 5, 4},
		{"nsfnet", []string{"-topo", "nsfnet", "-k", "6", "-seed", "3"}, [3]int{0, 9, 4}, 13, 6},
		{"sparse100", []string{"-topo", "sparse", "-n", "100", "-k", "8", "-seed", "1"}, [3]int{3, 57, 21}, 99, 40},
	} {
		nw := buildNet(t, inst.args...)
		n := nw.NumNodes()
		a, b, c := inst.src[0], inst.src[1], inst.src[2]
		var setup []string
		for _, l := range nw.Links() {
			if l.From == inst.mute || l.To == inst.deaf {
				setup = append(setup, fmt.Sprintf("fail %d", l.ID))
			}
		}
		often := "batch"
		for d := 0; d < 10; d++ {
			often += fmt.Sprintf(" %d %d", a, d%n)
		}
		script := []string{
			fmt.Sprintf("routefrom %d", a),
			fmt.Sprintf("routefrom %d", inst.mute),
			fmt.Sprintf("batch %d %d %d 2 %d %d %d 2 %d 2 %d 1", a, inst.deaf, a, a, a, a, a, b),
			fmt.Sprintf("batch %d 1 %d %d %d %d", inst.mute, inst.mute, inst.mute, inst.mute, inst.deaf),
			often,
			fmt.Sprintf("batch %d 999 999 %d -1 2 %d 2 %d -7", a, a, a, b),
			"routefrom 999",
			fmt.Sprintf("routefrom %d", b),
			fmt.Sprintf("batch %d 1 %d 2", c, c),
		}
		sources := []int{a, b, c, inst.mute}
		// inRange counts the script's batch requests a resident row can
		// answer (source among sources, destination in range) out of all;
		// asks bounds the single-source reads the script may make: one per
		// routefrom, one per distinct source of each batch.
		inRange, all, asks := uint64(0), uint64(0), uint64(0)
		for _, line := range script {
			f := strings.Fields(line)
			named := make(map[string]bool)
			for i := 1; f[0] == "batch" && i < len(f); i += 2 {
				from, _ := strconv.Atoi(f[i])
				to, _ := strconv.Atoi(f[i+1])
				all++
				named[f[i]] = true
				if from >= 0 && from < n && to >= 0 && to < n {
					inRange++
				}
			}
			if f[0] == "routefrom" {
				asks++
			}
			asks += uint64(len(named))
		}

		var want []string // the first combination's replies: every other must match
		for _, mode := range []core.DirectedMode{core.DirectedAStar, core.DirectedPlain} {
			for _, queue := range []graph.QueueKind{graph.QueueBucket, graph.QueueBinary} {
				for _, state := range []string{"cache off", "cold", "row resident"} {
					what := fmt.Sprintf("%s/%s/%s/%s", inst.name, mode, queue, state)
					opts := &engine.Options{Directed: mode, Queue: queue}
					if state == "cache off" {
						opts.CacheSize = -1
					}
					eng, err := engine.New(nw, opts)
					if err != nil {
						t.Fatalf("%s: %v", what, err)
					}
					for _, line := range setup {
						if got := wire(t, eng, line); strings.HasPrefix(got, "error:") {
							t.Fatalf("%s: %s: %s", what, line, got)
						}
					}
					for _, s := range sources {
						if state == "row resident" {
							if _, err := eng.CostsFrom(s); err != nil {
								t.Fatalf("%s: %v", what, err)
							}
						}
					}
					rows, reads := eng.CacheStats(), singleSourceReads(eng)

					var got []string
					for _, line := range script {
						got = append(got, wire(t, eng, line))
					}
					if want == nil {
						want = got
						checkScriptShape(t, what, script, got, n)
					}
					for i := range script {
						if got[i] != want[i] {
							t.Fatalf("%s: %q:\n%s\nthe first combination answered:\n%s", what, script[i], got[i], want[i])
						}
					}

					snap := eng.Metrics().Snapshot()
					viaRow, viaTree, viaPoint := snap["engine_batch_row_requests_total"].(uint64),
						snap["engine_batch_tree_requests_total"].(uint64), snap["engine_batch_point_requests_total"].(uint64)
					if viaRow+viaTree+viaPoint != all || snap["engine_batch_requests_total"].(uint64) != all {
						t.Fatalf("%s: batch row %d + tree %d + point %d != %d requests", what, viaRow, viaTree, viaPoint, all)
					}
					rows2, builds := eng.CacheStats(), snap["engine_cost_row_builds_total"].(uint64)
					// A batch builds at most one tree per source it names, never
					// one per request.
					if got := singleSourceReads(eng) - reads; got > asks {
						t.Fatalf("%s: %d single-source reads, at most %d allowed", what, got, asks)
					}
					switch state {
					case "cache off":
						if rows2 != (engine.CacheStats{}) || builds != 0 || viaRow != 0 {
							t.Fatalf("%s: rows %+v, %d built, %d batch requests off a row", what, rows2, builds, viaRow)
						}
					case "cold":
						// Each of the four routefroms is its source's first ask:
						// a miss that stores a row, but for `routefrom 999`. A's
						// and the muted source's rows then answer batches; b's
						// request comes before its routefrom and c never has one.
						if rows2.Misses != 4 || builds != 3 || rows2.Size != 3 || viaRow == 0 || viaPoint == 0 {
							t.Fatalf("%s: rows %+v, %d built, batch row %d point %d", what, rows2, builds, viaRow, viaPoint)
						}
					case "row resident":
						// Three routefroms and every in-range request read a row;
						// only `routefrom 999` misses; the out-of-range requests are
						// point queries' to name, and nothing builds a tree.
						if rows2.Hits != rows.Hits+3+inRange || rows2.Misses != rows.Misses+1 ||
							viaRow != inRange || viaTree != 0 || viaPoint != all-inRange {
							t.Fatalf("%s: rows %+v → %+v, batch row %d tree %d point %d (in range: %d of %d)",
								what, rows, rows2, viaRow, viaTree, viaPoint, inRange, all)
						}
						checkAfterEpochBump(t, what, eng, a)
					}
				}
			}
		}
	}
}

// singleSourceReads counts eng's RouteFrom and CostsFrom calls: every
// pass, and every routefrom a row answered.
func singleSourceReads(eng *engine.Engine) uint64 {
	return eng.Metrics().Snapshot()["engine_routefrom_latency_ns"].(obs.HistogramSnapshot).Count
}

// checkScriptShape makes sure the script exercises what it claims to on
// this instance: the muted source reaches only itself, the deaf
// destination is unreachable, ordinary pairs route, and the out-of-range
// endpoints answer in the point query's words.
func checkScriptShape(t *testing.T, what string, script, got []string, n int) {
	t.Helper()
	if lines := strings.Split(strings.TrimSuffix(got[1], "\n"), "\n"); len(lines) != n ||
		strings.Count(got[1], "unreachable") != n-1 || strings.Count(got[1], ": cost 0\n") != 1 {
		t.Fatalf("%s: %q is not a source with no outgoing channel:\n%s", what, script[1], got[1])
	}
	if strings.Count(got[0], "unreachable") < 1 || strings.Count(got[0], ": cost ") < 3 {
		t.Fatalf("%s: %q wants an unreachable destination among reachable ones:\n%s", what, script[0], got[0])
	}
	if strings.Count(got[2], "blocked") != 1 || strings.Count(got[2], ": cost 0\n") != 1 {
		t.Fatalf("%s: %q wants one blocked pair and one S→S:\n%s", what, script[2], got[2])
	}
	if strings.Count(got[3], "blocked") != 2 {
		t.Fatalf("%s: %q wants the muted source blocked twice:\n%s", what, script[3], got[3])
	}
	for _, wantErr := range []string{"error: core: node out of range: dest 999", "error: core: node out of range: source 999",
		"error: core: node out of range: source -1", "error: core: node out of range: dest -7"} {
		if !strings.Contains(got[5], wantErr+"\n") {
			t.Fatalf("%s: %q lacks %q:\n%s", what, script[5], wantErr, got[5])
		}
	}
	if got[6] != "error: core: node out of range: source 999\n" {
		t.Fatalf("%s: %q: %s", what, script[6], got[6])
	}
}

// checkAfterEpochBump mutates eng twice — an alloc out of src, then a
// fail of a link out of src — and after each demands that `routefrom
// src` and a batch from src are not answered by the resident row of the
// epoch before, and say what the oracle computes on the new residual.
func checkAfterEpochBump(t *testing.T, what string, eng *engine.Engine, src int) {
	t.Helper()
	n := eng.Base().NumNodes()
	bumps := []string{"", ""}
	costs, err := eng.CostsFrom(src)
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	for dst := 0; dst < n; dst++ {
		if dst != src && !math.IsInf(costs.To(dst), 1) { // src can still reach it ...
			bumps[0] = fmt.Sprintf("alloc %d %d", src, dst)
		}
	}
	for _, l := range eng.Base().Links() {
		if l.From == src && !math.IsInf(costs.To(l.To), 1) { // ... and this link is in service
			bumps[1] = fmt.Sprintf("fail %d", l.ID)
		}
	}
	for _, bump := range bumps {
		if got := wire(t, eng, bump); bump == "" || strings.HasPrefix(got, "error:") {
			t.Fatalf("%s: bump %q: %s", what, bump, got)
		}
		rows := eng.CacheStats()
		from := wire(t, eng, fmt.Sprintf("routefrom %d", src))
		if after := eng.CacheStats(); after.Hits != rows.Hits || after.Misses != rows.Misses+1 {
			t.Fatalf("%s: after %q a row answered routefrom: %+v → %+v", what, bump, rows, after)
		}
		batch := "batch"
		residual := eng.Snapshot().Network()
		step := 1 + n/8 // the oracle is slow: a spread of destinations on the large instance
		lines := strings.Split(strings.TrimSuffix(from, "\n"), "\n")
		for dst := 0; dst < n; dst += step {
			batch += fmt.Sprintf(" %d %d", src, dst)
			want := "unreachable"
			if cost, _, err := oracle.Solve(residual, src, dst); err == nil {
				want = fmt.Sprintf("cost %g", cost)
			}
			prefix := fmt.Sprintf("  %d -> %d: ", src, dst)
			if !strings.HasPrefix(lines[dst], prefix) || !sameVerdict(strings.TrimPrefix(lines[dst], prefix), want) {
				t.Fatalf("%s: after %q: %q, the oracle says %s", what, bump, lines[dst], want)
			}
		}
		// The batch agrees with the routefrom it follows, line for line.
		reply := strings.Split(strings.TrimSuffix(wire(t, eng, batch), "\n"), "\n")[1:]
		for i, dst := 0, 0; dst < n; i, dst = i+1, dst+step {
			if got, want := strings.Replace(reply[i], "blocked", "unreachable", 1), lines[dst]; got != want {
				t.Fatalf("%s: after %q: batch says %q, routefrom %q", what, bump, reply[i], want)
			}
		}
	}
}

// sameVerdict compares a reply's "cost C" or "unreachable" with the
// oracle's, costs to the rounding the two summation orders allow.
func sameVerdict(got, want string) bool {
	var g, w float64
	if _, err := fmt.Sscanf(got, "cost %g", &g); err != nil {
		return got == want
	}
	if _, err := fmt.Sscanf(want, "cost %g", &w); err != nil {
		return false
	}
	return math.Abs(g-w) <= 1e-9*math.Max(1, math.Abs(w))
}
