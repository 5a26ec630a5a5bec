package serve

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"lightpath/internal/core"
	"lightpath/internal/engine"
	"lightpath/internal/graph"
	"lightpath/internal/obs"
	"lightpath/internal/oracle"
	"lightpath/internal/topo"
	"lightpath/internal/workload"
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
// bytes with the caches disabled, cold, holding the sources' cost rows
// and holding them rendered (each read twice, so replies copy the rows'
// text), under either search mode and either tree queue. The script covers an unreachable destination, a source with no
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
				for _, state := range []string{"cache off", "cold", "row resident", "row rendered"} {
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
					warm := map[string]int{"row resident": 1, "row rendered": 2}[state]
					for _, s := range sources {
						for r := 0; r < warm; r++ {
							if _, err := eng.CostsFrom(s); err != nil {
								t.Fatalf("%s: %v", what, err)
							}
						}
					}
					rows, renders, reads := eng.CacheStats(), rowRenders(eng), singleSourceReads(eng)

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
					case "row resident", "row rendered":
						// Three routefroms and every in-range request read a row;
						// only `routefrom 999` misses; the out-of-range requests are
						// point queries' to name, and nothing builds a tree.
						if rows2.Hits != rows.Hits+3+inRange || rows2.Misses != rows.Misses+1 ||
							viaRow != inRange || viaTree != 0 || viaPoint != all-inRange {
							t.Fatalf("%s: rows %+v → %+v, batch row %d tree %d point %d (in range: %d of %d)",
								what, rows, rows2, viaRow, viaTree, viaPoint, inRange, all)
						}
						// Resident rows are rendered by the script's three
						// routefroms, their first hits; rendered ones were, by the
						// second reads before it. Batches render nothing.
						want := map[string][2]uint64{"row resident": {0, 3}, "row rendered": {4, 4}}[state]
						if got := rowRenders(eng); renders != want[0] || got != want[1] {
							t.Fatalf("%s: %d rows rendered before the script, %d after; want %d, %d", what, renders, got, want[0], want[1])
						}
						checkAfterEpochBump(t, what, eng, a)
					}
					if state == "cache off" || state == "cold" {
						if got := rowRenders(eng); got != 0 {
							t.Fatalf("%s: %d rows rendered with no row hit by a routefrom", what, got)
						}
					}
				}
			}
		}
	}
}

// rowRenders reads engine_cost_row_renders_total.
func rowRenders(eng *engine.Engine) uint64 {
	return eng.Metrics().Snapshot()["engine_cost_row_renders_total"].(uint64)
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

// TestRouteRepliesIgnoreMemo: what `route` puts on the wire — cost and
// path — is a function of the pair and the epoch alone: the same bytes
// with the route memo off (-cache -1), cold, and holding every pair's
// Result, with every pair asked three times and the pairs toward one
// node blocked, under either search mode (each its own reference: the
// modes may break a tie differently).
// Cold, the asks are a search, a search the memo stores and the stored
// Result; the engine's counters prove each state answered the way its
// name says. It runs on FuzzGoalDirected's two networks: one of float
// weights, and one where every channel and conversion costs 1, so most
// pairs have many equal-cost optima and the path an answer names is
// the one a tie-break chose.
func TestRouteRepliesIgnoreMemo(t *testing.T) {
	for _, inst := range []struct {
		name string
		spec workload.Spec
	}{
		{"float", workload.Spec{K: 4, AvailProb: 0.8, Conv: workload.ConvUniform, ConvCost: 0.3}},
		{"ties", workload.Spec{K: 4, AvailProb: 0.8, MinWeight: 1, MaxWeight: 1, Conv: workload.ConvUniform, ConvCost: 1}},
	} {
		nw, err := workload.Build(topo.Grid(3, 3), inst.spec, rand.New(rand.NewSource(7)))
		if err != nil {
			t.Fatal(err)
		}
		n := nw.NumNodes()
		var setup []string // every link into the last node fails: the pairs toward it block
		for _, l := range nw.Links() {
			if l.To == n-1 {
				setup = append(setup, fmt.Sprintf("fail %d", l.ID))
			}
		}
		var script []string
		for ask := 0; ask < 3; ask++ {
			for s := 0; s < n; s++ {
				for d := 0; d < n; d++ {
					script = append(script, fmt.Sprintf("route %d %d", s, d))
				}
			}
		}
		for _, mode := range []core.DirectedMode{core.DirectedAStar, core.DirectedPlain} {
			// The memo-off replies: the other states must match them. (The
			// two modes may break a tie differently, so each has its own.)
			var want []string
			for _, state := range []string{"memo off", "cold", "resident"} {
				what := fmt.Sprintf("%s/%s/%s", inst.name, mode, state)
				opts := &engine.Options{Directed: mode}
				if state == "memo off" {
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
				served := uint64(0) // pairs of two distinct nodes that route
				for s := 0; s < n; s++ {
					for d := 0; d < n; d++ {
						if _, err := eng.Route(s, d); s != d && err == nil {
							served++
						}
						if state == "resident" {
							_, _ = eng.Route(s, d)
						}
					}
				}
				before := eng.RouteMemoStats()
				var got []string
				for _, line := range script {
					got = append(got, wire(t, eng, line))
				}
				if want == nil {
					want = got
					if blocked := strings.Count(strings.Join(got, ""), "error: "); served == 0 || blocked == 0 {
						t.Fatalf("%s: %d pairs served, %d asks blocked: want both kinds of answer", what, served, blocked)
					}
				}
				for i := range script {
					if got[i] != want[i] {
						t.Fatalf("%s: %q:\n%s\nwith the memo off:\n%s", what, script[i], got[i], want[i])
					}
				}
				after := eng.RouteMemoStats()
				if after.Hits+after.Misses != after.Lookups || after.Stores > after.Misses {
					t.Fatalf("%s: memo %+v", what, after)
				}
				// The warm-up asked every pair once (resident: twice), so the
				// script's first round is a second ask (resident: a hit).
				hits, stores := after.Hits-before.Hits, after.Stores-before.Stores
				switch state {
				case "memo off":
					if after != (engine.CacheStats{}) {
						t.Fatalf("%s: memo %+v, want nothing", what, after)
					}
				case "cold":
					if stores != served || hits != 2*served {
						t.Fatalf("%s: %d stores, %d hits; want %d and %d", what, stores, hits, served, 2*served)
					}
				case "resident":
					if stores != 0 || hits != 3*served {
						t.Fatalf("%s: %d stores, %d hits; want 0 and %d", what, stores, hits, 3*served)
					}
				}
			}
		}
	}
}
