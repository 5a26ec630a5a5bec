package main

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"

	"lightpath/internal/cli"
	"lightpath/internal/core"
	"lightpath/internal/engine"
	"lightpath/internal/graph"
	"lightpath/internal/oracle"
	"lightpath/internal/serve"
	"lightpath/internal/wdm"
)

// workload is one traffic mix against one topology. The names are
// fixed: later issues refer to them.
type workload struct {
	name string
	why  string
	// serverArgs are the only flags wdmserve is given besides -listen:
	// every other flag stays at its default, so a change to a default is
	// measured as an operator would feel it.
	serverArgs []string
	readOnly   bool
	// opsPerSec is connection 0's request rate at the commit that
	// defined the benchmark, on the box named in README.md. It is frozen:
	// it only sizes the script so that a round lasts about as long as
	// asked, and must not follow the program's speed.
	opsPerSec float64
	// replayPerSec sizes the in-process per-layer replay the same way
	// (timed operations per second of -seconds).
	replayPerSec float64
	// generate appends n operations to a read-only connection's script
	// (mid_churn's two connections differ: genChurn and genChurnReader).
	generate func(g *generator, n int)
}

// churnLoad is mid_churn's offered load in Erlangs: arrivals come one
// per slot and hold for Exp(mean churnLoad) slots.
const (
	churnLoad       = 250
	churnWarmup     = 1000 // untimed arrivals before the window: occupancy reaches steady state
	churnFailEvery  = 500  // every 500th arrival fails a link ...
	churnRepairLag  = 50   // ... and repairs it 50 arrivals later
	treeBatchPairs  = 16
	treeBatchSrcs   = 4
	treeRouteFromPc = 70
)

var workloads = []*workload{
	{
		name:         "nsf_read",
		why:          "14-node NSFNET point routes: the search is a fifth of a request, so wire, parse, admission, recorder and encode do most of the work",
		serverArgs:   []string{"-topo", "nsfnet", "-k", "8", "-seed", "1"},
		readOnly:     true,
		opsPerSec:    8000,
		replayPerSec: 1500,
		generate:     genRoutes,
	},
	{
		name:         "big_read",
		why:          "300-node sparse point routes: Theorem 1's size term makes the search nearly all of a request; the control for nsf_read and the reverse",
		serverArgs:   []string{"-topo", "sparse", "-n", "300", "-k", "8", "-seed", "1"},
		readOnly:     true,
		opsPerSec:    1000,
		replayPerSec: 100,
		generate:     genRoutes,
	},
	{
		name:         "mid_tree",
		why:          "routefrom and batch at a stable epoch over 100 sources against a 64-entry SourceTree cache: cache lookup and 100-line reply encoding dominate",
		serverArgs:   []string{"-topo", "sparse", "-n", "100", "-k", "8", "-seed", "1"},
		readOnly:     true,
		opsPerSec:    2500,
		replayPerSec: 250,
		generate:     genTrees,
	},
	{
		name:         "mid_churn",
		why:          "250-Erlang alloc/release/fail/repair churn beside a reader: every mutation publishes an epoch, so the same cache misses and writers serialise",
		serverArgs:   []string{"-topo", "sparse", "-n", "100", "-k", "8", "-seed", "1"},
		opsPerSec:    2500,
		replayPerSec: 500,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// buildNetwork resolves wdmserve's topology flags exactly as wdmserve
// does, defaults included.
func buildNetwork(args []string) (*wdm.Network, error) {
	fs := flag.NewFlagSet("net", flag.ContinueOnError)
	var nf cli.NetFlags
	nf.Register(fs)
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	return nf.Build()
}

// newEngine builds an engine with wdmserve's default options.
func newEngine(nw *wdm.Network) (*engine.Engine, error) {
	return engine.New(nw, &engine.Options{
		Queue:     graph.QueueBinary,
		CacheSize: engine.DefaultCacheSize,
		Directed:  core.DirectedPlain,
	})
}

type verb uint8

const (
	verbRoute verb = iota
	verbRouteFrom
	verbBatch
	verbAlloc
	verbRelease
	verbFail
	verbRepair
)

var verbNames = [...]string{"route", "routefrom", "batch", "alloc", "release", "fail", "repair"}

func (v verb) mutates() bool { return v >= verbAlloc }

// op is one request of a script.
type op struct {
	verb verb
	args []int
	send []byte // the command line, newline included
	// want is the reference reply, byte for byte. Empty means the reply
	// is only classified (mid_churn's reader, whose answers depend on
	// where the writer is).
	want string
	// lines is the line count of a successful reply; a busy or error
	// reply is always one line.
	lines int
	// lease is the id the engine mints for an alloc, admitted or not: its
	// ordinal among the script's allocs, since only connection 0 allocates.
	lease int64
}

func newOp(v verb, nodes int, args ...int) op {
	var b strings.Builder
	b.WriteString(verbNames[v])
	for _, a := range args {
		b.WriteByte(' ')
		b.WriteString(strconv.Itoa(a))
	}
	b.WriteByte('\n')
	o := op{verb: v, args: args, send: []byte(b.String()), lines: 1}
	switch v {
	case verbRouteFrom:
		o.lines = nodes
	case verbBatch:
		o.lines = 1 + len(args)/2
	}
	return o
}

func (o *op) line() string { return string(o.send[:len(o.send)-1]) }

// script is what one connection sends. ops[timedStart:timedEnd] run
// inside the timed window; what comes before and after (mid_churn's
// warm-up and final releases) runs untimed.
type script struct {
	ops        []op
	timedStart int
	timedEnd   int
}

func (s *script) timed() []op { return s.ops[s.timedStart:s.timedEnd] }

// plan is everything a run needs that depends only on the workload, the
// seed and the size: both scripts with their reference replies and the
// facts the reference replay fixes.
type plan struct {
	w     *workload
	seed  int64
	net   *wdm.Network
	conn0 *script
	conn1 *script
	// Reference facts over connection 0's whole script.
	blocked    int    // replies that are "no semilightpath exists"
	leases     int    // admitted allocs
	finalEpoch uint64 // engine epoch after the last operation
	oracleOK   int    // route costs checked against internal/oracle
}

// generator carries the seeded streams and the network size.
type generator struct {
	rng   *rand.Rand
	nodes int
	links int
	ops   []op
}

// newGenerator gives each (seed, stream) pair its own PRNG stream.
func newGenerator(seed int64, stream int64, nw *wdm.Network) *generator {
	return &generator{
		rng:   rand.New(rand.NewSource(seed*1_000_003 + stream)),
		nodes: nw.NumNodes(),
		links: nw.NumLinks(),
	}
}

// pair draws S != T uniformly.
func (g *generator) pair() (int, int) {
	s := g.rng.Intn(g.nodes)
	t := g.rng.Intn(g.nodes - 1)
	if t >= s {
		t++
	}
	return s, t
}

func (g *generator) add(v verb, args ...int) *op {
	g.ops = append(g.ops, newOp(v, g.nodes, args...))
	return &g.ops[len(g.ops)-1]
}

func genRoutes(g *generator, n int) {
	for i := 0; i < n; i++ {
		s, t := g.pair()
		g.add(verbRoute, s, t)
	}
}

// genTrees is mid_tree: 70 % routefrom over all sources, 30 % batches of
// 16 pairs drawn from 4 sources (so the batch goes through the cache).
func genTrees(g *generator, n int) {
	for i := 0; i < n; i++ {
		if g.rng.Intn(100) < treeRouteFromPc {
			g.add(verbRouteFrom, g.rng.Intn(g.nodes))
			continue
		}
		var srcs [treeBatchSrcs]int
		for j := range srcs {
			srcs[j] = g.rng.Intn(g.nodes)
		}
		args := make([]int, 0, 2*treeBatchPairs)
		for j := 0; j < treeBatchPairs; j++ {
			s := srcs[g.rng.Intn(treeBatchSrcs)]
			t := g.rng.Intn(g.nodes - 1)
			if t >= s {
				t++
			}
			args = append(args, s, t)
		}
		g.add(verbBatch, args...)
	}
}

// genChurnReader is mid_churn's connection 1: half point routes, half
// single-source trees, beside the writer.
func genChurnReader(g *generator, n int) {
	for i := 0; i < n; i++ {
		if g.rng.Intn(2) == 0 {
			s, t := g.pair()
			g.add(verbRoute, s, t)
		} else {
			g.add(verbRouteFrom, g.rng.Intn(g.nodes))
		}
	}
}

// reference executes command lines in-process through serve.Session on
// an engine built like the server's, rendering errors as the TCP
// transport does. The server under test never sees this code path's
// output: it receives only the generated lines.
type reference struct {
	eng  *engine.Engine
	sess *serve.Session
	buf  bytes.Buffer
}

func newReference(eng *engine.Engine) *reference {
	r := &reference{eng: eng}
	r.sess = serve.NewSession(eng, &r.buf, nil)
	return r
}

func (r *reference) exec(line string) string {
	r.buf.Reset()
	if _, err := r.sess.Exec(line); err != nil {
		fmt.Fprintf(&r.buf, "error: %v\n", err)
	}
	return r.buf.String()
}

// fill computes the reference reply of every op of a read-only script.
// On a network nobody mutates a reply depends on the command alone, so
// repeated commands are answered once.
func (r *reference) fill(ops []op) {
	memo := make(map[string]string)
	for i := range ops {
		line := ops[i].line()
		want, ok := memo[line]
		if !ok {
			want = r.exec(line)
			memo[line] = want
		}
		ops[i].want = want
	}
}

func isBlocked(reply string) bool {
	return serve.Classify(strings.TrimSuffix(reply, "\n")) == serve.ReplyBlocked
}

// makePlan generates both scripts for n timed connection-0 operations
// and replays them for the reference transcript. The same (workload,
// seed, n) always gives the same plan.
func makePlan(w *workload, seed int64, n int) (*plan, error) {
	nw, err := buildNetwork(w.serverArgs)
	if err != nil {
		return nil, fmt.Errorf("%s: build network: %w", w.name, err)
	}
	eng, err := newEngine(nw)
	if err != nil {
		return nil, fmt.Errorf("%s: build engine: %w", w.name, err)
	}
	p := &plan{w: w, seed: seed, net: nw}
	g0, g1 := newGenerator(seed, 0, nw), newGenerator(seed, 1, nw)
	if w.readOnly {
		w.generate(g0, n)
		w.generate(g1, n)
		// The two transcripts are independent on a static network: one
		// core each.
		var wg sync.WaitGroup
		for _, g := range []*generator{g0, g1} {
			wg.Add(1)
			go func(g *generator) {
				defer wg.Done()
				newReference(eng).fill(g.ops)
			}(g)
		}
		wg.Wait()
		p.conn0 = &script{ops: g0.ops, timedEnd: len(g0.ops)}
		for i := range g0.ops {
			if isBlocked(g0.ops[i].want) {
				p.blocked++
			}
		}
	} else {
		p.conn0 = genChurn(g0, newReference(eng), n, p)
		genChurnReader(g1, n)
	}
	p.conn1 = &script{ops: g1.ops, timedEnd: len(g1.ops)}
	p.finalEpoch = eng.Epoch()
	if st := eng.Stats(); st.ActiveOwners != 0 || st.HeldChannels != 0 {
		return nil, fmt.Errorf("%s: reference ends with %d owners holding %d channels, want none",
			w.name, st.ActiveOwners, st.HeldChannels)
	}
	if w.readOnly {
		if err := p.checkOracle(); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// genChurn is mid_churn's connection 0: Erlang traffic. Arrival i sends
// `alloc S T`; an admitted lease is released after ceil(Exp(mean 250))
// further arrivals. Whether an alloc is admitted, and under which lease
// id, is only known by executing it, so generation and the reference
// replay advance together. n is the number of timed operations; each
// arrival costs about two (its alloc and, later, its release).
func genChurn(g *generator, ref *reference, n int, p *plan) *script {
	sc := &script{}
	exec := func(v verb, args ...int) string {
		o := g.add(v, args...)
		o.want = ref.exec(o.line())
		if isBlocked(o.want) {
			p.blocked++
		}
		return o.want
	}
	due := make(map[int][]int) // arrival index -> leases to release before it
	live := make(map[int]int)  // lease -> release slot
	repairAt, failed := -1, -1
	for i := 0; ; i++ {
		if i == churnWarmup {
			sc.timedStart = len(g.ops)
		}
		if i >= churnWarmup && len(g.ops)-sc.timedStart >= n {
			break
		}
		for _, lease := range due[i] {
			exec(verbRelease, lease)
			delete(live, lease)
		}
		delete(due, i)
		if i == repairAt {
			exec(verbRepair, failed)
			failed = -1
		}
		if i > 0 && i%churnFailEvery == 0 {
			failed, repairAt = g.rng.Intn(g.links), i+churnRepairLag
			exec(verbFail, failed)
		}
		s, t := g.pair()
		reply := exec(verbAlloc, s, t)
		g.ops[len(g.ops)-1].lease = int64(i + 1)
		if lease, ok := serve.ParseLease(reply); ok {
			at := i + 1 + int(math.Ceil(g.rng.ExpFloat64()*churnLoad))
			due[at] = append(due[at], int(lease))
			live[int(lease)] = at
			p.leases++
		}
	}
	sc.timedEnd = len(g.ops)
	// Untimed drain: back to an empty network, which the server's stats
	// verb must confirm.
	if failed >= 0 {
		exec(verbRepair, failed)
	}
	rest := make([]int, 0, len(live))
	for lease := range live {
		rest = append(rest, lease)
	}
	sort.Ints(rest)
	for _, lease := range rest {
		exec(verbRelease, lease)
	}
	sc.ops = g.ops
	return sc
}

// oracleSamples is how many reference costs of a read-only workload are
// checked against internal/oracle, which shares no code with the search.
const oracleSamples = 64

// checkOracle guards the reference itself: it is produced by the code
// under test, so a search bug would corrupt server and reference alike.
func (p *plan) checkOracle() error {
	type sample struct {
		s, t    int
		cost    float64
		blocked bool
	}
	rng := rand.New(rand.NewSource(p.seed*1_000_003 + 2))
	ops := p.conn0.ops
	var samples []sample
	for len(samples) < oracleSamples && len(ops) > 0 {
		o := &ops[rng.Intn(len(ops))]
		lines := strings.Split(strings.TrimSuffix(o.want, "\n"), "\n")
		sm := sample{}
		var line string
		switch o.verb {
		case verbRoute:
			sm.s, sm.t, line = o.args[0], o.args[1], lines[0]
		case verbRouteFrom:
			sm.s, sm.t = o.args[0], rng.Intn(len(lines))
			line = lines[sm.t]
		case verbBatch:
			j := rng.Intn(len(o.args) / 2)
			sm.s, sm.t, line = o.args[2*j], o.args[2*j+1], lines[1+j]
		}
		cost, ok := serve.ParseCost(line)
		sm.cost, sm.blocked = cost, !ok
		samples = append(samples, sm)
	}
	errs := make([]error, len(samples))
	var wg sync.WaitGroup
	for half := 0; half < 2; half++ {
		wg.Add(1)
		go func(half int) {
			defer wg.Done()
			for i := half; i < len(samples); i += 2 {
				sm := samples[i]
				cost, _, err := oracle.Solve(p.net, sm.s, sm.t)
				switch {
				case err != nil && !sm.blocked:
					errs[i] = fmt.Errorf("%s: oracle: %d -> %d: reference cost %g, oracle: %v", p.w.name, sm.s, sm.t, sm.cost, err)
				case err == nil && sm.blocked:
					errs[i] = fmt.Errorf("%s: oracle: %d -> %d: reference blocked, oracle cost %g", p.w.name, sm.s, sm.t, cost)
				case err == nil && math.Abs(cost-sm.cost) > 1e-9*math.Max(1, math.Abs(cost)):
					errs[i] = fmt.Errorf("%s: oracle: %d -> %d: reference cost %g, oracle cost %g", p.w.name, sm.s, sm.t, sm.cost, cost)
				}
			}
		}(half)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	p.oracleOK = len(samples)
	return nil
}
