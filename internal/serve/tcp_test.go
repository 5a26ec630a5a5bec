package serve

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"lightpath/internal/engine"
	"lightpath/internal/obs"
)

// clientTally is one soak client's view of its outcomes.
type clientTally struct {
	ok, busy, blocked, protoErr int
	firstProto                  string
	leasesTaken                 int
}

// soakClient drives one closed-loop connection through a mixed
// route/batch/alloc/release(/fail/repair) workload, tracking its own
// leases and releasing every one of them before returning. chaos
// additionally interleaves fail/repair pairs on random links — the
// mutation class that exercises the engine's full-rebuild fallbacks
// under concurrent readers.
func soakClient(t testing.TB, addr string, id, requests, nodes, links int, chaos bool, tally *clientTally) error {
	c, err := Dial(addr, 10*time.Second)
	if err != nil {
		return fmt.Errorf("client %d: dial: %w", id, err)
	}
	defer c.Close()
	rng := rand.New(rand.NewSource(int64(id)*7919 + 17))
	var leases []int64

	classify := func(line string) {
		switch Classify(line) {
		case ReplyBusy:
			tally.busy++
		case ReplyBlocked:
			tally.blocked++
		case ReplyProtocolError:
			tally.protoErr++
			if tally.firstProto == "" {
				tally.firstProto = line
			}
		default:
			tally.ok++
			if lease, ok := ParseLease(line); ok {
				leases = append(leases, lease)
				tally.leasesTaken++
			}
			if strings.HasPrefix(line, "released ") && len(leases) > 0 {
				leases = leases[:len(leases)-1]
			}
		}
	}
	single := func(line string) error {
		if err := c.SetDeadline(time.Now().Add(30 * time.Second)); err != nil {
			return err
		}
		reply, err := c.Do(line)
		if err != nil {
			return fmt.Errorf("client %d: %q: %w", id, line, err)
		}
		classify(reply)
		return nil
	}

	for i := 0; i < requests; i++ {
		s := rng.Intn(nodes)
		d := rng.Intn(nodes - 1)
		if d >= s {
			d++
		}
		switch op := rng.Intn(100); {
		case op < 45: // route
			if err := single(fmt.Sprintf("route %d %d", s, d)); err != nil {
				return err
			}
		case op < 55: // batch of 2..4 pairs: 1 header + P answer lines
			pairs := 2 + rng.Intn(3)
			var sb strings.Builder
			sb.WriteString("batch")
			for p := 0; p < pairs; p++ {
				fmt.Fprintf(&sb, " %d %d", rng.Intn(nodes), rng.Intn(nodes))
			}
			if err := c.SetDeadline(time.Now().Add(30 * time.Second)); err != nil {
				return err
			}
			reply, err := c.Do(sb.String())
			if err != nil {
				return fmt.Errorf("client %d: batch: %w", id, err)
			}
			if Classify(reply) != ReplyOK || !strings.HasPrefix(reply, "batch of ") {
				classify(reply) // shed or error: single-line answer
				continue
			}
			tally.ok++
			for p := 0; p < pairs; p++ {
				if _, err := c.ReadLine(); err != nil {
					return fmt.Errorf("client %d: batch line %d: %w", id, p, err)
				}
			}
		case op < 75: // alloc
			if err := single(fmt.Sprintf("alloc %d %d", s, d)); err != nil {
				return err
			}
		case op < 95: // release one of our own leases
			if len(leases) == 0 {
				if err := single(fmt.Sprintf("route %d %d", s, d)); err != nil {
					return err
				}
				continue
			}
			if err := single(fmt.Sprintf("release %d", leases[len(leases)-1])); err != nil {
				return err
			}
		default: // epoch, or a fail/repair pair on the chaos client
			if !chaos {
				if err := single("epoch"); err != nil {
					return err
				}
				continue
			}
			link := rng.Intn(links)
			if err := single(fmt.Sprintf("fail %d", link)); err != nil {
				return err
			}
			if err := single(fmt.Sprintf("repair %d", link)); err != nil {
				return err
			}
		}
	}
	// Teardown: free every lease this client still holds; sheds retry.
	for len(leases) > 0 {
		before := len(leases)
		if err := single(fmt.Sprintf("release %d", leases[len(leases)-1])); err != nil {
			return err
		}
		if len(leases) == before { // shed or protocol error: don't spin forever on the latter
			if tally.protoErr > 0 {
				return fmt.Errorf("client %d: release failed: %s", id, tally.firstProto)
			}
		}
	}
	return nil
}

// runSoak is the deterministic end-to-end harness: clients × requests
// concurrent closed-loop sessions against an in-process TCP server on
// a seeded NSFNET instance. It returns the engine (for invariant
// checks) and the merged client tallies.
func runSoak(t *testing.T, clients, requestsEach int, cfg *ServerConfig) (*engine.Engine, clientTally) {
	t.Helper()
	eng := newEngine(t, "-topo", "nsfnet", "-k", "8", "-seed", "1")
	return eng, runSoakOn(t, eng, clients, requestsEach, cfg)
}

// runSoakOn is runSoak against a caller-built engine, so tests that
// pre-wire observability (sampler, health, bundler) onto the engine's
// registry can reuse the same client harness.
func runSoakOn(t *testing.T, eng *engine.Engine, clients, requestsEach int, cfg *ServerConfig) clientTally {
	t.Helper()
	if cfg.Telemetry == nil {
		cfg.Telemetry = NewTelemetry(eng.Metrics())
	}
	_, addr := startServer(t, eng, cfg)
	return soakAgainst(t, eng, addr, clients, requestsEach)
}

// soakAgainst drives the concurrent clients against an already-running
// server and merges their tallies.
func soakAgainst(t *testing.T, eng *engine.Engine, addr string, clients, requestsEach int) clientTally {
	t.Helper()
	nodes, links := eng.Base().NumNodes(), eng.Base().NumLinks()

	tallies := make([]clientTally, clients)
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			errs[id] = soakClient(t, addr, id, requestsEach, nodes, links, id == 0, &tallies[id])
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	var total clientTally
	for _, tl := range tallies {
		total.ok += tl.ok
		total.busy += tl.busy
		total.blocked += tl.blocked
		total.protoErr += tl.protoErr
		total.leasesTaken += tl.leasesTaken
		if total.firstProto == "" {
			total.firstProto = tl.firstProto
		}
	}
	return total
}

// checkWireInvariants asserts, across the TCP path, the telemetry
// invariants the in-process churn differential test pins: lifetime
// alloc/release counters reconcile with live leases, the cost-row
// cache's hits and misses partition its lookups, and after every lease
// is released each per-wavelength held gauge reads zero.
func checkWireInvariants(t *testing.T, eng *engine.Engine) {
	t.Helper()
	st := eng.Stats()
	if st.Allocations-st.Releases != uint64(st.ActiveOwners) {
		t.Errorf("allocations %d - releases %d != active owners %d",
			st.Allocations, st.Releases, st.ActiveOwners)
	}
	if st.ActiveOwners != 0 {
		t.Errorf("%d leases survived client teardown", st.ActiveOwners)
	}
	if cs := eng.CacheStats(); cs.Hits+cs.Misses != cs.Lookups {
		t.Errorf("cache hits %d + misses %d != lookups %d", cs.Hits, cs.Misses, cs.Lookups)
	}
	if st.Rebuilds != st.FullRebuilds+st.DeltaApplies {
		t.Errorf("rebuilds %d != full %d + delta %d", st.Rebuilds, st.FullRebuilds, st.DeltaApplies)
	}
	snap := eng.Metrics().Snapshot()
	for lam := 0; lam < eng.Base().K(); lam++ {
		name := fmt.Sprintf("wavelength_%d_held", lam)
		held, ok := snap[name].(float64)
		if !ok {
			t.Fatalf("metric %s missing from snapshot", name)
		}
		if held != 0 {
			t.Errorf("%s = %g after full drain, want 0", name, held)
		}
	}
	if held := eng.HeldChannels(); held != 0 {
		t.Errorf("%d channels held after full drain", held)
	}
}

// TestTCPConcurrentClientsEndToEnd is the end-to-end race test: ≥16
// concurrent clients mixing route/batch/alloc/release/fail/repair over
// real sockets against one shared engine, then the churn-test telemetry
// invariants asserted across the wire path. Run under -race this also
// proves the serve layer adds no data races on top of the engine's.
func TestTCPConcurrentClientsEndToEnd(t *testing.T) {
	requests := 150
	if testing.Short() {
		requests = 40
	}
	eng, total := runSoak(t, 16, requests, &ServerConfig{
		QueueDepth:     1024,
		RequestTimeout: 2 * time.Second,
		WriteTimeout:   10 * time.Second,
	})
	if total.protoErr != 0 {
		t.Fatalf("%d protocol errors from well-formed clients (first: %q)",
			total.protoErr, total.firstProto)
	}
	if total.ok == 0 || total.leasesTaken == 0 {
		t.Fatalf("degenerate soak: %+v", total)
	}
	checkWireInvariants(t, eng)
}

// TestTCPSoakUndersizedQueueShedsNotHangs saturates a deliberately
// undersized admission queue (depth 2, immediate-shed policy) with 64
// clients: the run must complete (nobody hangs), shed visibly, answer
// every non-shed request correctly, and still satisfy the invariants.
func TestTCPSoakUndersizedQueueShedsNotHangs(t *testing.T) {
	clients, requests := 64, 120
	if testing.Short() {
		clients, requests = 24, 40
	}
	tel := NewTelemetry(obs.NewRegistry())
	eng, total := runSoak(t, clients, requests, &ServerConfig{
		QueueDepth:     2,
		RequestTimeout: 0, // full queue sheds immediately
		WriteTimeout:   10 * time.Second,
		Telemetry:      tel,
		testExecDelay:  time.Millisecond, // hold slots long enough to collide
	})
	if total.protoErr != 0 {
		t.Fatalf("%d protocol errors (first: %q)", total.protoErr, total.firstProto)
	}
	if total.busy == 0 {
		t.Fatalf("no sheds despite queue depth 2 under %d clients: %+v", clients, total)
	}
	if got := tel.shed.Value(); got != uint64(total.busy) {
		t.Errorf("serve_shed_total = %d, clients saw %d busy replies", got, total.busy)
	}
	checkWireInvariants(t, eng)
}

// TestTCPShedDeterministic makes the shedding decision deterministic
// with the test-only execution delay: while one admitted request holds
// the single slot, a second request must get "busy" immediately.
func TestTCPShedDeterministic(t *testing.T) {
	eng := newEngine(t, "-topo", "nsfnet", "-k", "8", "-seed", "1")
	tel := NewTelemetry(eng.Metrics())
	_, addr := startServer(t, eng, &ServerConfig{
		QueueDepth: 1, RequestTimeout: 0, Telemetry: tel,
		testExecDelay: 200 * time.Millisecond,
	})

	slow := dialT(t, addr)
	fast := dialT(t, addr)
	if err := slow.Send("route 0 9"); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond) // the slow request is now mid-execution, slot held
	reply, err := fast.Do("route 0 9")
	if err != nil {
		t.Fatal(err)
	}
	if reply != "busy" {
		t.Fatalf("second request got %q, want busy", reply)
	}
	if got := tel.shed.Value(); got != 1 {
		t.Fatalf("serve_shed_total = %d, want 1", got)
	}
	// The slow request still completes correctly.
	line, err := slow.ReadLine()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(line, "cost ") {
		t.Fatalf("slow request answered %q, want a cost line", line)
	}
}

// TestTCPRequestTimeoutBoundsQueueWait verifies a queued request waits
// at most RequestTimeout for admission before shedding: bounded
// latency, not unbounded queueing.
func TestTCPRequestTimeoutBoundsQueueWait(t *testing.T) {
	eng := newEngine(t, "-topo", "nsfnet", "-k", "8", "-seed", "1")
	_, addr := startServer(t, eng, &ServerConfig{
		QueueDepth: 1, RequestTimeout: 50 * time.Millisecond,
		testExecDelay: 500 * time.Millisecond,
	})

	slow := dialT(t, addr)
	fast := dialT(t, addr)
	if err := slow.Send("epoch"); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	start := time.Now()
	reply, err := fast.Do("epoch")
	if err != nil {
		t.Fatal(err)
	}
	waited := time.Since(start)
	if reply != "busy" {
		t.Fatalf("queued request got %q, want busy", reply)
	}
	if waited < 40*time.Millisecond || waited > 400*time.Millisecond {
		t.Fatalf("queued request waited %s; want ≈ the 50ms request timeout", waited)
	}
}

// TestTCPGracefulDrainFinishesInFlight starts a slow request, begins a
// drain mid-flight, and requires (a) the in-flight reply is delivered,
// (b) idle connections are closed, (c) new connections are refused,
// (d) Shutdown returns nil well within its budget.
func TestTCPGracefulDrainFinishesInFlight(t *testing.T) {
	eng := newEngine(t, "-topo", "nsfnet", "-k", "8", "-seed", "1")
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(eng, &ServerConfig{QueueDepth: 4, testExecDelay: 200 * time.Millisecond})
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	addr := ln.Addr().String()

	busyConn := dialT(t, addr)
	idleConn := dialT(t, addr)
	if err := busyConn.Send("route 0 9"); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond) // request admitted and executing

	drainStart := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("graceful drain failed: %v", err)
	}
	drainTook := time.Since(drainStart)
	if drainTook > 3*time.Second {
		t.Fatalf("drain took %s, want well under the 5s budget", drainTook)
	}
	if err := <-serveErr; err != nil {
		t.Fatalf("Serve returned %v after drain", err)
	}

	// (a) The in-flight request's reply arrived before the close.
	line, err := busyConn.ReadLine()
	if err != nil {
		t.Fatalf("in-flight reply lost in drain: %v", err)
	}
	if !strings.HasPrefix(line, "cost ") {
		t.Fatalf("in-flight request answered %q, want a cost line", line)
	}
	// (b) The idle connection is closed (EOF, not a hang).
	if err := idleConn.SetDeadline(time.Now().Add(2 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if line, err := idleConn.ReadLine(); err == nil {
		t.Fatalf("idle connection still open after drain, read %q", line)
	}
	// (c) New connections are refused.
	if c, err := Dial(addr, 500*time.Millisecond); err == nil {
		c.Close()
		t.Fatal("dial succeeded after drain")
	}
}

// TestTCPDrainDeadlineForceCloses pins the other half of the drain
// contract: when in-flight work outlives the budget, Shutdown
// force-closes and says so instead of waiting forever.
func TestTCPDrainDeadlineForceCloses(t *testing.T) {
	eng := newEngine(t, "-topo", "nsfnet", "-k", "8", "-seed", "1")
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(eng, &ServerConfig{QueueDepth: 4, testExecDelay: 2 * time.Second})
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	c := dialT(t, ln.Addr().String())
	if err := c.Send("epoch"); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	err = srv.Shutdown(ctx)
	if err == nil {
		t.Fatal("Shutdown returned nil despite a request outliving the budget")
	}
	if !strings.Contains(err.Error(), "force-closed") {
		t.Fatalf("Shutdown error %q does not report the force-close", err)
	}
	if took := time.Since(start); took > 3*time.Second {
		t.Fatalf("forced shutdown took %s", took)
	}
	if err := <-serveErr; err != nil {
		t.Fatalf("Serve returned %v after drain", err)
	}
}

// TestTCPIdleTimeoutDisconnects verifies the per-connection read
// deadline: a silent client is dropped, an active one keeps its
// connection.
func TestTCPIdleTimeoutDisconnects(t *testing.T) {
	eng := newEngine(t, "-topo", "paper")
	_, addr := startServer(t, eng, &ServerConfig{QueueDepth: 4, IdleTimeout: 150 * time.Millisecond})

	active := dialT(t, addr)
	idle := dialT(t, addr)
	// Ten pings at 50ms spacing span ~500ms — far past the 150ms idle
	// limit — yet the active client must survive because each request
	// resets its deadline.
	for i := 0; i < 10; i++ {
		if reply, err := active.Do("epoch"); err != nil || !strings.HasPrefix(reply, "epoch ") {
			t.Fatalf("active client dropped on ping %d: %q, %v", i, reply, err)
		}
		time.Sleep(50 * time.Millisecond)
	}
	if err := idle.SetDeadline(time.Now().Add(2 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if line, err := idle.ReadLine(); err == nil {
		t.Fatalf("idle client survived the idle timeout, read %q", line)
	}
}

// TestTCPReplyBytesMatchREPL locks the wire format to the REPL format:
// the same command sequence produces identical reply bytes on both
// paths (the transport adds nothing but the busy shed line).
func TestTCPReplyBytesMatchREPL(t *testing.T) {
	script := []string{
		"route 0 6", "epoch", "kshortest 0 6 3", "batch 0 6 3 5",
		"alloc 0 6", "release 1", "warp", "route 0",
	}

	// REPL side first, recording how many reply lines each command
	// produced (errors render as one "error: ..." line on both paths) —
	// that count tells the wire reader when a multi-line reply ends.
	replEng := newEngine(t, "-topo", "paper")
	var repl strings.Builder
	sess := NewSession(replEng, &repl, nil)
	lineCount := make([]int, len(script))
	for i, cmd := range script {
		before := strings.Count(repl.String(), "\n")
		if _, err := sess.Exec(cmd); err != nil {
			fmt.Fprintf(&repl, "error: %v\n", err)
		}
		lineCount[i] = strings.Count(repl.String(), "\n") - before
		if lineCount[i] == 0 {
			t.Fatalf("%q produced no REPL output; script must stick to replying verbs", cmd)
		}
	}

	// Wire side, fresh engine with identical state evolution.
	wireEng := newEngine(t, "-topo", "paper")
	_, addr := startServer(t, wireEng, &ServerConfig{QueueDepth: 4})
	c := dialT(t, addr)
	var wire strings.Builder
	for i, cmd := range script {
		if err := c.Send(cmd); err != nil {
			t.Fatal(err)
		}
		for n := 0; n < lineCount[i]; n++ {
			line, err := c.ReadLine()
			if err != nil {
				t.Fatalf("%q line %d: %v", cmd, n, err)
			}
			fmt.Fprintf(&wire, "%s\n", line)
		}
	}
	if repl.String() != wire.String() {
		t.Fatalf("wire replies diverge from REPL:\nREPL:\n%s\nwire:\n%s", repl.String(), wire.String())
	}
}
