package main

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// roundTimeout is the hard limit on one round, server start to server
// exit. When it fires the server is killed, the connections fail and the
// round is reported as failed.
const roundTimeout = 150 * time.Second

// warmPing is how long both connections ping the no-work epoch verb
// before an untimed round's window: it warms the connections and the
// server's request path. A traced round pings for longer (see
// wireFloorPing) and reports the mean round trip as the wire floor.
const warmPing = 250 * time.Millisecond

// wireFloorPing is a traced round's ping time: 2 s, less when the whole
// half is asked to be shorter than that.
func wireFloorPing(seconds int) time.Duration {
	if d := time.Duration(seconds) * time.Second / 2; d < 2*time.Second {
		return d
	}
	return 2 * time.Second
}

// latencies are one round's client-observed request times in
// nanoseconds, by class.
type latencies struct {
	read   []int64
	mutate []int64
}

func (l *latencies) add(v verb, d time.Duration) {
	if v.mutates() {
		l.mutate = append(l.mutate, int64(d))
	} else {
		l.read = append(l.read, int64(d))
	}
}

// round is what one run of a workload against one fresh server
// observed.
type round struct {
	setup     time.Duration // exec of wdmserve to the first epoch reply
	window    time.Duration // connection 0's first timed send to its last timed reply
	lat       latencies     // both connections, timed window only
	answered  int           // non-failed replies inside the window, both connections
	requests  int           // requests the window's CPU time is divided by
	cpu       float64       // server CPU seconds over the window
	peakRSSMB float64
	wireFloor time.Duration // mean epoch round trip (traced rounds)
	blocked   int           // connection 0's blocked replies, whole script
	attempted int           // every script operation sent on either connection
	failed    int
	notes     []string
	final     finalCounts // the server's own totals, reconciled with the clients'
	// Server-side registry just before and just after the window (traced
	// rounds only).
	before, after serverMetrics
}

func (r *round) fail(format string, args ...any) {
	r.failed++
	if len(r.notes) < 4*maxNotes {
		r.notes = append(r.notes, fmt.Sprintf(format, args...))
	}
}

// runRound starts a fresh server, drives both scripts through it with
// two closed-loop connections, stops it and reconciles the counts. An
// error means the round could not be measured at all; wrong replies are
// counted in round.failed instead.
func runRound(bin string, p *plan, ping time.Duration, traced bool) (*round, error) {
	srv, err := startServer(bin, p.w.serverArgs)
	if err != nil {
		return nil, err
	}
	defer srv.kill()
	watchdog := time.AfterFunc(roundTimeout, srv.kill)
	defer watchdog.Stop()

	r := &round{}
	c0, err := dial(srv.addr)
	if err != nil {
		return nil, fmt.Errorf("dial: %w\n%s", err, srv.log)
	}
	defer c0.close()
	if _, err := c0.ask("epoch", 1); err != nil {
		return nil, fmt.Errorf("first request: %w\n%s", err, srv.log)
	}
	r.setup = time.Since(srv.started)
	c1, err := dial(srv.addr)
	if err != nil {
		return nil, fmt.Errorf("dial: %w\n%s", err, srv.log)
	}
	defer c1.close()

	if err := r.pingBoth(c0, c1, ping); err != nil {
		return nil, fmt.Errorf("warm-up: %w\n%s", err, srv.log)
	}

	s0, s1 := p.conn0, p.conn1
	for i := range s0.ops[:s0.timedStart] {
		c0.do(&s0.ops[i])
	}
	if traced {
		if r.before, err = c0.metrics(); err != nil {
			return nil, fmt.Errorf("metrics: %w\n%s", err, srv.log)
		}
	}
	cpu0, err := srv.cpuSeconds()
	if err != nil {
		return nil, err
	}

	// The timed window. Connection 1 loops its script until connection 0
	// has finished its own.
	var (
		stop    atomic.Bool
		wg      sync.WaitGroup
		lat1    latencies
		ok1     int
		lastEnd time.Time
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		timed := s1.timed()
		lat1.read = make([]int64, 0, 2*len(timed))
		for i := 0; !stop.Load() && c1.err == nil; i++ {
			o := &timed[i%len(timed)]
			out, d := c1.do(o)
			if out <= replyBlocked {
				lat1.add(o.verb, d)
				ok1++
				lastEnd = time.Now()
			}
		}
	}()
	timed := s0.timed()
	r.lat.read = make([]int64, 0, 2*len(timed))
	r.lat.mutate = make([]int64, 0, len(timed))
	ok0 := 0
	begin := time.Now()
	for i := range timed {
		out, d := c0.do(&timed[i])
		if out <= replyBlocked {
			r.lat.add(timed[i].verb, d)
			ok0++
		}
	}
	end := time.Now()
	stop.Store(true)
	wg.Wait()
	r.window = end.Sub(begin)

	cpu1, err := srv.cpuSeconds()
	if err != nil {
		return nil, err
	}
	r.cpu = cpu1 - cpu0
	r.requests = ok0 + ok1
	r.answered = r.requests
	if lastEnd.After(end) {
		r.answered-- // connection 1's last reply landed after the window closed
	}
	r.lat.read = append(r.lat.read, lat1.read...)
	r.lat.mutate = append(r.lat.mutate, lat1.mutate...)
	if traced {
		if r.after, err = c0.metrics(); err != nil {
			return nil, fmt.Errorf("metrics: %w\n%s", err, srv.log)
		}
	}

	for i := range s0.ops[s0.timedEnd:] {
		c0.do(&s0.ops[s0.timedEnd+i])
	}
	if !p.w.readOnly {
		// Everything was released: the server must agree.
		lines, err := c0.ask("stats", 5)
		if err != nil {
			return nil, fmt.Errorf("stats: %w\n%s", err, srv.log)
		}
		if !strings.Contains(lines[0], "owners 0  held 0 ") {
			r.fail("leases left after the drain: %s", lines[0])
		}
	}
	if r.peakRSSMB, err = srv.peakRSSMB(); err != nil {
		return nil, err
	}
	c0.close()
	c1.close()
	fc, err := srv.stop()
	if err != nil {
		return nil, err
	}
	r.final = fc

	r.attempted = len(s0.ops) + ok1 + c1.failed()
	r.blocked = c0.blocked
	for _, c := range []*client{c0, c1} {
		r.failed += c.failed()
		r.notes = append(r.notes, c.notes...)
		if c.err != nil {
			r.notes = append(r.notes, "transport: "+c.err.Error())
		}
	}
	if r.blocked != p.blocked && c0.failed() == 0 {
		r.fail("connection 0 saw %d blocked replies, the reference has %d", r.blocked, p.blocked)
	}
	sent, busy := c0.sent+c1.sent, c0.busy+c1.busy
	if fc.requests != sent-busy {
		r.fail("server counted %d requests, the clients sent %d and %d were shed", fc.requests, sent, busy)
	}
	if fc.shed != busy {
		r.fail("server counted %d shed requests, the clients saw %d busy replies", fc.shed, busy)
	}
	if r.failed > 0 {
		r.notes = append(r.notes, "server output:\n"+srv.log.String())
	}
	return r, nil
}

// pingBoth runs the untimed epoch pings on both connections at once.
func (r *round) pingBoth(c0, c1 *client, d time.Duration) error {
	until := time.Now().Add(d)
	var (
		wg   sync.WaitGroup
		n1   int
		t1   time.Duration
		err1 error
		n0   int
		t0   time.Duration
		err0 error
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		n1, t1, err1 = c1.ping(until)
	}()
	n0, t0, err0 = c0.ping(until)
	wg.Wait()
	if err0 != nil {
		return err0
	}
	if err1 != nil {
		return err1
	}
	if n0+n1 > 0 {
		r.wireFloor = (t0 + t1) / time.Duration(n0+n1)
	}
	return nil
}

// sorted returns the ascending merge of the given samples.
func sorted(samples ...[]int64) []int64 {
	var all []int64
	for _, s := range samples {
		all = append(all, s...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	return all
}

// setupOnly measures exec-to-first-reply once more without running a
// script: set-up is short, so a run samples it several times.
func setupOnly(bin string, w *workload) (time.Duration, error) {
	srv, err := startServer(bin, w.serverArgs)
	if err != nil {
		return 0, err
	}
	defer srv.kill()
	c, err := dial(srv.addr)
	if err != nil {
		return 0, fmt.Errorf("dial: %w\n%s", err, srv.log)
	}
	defer c.close()
	if _, err := c.ask("epoch", 1); err != nil {
		return 0, fmt.Errorf("first request: %w\n%s", err, srv.log)
	}
	d := time.Since(srv.started)
	c.close()
	if _, err := srv.stop(); err != nil {
		return 0, err
	}
	return d, nil
}
