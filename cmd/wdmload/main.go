// Command wdmload is a closed-loop load generator for a wdmserve
// -listen service: N concurrent TCP connections each issue M
// synchronous requests (send one line, wait for the one-line reply)
// drawn from a weighted route/alloc/release mix, then release every
// lease they still hold. It reports latency quantiles, throughput and
// the three service-level outcome rates — blocking (no semilightpath
// in the residual network), shedding (admission queue full: "busy"),
// and protocol errors (which a correct run must not produce) — and can
// write the whole report as JSON for the benchmark trajectory
// (BENCH_serve.json).
//
// Usage:
//
//	wdmload -addr 127.0.0.1:7341 -conns 64 -requests 50000 \
//	        -mix route=8,alloc=1,release=1 -json BENCH_serve.json
//
// The generator probes the node count at startup (a routefrom answer
// has one line per node), so it needs no topology flags; endpoints are
// drawn uniformly per connection from a seeded PRNG, making a run
// reproducible against a deterministically-built server.
//
// When the server exposes a debug listener, -healthz takes its /healthz
// URL and polls it throughout the soak (cadence -healthz-interval,
// default 200ms): the report then carries how many polls saw each SLO
// status and the status of a final post-soak poll, so an overload run
// can assert the server degraded under load and recovered after it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"lightpath/internal/obs"
	"lightpath/internal/serve"
)

// Client-side span names: every request the generator sends is traced
// as a load_request with a load_send child (writing the command line)
// and a load_recv child (waiting for the reply — network plus the
// server's queue wait and execution). The recv:total ratio decomposes
// observed latency into client-side and server-side shares without any
// server cooperation; mean send/recv times are reported and the newest
// traces are retained in a client-side flight recorder.
const (
	spanLoadRequest = "load_request"
	spanLoadSend    = "load_send"
	spanLoadRecv    = "load_recv"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "wdmload:", err)
		os.Exit(1)
	}
}

// mixWeights is the parsed -mix flag: relative weights per verb.
type mixWeights struct {
	route, alloc, release int
}

func parseMix(s string) (mixWeights, error) {
	m := mixWeights{}
	for _, part := range strings.Split(s, ",") {
		kv := strings.SplitN(strings.TrimSpace(part), "=", 2)
		if len(kv) != 2 {
			return m, fmt.Errorf("mix: want verb=weight, got %q", part)
		}
		w, err := strconv.Atoi(kv[1])
		if err != nil || w < 0 {
			return m, fmt.Errorf("mix: bad weight %q", part)
		}
		switch kv[0] {
		case "route":
			m.route = w
		case "alloc":
			m.alloc = w
		case "release":
			m.release = w
		default:
			return m, fmt.Errorf("mix: unknown verb %q (want route|alloc|release)", kv[0])
		}
	}
	if m.route+m.alloc+m.release == 0 {
		return m, fmt.Errorf("mix: all weights zero")
	}
	return m, nil
}

// workerStats accumulates one connection's outcomes.
type workerStats struct {
	sent, ok, busy, blocked, protoErr int
	cleanup                           int
	firstProtoErr                     string
	latencies                         []int64 // ns, non-shed replies only
	spanned                           int     // requests with span decomposition
	sendNs, recvNs                    int64   // summed client-span durations
}

// report is the JSON shape written by -json.
type report struct {
	Addr            string  `json:"addr"`
	Conns           int     `json:"conns"`
	RequestsPlanned int     `json:"requests_planned"`
	Mix             string  `json:"mix"`
	Seed            int64   `json:"seed"`
	Nodes           int     `json:"nodes"`
	Sent            int     `json:"sent"`
	OK              int     `json:"ok"`
	Shed            int     `json:"shed"`
	Blocked         int     `json:"blocked"`
	ProtocolErrors  int     `json:"protocol_errors"`
	CleanupReleases int     `json:"cleanup_releases"`
	ShedRate        float64 `json:"shed_rate"`
	BlockingRate    float64 `json:"blocking_rate"`
	ElapsedMS       float64 `json:"elapsed_ms"`
	ThroughputRPS   float64 `json:"throughput_rps"`
	Latency         struct {
		P50  float64 `json:"p50_ns"`
		P90  float64 `json:"p90_ns"`
		P95  float64 `json:"p95_ns"`
		P99  float64 `json:"p99_ns"`
		Max  float64 `json:"max_ns"`
		Mean float64 `json:"mean_ns"`
	} `json:"latency"`
	// Client decomposes mean request latency from the generator's own
	// spans: send is the client-side write, recv is everything after it
	// (network plus the server's queue wait and execution).
	Client struct {
		SendMean float64 `json:"send_mean_ns"`
		RecvMean float64 `json:"recv_mean_ns"`
	} `json:"client"`
	// Health is the server's /healthz as seen during the soak (only when
	// -healthz was given): how many polls landed in each SLO status, and
	// the status of the final poll. A soak that drives the server to
	// failing shows up here even though the TCP replies only say "busy".
	Health *healthReport `json:"health,omitempty"`
}

// healthReport accumulates /healthz poll outcomes across a soak.
type healthReport struct {
	Polls    int    `json:"polls"`
	OK       int    `json:"ok"`
	Degraded int    `json:"degraded"`
	Failing  int    `json:"failing"`
	Errors   int    `json:"errors"`
	Final    string `json:"final"`
}

// healthPoller samples a wdmserve /healthz endpoint on a fixed cadence
// while the load runs. The endpoint answers 200 for ok/degraded and 503
// for failing, with a JSON body carrying the status either way, so the
// poller decodes the body and ignores the status code.
type healthPoller struct {
	url    string
	every  time.Duration
	stop   chan struct{}
	done   chan struct{}
	report healthReport
}

func startHealthPoller(url string, every time.Duration) *healthPoller {
	p := &healthPoller{
		url:   url,
		every: every,
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	go func() {
		defer close(p.done)
		t := time.NewTicker(p.every)
		defer t.Stop()
		for {
			p.pollOnce()
			select {
			case <-p.stop:
				return
			case <-t.C:
			}
		}
	}()
	return p
}

func (p *healthPoller) pollOnce() {
	p.report.Polls++
	client := http.Client{Timeout: p.every * 4}
	resp, err := client.Get(p.url)
	if err != nil {
		p.report.Errors++
		return
	}
	defer resp.Body.Close()
	var body struct {
		Status obs.HealthStatus `json:"status"`
	}
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&body); err != nil {
		p.report.Errors++
		return
	}
	switch body.Status {
	case obs.HealthOK:
		p.report.OK++
	case obs.HealthDegraded:
		p.report.Degraded++
	case obs.HealthFailing:
		p.report.Failing++
	}
	p.report.Final = body.Status.String()
}

// Stop halts the poll loop, issues one final poll (so Final reflects
// the post-soak status), and returns the accumulated report.
func (p *healthPoller) Stop() *healthReport {
	close(p.stop)
	<-p.done
	p.pollOnce()
	return &p.report
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("wdmload", flag.ContinueOnError)
	addr := fs.String("addr", "", "wdmserve -listen address to load (required)")
	conns := fs.Int("conns", 64, "concurrent connections")
	requests := fs.Int("requests", 50000, "total requests across all connections (cleanup releases not counted)")
	mixFlag := fs.String("mix", "route=8,alloc=1,release=1", "weighted request mix")
	seed := fs.Int64("seed", 1, "workload PRNG seed")
	timeout := fs.Duration("timeout", 10*time.Second, "per-request reply deadline")
	dialTimeout := fs.Duration("dial-timeout", 5*time.Second, "connection dial deadline")
	healthz := fs.String("healthz", "", "wdmserve -debug-addr /healthz URL to poll during the soak (optional)")
	healthzEvery := fs.Duration("healthz-interval", 200*time.Millisecond, "poll cadence for -healthz")
	jsonPath := fs.String("json", "", "write the report as JSON to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *addr == "" {
		return fmt.Errorf("-addr is required")
	}
	if *conns < 1 || *requests < 1 {
		return fmt.Errorf("want -conns >= 1 and -requests >= 1")
	}
	mix, err := parseMix(*mixFlag)
	if err != nil {
		return err
	}

	// Probe the topology size: a routefrom answer has one line per node.
	nodes, err := probeNodes(*addr, *dialTimeout, *timeout)
	if err != nil {
		return fmt.Errorf("probe: %w", err)
	}
	if nodes < 2 {
		return fmt.Errorf("server topology has %d nodes; need >= 2", nodes)
	}

	// Client-side flight recorder: every request is spanned (the cost
	// is nanoseconds against a network round trip) so latency can be
	// split into client and server+network shares.
	tracer := obs.NewTracer(&obs.TracerOptions{SlowThreshold: -1})

	stats := make([]workerStats, *conns)
	errs := make([]error, *conns)
	var poller *healthPoller
	if *healthz != "" {
		if *healthzEvery <= 0 {
			return fmt.Errorf("want -healthz-interval > 0")
		}
		poller = startHealthPoller(*healthz, *healthzEvery)
	}
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < *conns; i++ {
		n := *requests / *conns
		if i < *requests%*conns {
			n++
		}
		wg.Add(1)
		go func(id, n int) {
			defer wg.Done()
			errs[id] = worker(*addr, nodes, n, mix,
				rand.New(rand.NewSource(*seed+int64(id))), *dialTimeout, *timeout, tracer, &stats[id])
		}(i, n)
	}
	wg.Wait()
	elapsed := time.Since(start)
	var health *healthReport
	if poller != nil {
		health = poller.Stop()
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}

	rep := aggregate(stats, *addr, *conns, *requests, *mixFlag, *seed, nodes, elapsed)
	rep.Health = health
	fmt.Fprintf(w, "%d requests on %d conns in %s: %.0f req/s\n",
		rep.Sent, rep.Conns, elapsed.Round(time.Millisecond), rep.ThroughputRPS)
	fmt.Fprintf(w, "ok %d  shed %d (%.3f)  blocked %d (%.3f)  protocol errors %d\n",
		rep.OK, rep.Shed, rep.ShedRate, rep.Blocked, rep.BlockingRate, rep.ProtocolErrors)
	fmt.Fprintf(w, "latency: p50 %s  p90 %s  p95 %s  p99 %s  max %s\n",
		ns(rep.Latency.P50), ns(rep.Latency.P90), ns(rep.Latency.P95), ns(rep.Latency.P99), ns(rep.Latency.Max))
	fmt.Fprintf(w, "client spans: send mean %s  recv mean %s (server+network)\n",
		ns(rep.Client.SendMean), ns(rep.Client.RecvMean))
	if rep.Health != nil {
		fmt.Fprintf(w, "healthz: %d polls  ok %d  degraded %d  failing %d  errors %d  final %s\n",
			rep.Health.Polls, rep.Health.OK, rep.Health.Degraded, rep.Health.Failing,
			rep.Health.Errors, rep.Health.Final)
	}
	if *jsonPath != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*jsonPath, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(w, "report written to %s\n", *jsonPath)
	}
	if rep.ProtocolErrors > 0 {
		example := ""
		for _, st := range stats {
			if st.firstProtoErr != "" {
				example = st.firstProtoErr
				break
			}
		}
		return fmt.Errorf("%d protocol errors (first: %q)", rep.ProtocolErrors, example)
	}
	return nil
}

// probeNodes asks the server how many nodes the topology has by
// counting the lines of one routefrom answer.
func probeNodes(addr string, dialTimeout, timeout time.Duration) (int, error) {
	c, err := serve.Dial(addr, dialTimeout)
	if err != nil {
		return 0, err
	}
	defer c.Close()
	if err := c.SetDeadline(time.Now().Add(timeout)); err != nil {
		return 0, err
	}
	if err := c.Send("routefrom 0"); err != nil {
		return 0, err
	}
	// Every line of the answer is indented ("  0 -> T: ..."); a busy or
	// error line would be a single unindented reply.
	first, err := c.ReadLine()
	if err != nil {
		return 0, err
	}
	if serve.Classify(first) != serve.ReplyOK || !strings.HasPrefix(first, "  ") {
		return 0, fmt.Errorf("unexpected probe reply %q", first)
	}
	// Read the remaining n-1 lines: epoch is a cheap fence telling us
	// where the routefrom answer ends.
	if err := c.Send("epoch"); err != nil {
		return 0, err
	}
	nodes := 1
	for {
		line, err := c.ReadLine()
		if err != nil {
			return 0, err
		}
		if strings.HasPrefix(line, "epoch ") {
			return nodes, nil
		}
		nodes++
	}
}

// worker runs one closed-loop connection.
func worker(addr string, nodes, n int, mix mixWeights, rng *rand.Rand,
	dialTimeout, timeout time.Duration, tracer *obs.Tracer, st *workerStats) error {
	c, err := serve.Dial(addr, dialTimeout)
	if err != nil {
		return err
	}
	defer c.Close()
	st.latencies = make([]int64, 0, n)
	var leases []int64

	do := func(line string, cleanup bool) (serve.ReplyKind, error) {
		if err := c.SetDeadline(time.Now().Add(timeout)); err != nil {
			return 0, err
		}
		start := time.Now()
		req := tracer.Start(spanLoadRequest)
		ssp := req.Root().StartChild(spanLoadSend)
		if err := c.Send(line); err != nil {
			ssp.End()
			tracer.Finish(req)
			return 0, fmt.Errorf("%q: %w", line, err)
		}
		ssp.End()
		rsp := req.Root().StartChild(spanLoadRecv)
		reply, err := c.ReadLine()
		rsp.End()
		if req != nil && err == nil {
			st.spanned++
			st.sendNs += ssp.Duration().Nanoseconds()
			st.recvNs += rsp.Duration().Nanoseconds()
		}
		tracer.Finish(req) // the spans are the tracer's again from here
		if err != nil {
			return 0, fmt.Errorf("%q: %w", line, err)
		}
		lat := time.Since(start).Nanoseconds()
		if cleanup {
			st.cleanup++
		} else {
			st.sent++
		}
		kind := serve.Classify(reply)
		switch kind {
		case serve.ReplyBusy:
			st.busy++
		case serve.ReplyBlocked:
			st.blocked++
			st.latencies = append(st.latencies, lat)
		case serve.ReplyProtocolError:
			st.protoErr++
			if st.firstProtoErr == "" {
				st.firstProtoErr = reply
			}
		default:
			st.ok++
			st.latencies = append(st.latencies, lat)
			if id, ok := serve.ParseLease(reply); ok {
				leases = append(leases, id)
			}
			if strings.HasPrefix(reply, "released ") && len(leases) > 0 {
				leases = leases[:len(leases)-1]
			}
		}
		return kind, nil
	}

	total := mix.route + mix.alloc + mix.release
	for i := 0; i < n; i++ {
		s := rng.Intn(nodes)
		t := rng.Intn(nodes - 1)
		if t >= s {
			t++
		}
		var line string
		switch r := rng.Intn(total); {
		case r < mix.route:
			line = fmt.Sprintf("route %d %d", s, t)
		case r < mix.route+mix.alloc:
			line = fmt.Sprintf("alloc %d %d", s, t)
		default:
			if len(leases) == 0 {
				line = fmt.Sprintf("route %d %d", s, t)
				break
			}
			line = fmt.Sprintf("release %d", leases[len(leases)-1])
		}
		if _, err := do(line, false); err != nil {
			return err
		}
	}
	// Cleanup: tear down every lease this connection still holds, so a
	// drained server ends with zero active leases. Sheds here would
	// leak leases — retry until the release executes (a protocol error
	// means the lease is gone for a reason we cannot fix; drop it).
	for len(leases) > 0 {
		id := leases[len(leases)-1]
		kind, err := do(fmt.Sprintf("release %d", id), true)
		if err != nil {
			return err
		}
		if kind == serve.ReplyProtocolError {
			leases = leases[:len(leases)-1]
		}
	}
	return nil
}

// aggregate merges worker stats into the final report.
func aggregate(stats []workerStats, addr string, conns, planned int, mix string,
	seed int64, nodes int, elapsed time.Duration) *report {
	rep := &report{
		Addr: addr, Conns: conns, RequestsPlanned: planned,
		Mix: mix, Seed: seed, Nodes: nodes,
	}
	var all []int64
	var spanned int
	var sendNs, recvNs int64
	for _, st := range stats {
		rep.Sent += st.sent + st.cleanup
		rep.OK += st.ok
		rep.Shed += st.busy
		rep.Blocked += st.blocked
		rep.ProtocolErrors += st.protoErr
		rep.CleanupReleases += st.cleanup
		all = append(all, st.latencies...)
		spanned += st.spanned
		sendNs += st.sendNs
		recvNs += st.recvNs
	}
	if spanned > 0 {
		rep.Client.SendMean = float64(sendNs) / float64(spanned)
		rep.Client.RecvMean = float64(recvNs) / float64(spanned)
	}
	if rep.Sent > 0 {
		rep.ShedRate = float64(rep.Shed) / float64(rep.Sent)
		rep.BlockingRate = float64(rep.Blocked) / float64(rep.Sent)
	}
	rep.ElapsedMS = float64(elapsed.Nanoseconds()) / 1e6
	if elapsed > 0 {
		rep.ThroughputRPS = float64(rep.Sent) / elapsed.Seconds()
	}
	if len(all) > 0 {
		sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
		q := func(p float64) float64 {
			i := int(p * float64(len(all)-1))
			return float64(all[i])
		}
		rep.Latency.P50 = q(0.50)
		rep.Latency.P90 = q(0.90)
		rep.Latency.P95 = q(0.95)
		rep.Latency.P99 = q(0.99)
		rep.Latency.Max = float64(all[len(all)-1])
		var sum float64
		for _, v := range all {
			sum += float64(v)
		}
		rep.Latency.Mean = sum / float64(len(all))
	}
	return rep
}

// ns renders a nanosecond quantity as a duration.
func ns(v float64) time.Duration { return time.Duration(v) * time.Nanosecond }
