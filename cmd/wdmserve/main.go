// Command wdmserve runs the concurrent routing engine as an
// interactive service over a line protocol: it loads (or generates) a
// WDM network, publishes the epoch-0 snapshot, and then executes
// commands — routing queries against the current snapshot and
// allocate/release/fail/repair mutations that advance the epoch.
//
// Commands arrive from standard input (or a -script file), or, with
// -listen, from many concurrent TCP clients: one session per
// connection, all sharing the engine, with a bounded admission queue
// (overload is answered with a "busy" line instead of unbounded
// latency), per-request admission deadlines, per-connection idle/write
// timeouts, and graceful drain on SIGINT/SIGTERM.
//
// Usage:
//
//	wdmserve -topo nsfnet -k 8              # REPL on stdin
//	echo "route 0 9" | wdmserve -topo nsfnet
//	wdmserve -net instance.json -script cmds.txt
//	wdmserve -topo nsfnet -listen 127.0.0.1:7341   # TCP service
//
// Protocol (one command per line, '#' starts a comment):
//
//	route S T          optimal semilightpath S->T on the current snapshot
//	routefrom S        optimal costs S->* (one pass per source and epoch, then its cost row)
//	kshortest S T K    up to K alternate paths in cost order
//	protect S T        1+1 protected pair (primary + link-disjoint backup)
//	batch S1 T1 S2 T2 ...   route many pairs against ONE pinned snapshot
//	alloc S T          route S->T and claim the channels; prints the lease ID
//	release L          free lease L
//	fail LINK          take a link out of service (lists riding leases)
//	repair LINK        return a link to service
//	epoch              print the current epoch
//	stats              engine + cache counters, latency quantiles, uptime, health
//	explain S T        route S->T and print the per-hop Eq. (1) cost breakdown
//	trace on|off       attach a trace summary to every route/alloc answer
//	metrics            full telemetry registry as JSON
//	recent [N]         newest flight-recorder traces (one line each)
//	slow [N]           newest slow-log traces (>= -slow-threshold)
//	tracejson ID       one retained trace as its full JSON span tree
//	health             current SLO status with per-rule detail
//	history [N]        newest sampled metric frames with derived rates
//	quit               exit
//
// Every request is recorded as a span tree in an always-on flight
// recorder (disable with -recorder=false): queue wait, per-verb
// dispatch, engine cache/allocate/publish, and the core search with its
// per-lambda expansion counts. Requests at or above -slow-threshold
// are additionally retained in a separate slow log that fast traffic
// cannot evict.
//
// A background monitor (interval -sample-interval) snapshots the
// telemetry registry into a 128-frame ring and checks the health rules
// (serve.HealthRules) after every sample: the blocked-route rate and
// windowed route p99 degrade, a sustained TCP shed rate fails. When
// health transitions to failing and -bundle-dir is set, a diagnostic
// bundle (metric history, recent and slow traces, goroutine/heap
// profiles, every flag's value) is captured atomically — rate-limited
// so a flapping rule cannot fill the disk.
//
// With -debug-addr HOST:PORT the service also runs an HTTP debug
// endpoint exposing /metrics (the telemetry registry as JSON),
// /metrics.prom (Prometheus text format), /debug/requests and
// /debug/slow (flight-recorder traces as JSON, ?n= bounds the count),
// /debug/history (the sampled frame series as JSON), /healthz (SLO
// status, 503 once failing), /readyz (drain-aware readiness: 503 the
// moment Shutdown begins), /debug/vars (expvar) and /debug/pprof.
package main

import (
	"bytes"
	"context"
	"expvar"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"lightpath/internal/cli"
	"lightpath/internal/core"
	"lightpath/internal/engine"
	"lightpath/internal/graph"
	"lightpath/internal/obs"
	"lightpath/internal/serve"
)

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "wdmserve:", err)
		os.Exit(1)
	}
}

// flags is wdmserve's command line.
type flags struct {
	net      cli.NetFlags
	recorder bool

	queue, directed, script, listen, debugAddr, bundleDir string

	cacheSize, workers, queueDepth, recorderSize, traceSample int

	requestTimeout, idleTimeout, writeTimeout, drainTimeout time.Duration
	slowThreshold, sampleInterval                           time.Duration
}

// newFlags declares the command line on a fresh FlagSet bound to f.
func newFlags() (*flag.FlagSet, *flags) {
	fs, f := flag.NewFlagSet("wdmserve", flag.ContinueOnError), &flags{}
	f.net.Register(fs)
	fs.StringVar(&f.queue, "queue", "bucket",
		"queue SourceTrees are built on: bucket|binary (same costs; searches with a goal always run on the binary heap)")
	fs.StringVar(&f.directed, "directed", "astar",
		"point-query search strategy: plain|astar (astar = A* under a per-query lower bound from the physical network)")
	fs.IntVar(&f.cacheSize, "cache", engine.DefaultCacheSize, "sizes the cost-row cache and, under astar, the bound-row cache at this many × TreePays rows each (<0 disables both)")
	fs.IntVar(&f.workers, "workers", 0, "batch worker pool size (0 = GOMAXPROCS)")
	fs.StringVar(&f.script, "script", "", "read commands from this file instead of stdin")
	fs.StringVar(&f.listen, "listen", "",
		"serve the line protocol to concurrent TCP clients on this address (disables the stdin REPL)")
	fs.IntVar(&f.queueDepth, "queue-depth", serve.DefaultQueueDepth,
		"TCP admission queue capacity across all connections; full queue sheds with a busy reply")
	fs.DurationVar(&f.requestTimeout, "request-timeout", 100*time.Millisecond,
		"TCP: max wait for an admission slot before a request is shed (<=0 sheds immediately)")
	fs.DurationVar(&f.idleTimeout, "idle-timeout", 0,
		"TCP: disconnect a client idle for this long (0 = no limit)")
	fs.DurationVar(&f.writeTimeout, "write-timeout", 10*time.Second,
		"TCP: per-reply flush deadline (0 = no limit)")
	fs.DurationVar(&f.drainTimeout, "drain-timeout", 5*time.Second,
		"TCP: graceful drain budget on SIGINT/SIGTERM before force-closing connections")
	fs.StringVar(&f.debugAddr, "debug-addr", "",
		"serve /metrics, /metrics.prom, /debug/requests, /debug/slow, /debug/vars and /debug/pprof on this address (e.g. 127.0.0.1:6060)")
	fs.BoolVar(&f.recorder, "recorder", true,
		"record every request as a span tree in the flight recorder")
	fs.IntVar(&f.recorderSize, "recorder-size", obs.DefaultRingSize,
		"flight-recorder capacity in retained request traces")
	fs.DurationVar(&f.slowThreshold, "slow-threshold", obs.DefaultSlowThreshold,
		"retain requests at or above this duration in the slow log (<0 disables)")
	fs.IntVar(&f.traceSample, "trace-sample", 1,
		"head-sample recording: record every Nth request (1 = all)")
	fs.DurationVar(&f.sampleInterval, "sample-interval", obs.DefaultSampleInterval,
		"metric history sampling interval (0 disables the sampler and health evaluation)")
	fs.StringVar(&f.bundleDir, "bundle-dir", "",
		"capture a diagnostic bundle into this directory when health transitions to failing (empty disables)")
	return fs, f
}

func run(args []string, stdin io.Reader, w io.Writer) error {
	fs, f := newFlags()
	if err := fs.Parse(args); err != nil {
		return err
	}

	var kind graph.QueueKind
	switch f.queue {
	case "bucket":
		kind = graph.QueueBucket
	case "binary":
		kind = graph.QueueBinary
	case "fibonacci", "linear":
		return fmt.Errorf("queue %q is an ablation subject, not a serving queue: measure it with wdmbench -experiment heap-ablation", f.queue)
	default:
		return fmt.Errorf("unknown queue %q", f.queue)
	}

	var mode core.DirectedMode
	switch f.directed {
	case "plain":
		mode = core.DirectedPlain
	case "astar":
		mode = core.DirectedAStar
	default:
		return fmt.Errorf("unknown directed mode %q", f.directed)
	}

	nw, err := f.net.Build()
	if err != nil {
		return err
	}
	eng, err := engine.New(nw, &engine.Options{Queue: kind, CacheSize: f.cacheSize, Directed: mode})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "serving %d nodes, %d links, k=%d (epoch %d, %s search)\n",
		nw.NumNodes(), nw.NumLinks(), nw.K(), eng.Epoch(), eng.Directed())

	tracer := obs.NewTracer(&obs.TracerOptions{
		RingSize: f.recorderSize,
		Sample:   f.traceSample,
		Disabled: !f.recorder,
	})
	// Set the threshold after construction: the flag value is literal
	// (0 retains everything, negative disables the slow log), unlike the
	// options field where 0 selects the default.
	tracer.SetSlowThreshold(f.slowThreshold)
	tracer.RegisterMetrics(eng.Metrics())

	mon := obs.NewMonitor(eng.Metrics(), f.sampleInterval, serve.HealthRules)
	if f.bundleDir != "" {
		mon.BundleOnFailing(f.bundleDir, tracer, flagConfig(fs), w)
	}
	mon.Start()
	defer mon.Stop()

	// The TCP server is built before the debug mux so /readyz can close
	// over its drain state; on the REPL path srv stays nil and Draining
	// (nil-safe) keeps /readyz answering ready.
	tel := serve.NewTelemetry(eng.Metrics())
	var srv *serve.Server
	var cfg *serve.ServerConfig
	if f.listen != "" {
		cfg = &serve.ServerConfig{
			QueueDepth:     f.queueDepth,
			RequestTimeout: f.requestTimeout,
			IdleTimeout:    f.idleTimeout,
			WriteTimeout:   f.writeTimeout,
			Workers:        f.workers,
			Telemetry:      tel,
			Tracer:         tracer,
			Monitor:        mon,
		}
		srv = serve.NewServer(eng, cfg)
	}

	if f.debugAddr != "" {
		ln, err := net.Listen("tcp", f.debugAddr)
		if err != nil {
			return fmt.Errorf("debug listener: %w", err)
		}
		defer ln.Close()
		mux := debugMux(eng, tracer, mon, func() bool { return !srv.Draining() })
		go func() { _ = http.Serve(ln, mux) }()
		fmt.Fprintf(w, "debug server on %s (/metrics, /metrics.prom, /healthz, /readyz, /debug/requests, /debug/slow, /debug/history, /debug/vars, /debug/pprof)\n", ln.Addr())
	}

	if srv != nil {
		return serveTCP(srv, eng, w, f.listen, cfg, f.drainTimeout)
	}

	input := stdin
	if f.script != "" {
		file, err := os.Open(f.script)
		if err != nil {
			return fmt.Errorf("open script: %w", err)
		}
		defer file.Close()
		input = file
	}
	sess := serve.NewSession(eng, w, &serve.SessionOptions{
		Workers:   f.workers,
		Telemetry: tel,
		Tracer:    tracer,
		Monitor:   mon,
	})
	return serve.RunScript(sess, input)
}

// flagConfig renders every flag's effective value as sorted name=value
// lines: a bundle's config.txt, enough to rebuild the network it served.
func flagConfig(fs *flag.FlagSet) []byte {
	var b bytes.Buffer
	fs.VisitAll(func(f *flag.Flag) { fmt.Fprintf(&b, "%s=%s\n", f.Name, f.Value) })
	return b.Bytes()
}

// serveTCP runs the network front-end until a listener error or a
// drain-triggering signal (SIGINT/SIGTERM), then drains gracefully:
// stop accepting, let in-flight requests finish, force-close only if
// the drain budget runs out. Nothing is released implicitly — leases
// survive the drain — and the final telemetry totals are flushed to w
// before returning.
func serveTCP(srv *serve.Server, eng *engine.Engine, w io.Writer, addr string, cfg *serve.ServerConfig, drainTimeout time.Duration) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("listen: %w", err)
	}
	fmt.Fprintf(w, "listening on %s (queue %d, request timeout %s)\n",
		ln.Addr(), cfg.QueueDepth, cfg.RequestTimeout)

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigCh)

	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()

	var drainErr error
	select {
	case err := <-errCh:
		return err
	case sig := <-sigCh:
		fmt.Fprintf(w, "%s: draining (budget %s)\n", sig, drainTimeout)
		start := time.Now()
		ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
		defer cancel()
		drainErr = srv.Shutdown(ctx)
		if drainErr != nil {
			fmt.Fprintf(w, "drain: %v\n", drainErr)
		} else {
			fmt.Fprintf(w, "drained in %s\n", time.Since(start).Round(time.Millisecond))
		}
	}
	// Flush telemetry: the final serving totals, so a scripted soak can
	// reconcile its client-side counts against the server's.
	st := eng.Stats()
	snap := eng.Metrics().Snapshot()
	fmt.Fprintf(w, "final: epoch %d  connections %v  requests %v  shed %v  active leases %d\n",
		st.Epoch, snap["serve_connections_total"], snap["serve_requests_total"],
		snap["serve_shed_total"], st.ActiveOwners)
	return drainErr
}

// debugMux assembles the HTTP debug surface: the engine's telemetry
// registry as JSON at /metrics and Prometheus text format at
// /metrics.prom, the flight recorder and slow log as JSON trace arrays
// at /debug/requests and /debug/slow, the sampled metric history at
// /debug/history, the SLO status at /healthz (503 once failing),
// drain-aware readiness at /readyz (503 once ready() turns false), the
// same registry through expvar at /debug/vars, and the standard pprof
// handlers. The registry is also published under the expvar name
// "lightpath" (first engine in the process wins — expvar's namespace
// is global).
func debugMux(eng *engine.Engine, tracer *obs.Tracer, mon *obs.Monitor, ready func() bool) *http.ServeMux {
	obs.PublishExpvar("lightpath", eng.Metrics())
	mux := http.NewServeMux()
	mux.Handle("/metrics", eng.Metrics())
	mux.HandleFunc("/metrics.prom", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = eng.Metrics().WritePrometheus(w)
	})
	mux.Handle("/healthz", mon)
	mux.Handle("/readyz", serve.ReadyzHandler(ready))
	mux.HandleFunc("/debug/history", mon.ServeHistory)
	mux.HandleFunc("/debug/requests", tracer.ServeRecent)
	mux.HandleFunc("/debug/slow", tracer.ServeSlow)
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
