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
// A background sampler (interval -sample-interval, ring capacity
// -history-size) snapshots the telemetry registry into a frame ring
// and evaluates SLO health rules against it after every sample: the
// engine's blocked-route rate and windowed route p99, plus a
// failing-severity ceiling on the TCP shed rate. When health
// transitions to failing and -bundle-dir is set, a diagnostic bundle
// (metric history, recent and slow traces, goroutine/heap profiles,
// server config) is captured atomically — rate-limited so a flapping
// rule cannot fill the disk.
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

func run(args []string, stdin io.Reader, w io.Writer) error {
	fs := flag.NewFlagSet("wdmserve", flag.ContinueOnError)
	var nf cli.NetFlags
	nf.Register(fs)
	queue := fs.String("queue", "bucket",
		"queue SourceTrees are built on: bucket|binary (same costs; searches with a goal always run on the binary heap)")
	directed := fs.String("directed", "astar",
		"point-query search strategy: plain|astar (astar = A* under a per-query lower bound from the physical network)")
	cacheSize := fs.Int("cache", engine.DefaultCacheSize, "sizes the cost-row cache and, under astar, the bound-row cache at this many × TreePays rows each (<0 disables both)")
	workers := fs.Int("workers", 0, "batch worker pool size (0 = GOMAXPROCS)")
	script := fs.String("script", "", "read commands from this file instead of stdin")
	listen := fs.String("listen", "",
		"serve the line protocol to concurrent TCP clients on this address (disables the stdin REPL)")
	queueDepth := fs.Int("queue-depth", serve.DefaultQueueDepth,
		"TCP admission queue capacity across all connections; full queue sheds with a busy reply")
	requestTimeout := fs.Duration("request-timeout", 100*time.Millisecond,
		"TCP: max wait for an admission slot before a request is shed (<=0 sheds immediately)")
	idleTimeout := fs.Duration("idle-timeout", 0,
		"TCP: disconnect a client idle for this long (0 = no limit)")
	writeTimeout := fs.Duration("write-timeout", 10*time.Second,
		"TCP: per-reply flush deadline (0 = no limit)")
	drainTimeout := fs.Duration("drain-timeout", 5*time.Second,
		"TCP: graceful drain budget on SIGINT/SIGTERM before force-closing connections")
	debugAddr := fs.String("debug-addr", "",
		"serve /metrics, /metrics.prom, /debug/requests, /debug/slow, /debug/vars and /debug/pprof on this address (e.g. 127.0.0.1:6060)")
	recorder := fs.Bool("recorder", true,
		"record every request as a span tree in the flight recorder")
	recorderSize := fs.Int("recorder-size", obs.DefaultRingSize,
		"flight-recorder capacity in retained request traces")
	slowThreshold := fs.Duration("slow-threshold", obs.DefaultSlowThreshold,
		"retain requests at or above this duration in the slow log (<0 disables)")
	traceSample := fs.Int("trace-sample", 1,
		"head-sample recording: record every Nth request (1 = all)")
	sampleInterval := fs.Duration("sample-interval", obs.DefaultSampleInterval,
		"metric history sampling interval (0 disables the sampler and health evaluation)")
	historySize := fs.Int("history-size", obs.DefaultHistorySize,
		"metric history ring capacity in frames")
	bundleDir := fs.String("bundle-dir", "",
		"capture a diagnostic bundle into this directory when health transitions to failing (empty disables)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var kind graph.QueueKind
	switch *queue {
	case "bucket":
		kind = graph.QueueBucket
	case "binary":
		kind = graph.QueueBinary
	case "fibonacci", "linear":
		return fmt.Errorf("queue %q is an ablation subject, not a serving queue: measure it with wdmbench -experiment heap-ablation", *queue)
	default:
		return fmt.Errorf("unknown queue %q", *queue)
	}

	var mode core.DirectedMode
	switch *directed {
	case "plain":
		mode = core.DirectedPlain
	case "astar":
		mode = core.DirectedAStar
	default:
		return fmt.Errorf("unknown directed mode %q", *directed)
	}

	nw, err := nf.Build()
	if err != nil {
		return err
	}
	eng, err := engine.New(nw, &engine.Options{Queue: kind, CacheSize: *cacheSize, Directed: mode})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "serving %d nodes, %d links, k=%d (epoch %d, %s search)\n",
		nw.NumNodes(), nw.NumLinks(), nw.K(), eng.Epoch(), eng.Directed())

	tracer := obs.NewTracer(&obs.TracerOptions{
		RingSize: *recorderSize,
		Sample:   *traceSample,
		Disabled: !*recorder,
	})
	// Set the threshold after construction: the flag value is literal
	// (0 retains everything, negative disables the slow log), unlike the
	// options field where 0 selects the default.
	tracer.SetSlowThreshold(*slowThreshold)
	tracer.RegisterMetrics(eng.Metrics())

	// SLO health: the engine's default rules plus a failing-severity
	// ceiling on the TCP shed rate — sustained shedding is the one
	// signal that means clients are actively being turned away.
	health := obs.NewHealth()
	if err := engine.RegisterDefaultHealthRules(health); err != nil {
		return err
	}
	if err := health.AddRule("serve_shed_rate_failing", obs.RuleSpec{
		Metric:    "serve_shed_total",
		Kind:      obs.RuleRate,
		Threshold: shedRateThreshold,
		Sustain:   engine.DefaultHealthSustain,
		Severity:  obs.HealthFailing,
	}); err != nil {
		return err
	}
	health.RegisterMetrics(eng.Metrics())

	var sampler *obs.Sampler
	if *sampleInterval > 0 {
		sampler = obs.NewSampler(eng.Metrics(), &obs.SamplerOptions{
			Interval: *sampleInterval,
			Capacity: *historySize,
		})
		sampler.RegisterMetrics(eng.Metrics())
		sampler.AttachHealth(health)
		sampler.Start()
		defer sampler.Stop()
	}
	if *bundleDir != "" {
		bundler := obs.NewBundler(&obs.BundlerOptions{Dir: *bundleDir})
		bundler.RegisterMetrics(eng.Metrics())
		config := fmt.Sprintf(
			"listen=%s\nqueue-depth=%d\nrequest-timeout=%s\nsample-interval=%s\nhistory-size=%d\n",
			*listen, *queueDepth, *requestTimeout, *sampleInterval, *historySize)
		health.OnTransition(func(from, to obs.HealthStatus, detail []obs.RuleState) {
			if to != obs.HealthFailing {
				return
			}
			path, err := bundler.Capture("health_failing", []obs.Artifact{
				obs.HistoryArtifact(sampler.History(), 0),
				obs.RegistryArtifact(eng.Metrics()),
				obs.HealthArtifact(health),
				obs.TracerRecentArtifact(tracer, obs.DefaultRingSize),
				obs.TracerSlowArtifact(tracer, obs.DefaultSlowRingSize),
				obs.GoroutineArtifact(),
				obs.HeapArtifact(),
				obs.StaticArtifact("config.txt", []byte(config)),
			})
			switch {
			case err != nil:
				fmt.Fprintf(w, "health failing: bundle capture failed: %v\n", err)
			case path != "":
				fmt.Fprintf(w, "health failing: diagnostic bundle captured at %s\n", path)
			}
		})
	}

	// The TCP server is built before the debug mux so /readyz can close
	// over its drain state; on the REPL path srv stays nil and Draining
	// (nil-safe) keeps /readyz answering ready.
	tel := serve.NewTelemetry(eng.Metrics())
	var srv *serve.Server
	var cfg *serve.ServerConfig
	if *listen != "" {
		cfg = &serve.ServerConfig{
			QueueDepth:     *queueDepth,
			RequestTimeout: *requestTimeout,
			IdleTimeout:    *idleTimeout,
			WriteTimeout:   *writeTimeout,
			Workers:        *workers,
			Telemetry:      tel,
			Tracer:         tracer,
			Sampler:        sampler,
			Health:         health,
		}
		srv = serve.NewServer(eng, cfg)
	}

	if *debugAddr != "" {
		ln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			return fmt.Errorf("debug listener: %w", err)
		}
		defer ln.Close()
		mux := debugMux(eng, tracer, health, sampler, func() bool { return !srv.Draining() })
		go func() { _ = http.Serve(ln, mux) }()
		fmt.Fprintf(w, "debug server on %s (/metrics, /metrics.prom, /healthz, /readyz, /debug/requests, /debug/slow, /debug/history, /debug/vars, /debug/pprof)\n", ln.Addr())
	}

	if srv != nil {
		return serveTCP(srv, eng, w, *listen, cfg, *drainTimeout)
	}

	input := stdin
	if *script != "" {
		f, err := os.Open(*script)
		if err != nil {
			return fmt.Errorf("open script: %w", err)
		}
		defer f.Close()
		input = f
	}
	sess := serve.NewSession(eng, w, &serve.SessionOptions{
		Workers:   *workers,
		Telemetry: tel,
		Tracer:    tracer,
		Sampler:   sampler,
		Health:    health,
	})
	return serve.RunScript(sess, input)
}

// shedRateThreshold is the sheds-per-second ceiling of the default
// failing-severity SLO rule: sustained at DefaultHealthSustain
// consecutive frames it means the admission queue is turning clients
// away faster than any transient burst explains.
const shedRateThreshold = 100.0

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
func debugMux(eng *engine.Engine, tracer *obs.Tracer, health *obs.Health, sampler *obs.Sampler, ready func() bool) *http.ServeMux {
	obs.PublishExpvar("lightpath", eng.Metrics())
	mux := http.NewServeMux()
	mux.Handle("/metrics", eng.Metrics())
	mux.HandleFunc("/metrics.prom", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = eng.Metrics().WritePrometheus(w)
	})
	mux.Handle("/healthz", health)
	mux.Handle("/readyz", serve.ReadyzHandler(ready))
	mux.HandleFunc("/debug/history", func(w http.ResponseWriter, r *http.Request) {
		if sampler == nil {
			w.Header().Set("Content-Type", "application/json; charset=utf-8")
			fmt.Fprintln(w, "[]")
			return
		}
		sampler.History().ServeHTTP(w, r)
	})
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
