// Command scaltoold serves Scal-Tool analyses over HTTP — the serving path
// of the ROADMAP's production north star, built on internal/serve and the
// content-addressed run cache (internal/runcache).
//
//	scaltoold -addr :8080 -cache-mb 256 -cache-dir /var/cache/scaltool
//
// Endpoints:
//
//	POST /v1/analyze   {"app":"swim","procs":32}  → model + speedups + breakdown
//	GET  /v1/healthz   200 while serving, 503 while draining
//	GET  /metrics      Prometheus text format (scaltool_serve_*, scaltool_runcache_*, …)
//
// The simulator is deterministic, so identical requests are pure: the run
// cache serves repeats without re-simulating, and concurrent identical
// requests share one simulation (singleflight). Overload is shed at
// admission with 429 + Retry-After rather than queued. SIGINT/SIGTERM
// starts a graceful drain: health flips to 503, in-flight analyses finish
// (bounded by -shutdown-grace), then the listener closes.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"scaltool/internal/admission"
	"scaltool/internal/obs"
	"scaltool/internal/runcache"
	"scaltool/internal/serve"
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

// testOnReady, when set by tests, observes the bound listen address after
// the server is accepting connections.
var testOnReady func(addr string)

// realMain is main with its environment injected, so tests drive the full
// binary lifecycle — bind, serve, drain — in-process.
func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("scaltoold", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr       = fs.String("addr", ":8080", "listen address")
		workers    = fs.Int("workers", 0, "concurrent analyses (0 = the CPU budget, the GOMAXPROCS the daemon started with)")
		queueDepth = fs.Int("queue-depth", 0, "admitted analyses waiting for a worker before shedding (0 = 2×workers)")
		reqTimeout = fs.Duration("request-timeout", serve.DefaultRequestTimeout, "per-request analysis deadline")
		maxProcs   = fs.Int("max-procs", 64, "largest processor count a request may analyze")
		simWorkers = fs.Int("sim-workers", 0, "concurrent simulated runs within one analysis (0 = the CPU budget, as for -workers)")
		cacheMB    = fs.Int("cache-mb", 256, "run-cache byte budget in MiB (0 disables caching: no run cache and no response cache)")
		cacheDir   = fs.String("cache-dir", "", "spill evicted run-cache entries to this directory")
		maxS0MB    = fs.Int("max-s0-mb", 0, "largest dataset a request may declare, in MiB (0 = 256)")
		reqGCycles = fs.Float64("max-request-gcycles", 0, "predicted simulated cycles one request may cost, in billions (0 = 4000)")
		reqMB      = fs.Int("max-request-mb", 0, "predicted allocation footprint one request may cost, in MiB (0 = 512)")
		srvGCycles = fs.Float64("max-server-gcycles", 0, "aggregate predicted cycles admitted at once, in billions (0 = 16000)")
		srvMB      = fs.Int("max-server-mb", 0, "aggregate predicted allocation admitted at once, in MiB (0 = 2048)")
		hdrTimeout = fs.Duration("read-header-timeout", 5*time.Second, "how long a client may take to send request headers (slow-loris guard)")
		rdTimeout  = fs.Duration("read-timeout", 30*time.Second, "how long a client may take to send a whole request (0 disables)")
		grace      = fs.Duration("shutdown-grace", 30*time.Second, "how long a SIGTERM drain may take before the process force-exits")
		logLevel   = fs.String("log-level", "info", "structured log level: debug | info | warn | error")
		logJSON    = fs.Bool("log-json", false, "emit the structured log as JSON lines")
		traceOut   = fs.String("trace-out", "", "write a Chrome trace_event timeline of served requests here on exit (flushed atomically during drain)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if err := run(*addr, *grace, serveOptions{
		workers: *workers, queueDepth: *queueDepth, reqTimeout: *reqTimeout,
		simWorkers: *simWorkers, cacheMB: *cacheMB, cacheDir: *cacheDir,
		budget: admission.Budget{
			MaxProcs:         *maxProcs,
			MaxS0Bytes:       uint64(*maxS0MB) << 20,
			MaxRequestCycles: *reqGCycles * 1e9,
			MaxRequestBytes:  int64(*reqMB) << 20,
			MaxServerCycles:  *srvGCycles * 1e9,
			MaxServerBytes:   int64(*srvMB) << 20,
		},
		readHeaderTimeout: *hdrTimeout, readTimeout: *rdTimeout,
		logLevel: *logLevel, logJSON: *logJSON, traceOut: *traceOut,
	}, stdout, stderr); err != nil {
		fmt.Fprintln(stderr, "scaltoold:", err)
		return 1
	}
	return 0
}

type serveOptions struct {
	workers, queueDepth            int
	reqTimeout                     time.Duration
	simWorkers, cacheMB            int
	cacheDir                       string
	budget                         admission.Budget
	readHeaderTimeout, readTimeout time.Duration
	logLevel                       string
	logJSON                        bool
	traceOut                       string
}

func run(addr string, grace time.Duration, so serveOptions, stdout, stderr io.Writer) error {
	if grace <= 0 {
		return fmt.Errorf("-shutdown-grace must be positive, got %s", grace)
	}
	if so.cacheDir != "" && so.cacheMB <= 0 {
		return fmt.Errorf("-cache-dir needs -cache-mb (spill without a cache has nothing to spill)")
	}
	level, err := obs.ParseLevel(so.logLevel)
	if err != nil {
		return err
	}
	o := &obs.Observer{
		Metrics: obs.NewMetrics(),
		Logger:  obs.NewLogger(stderr, level, so.logJSON),
	}
	if so.traceOut != "" {
		o.Trace = obs.NewTracer()
		// The flush rides a defer so every exit path — clean drain, drain
		// timeout, listener failure — leaves a complete JSON document at
		// -trace-out. WriteFileAtomic renames a synced temp file into place,
		// so a reader racing the shutdown sees the whole trace or nothing,
		// never a truncated one.
		defer func() {
			if err := o.Trace.WriteFileAtomic(so.traceOut); err != nil {
				fmt.Fprintln(stderr, "scaltoold: writing trace:", err)
				return
			}
			fmt.Fprintf(stderr, "scaltoold: trace (%d events) → %s\n", o.Trace.Len(), so.traceOut)
		}()
	}
	var cache *runcache.Cache
	if so.cacheMB > 0 {
		cache = runcache.New(runcache.Options{
			MaxBytes: int64(so.cacheMB) << 20,
			SpillDir: so.cacheDir,
		})
	}
	srv := serve.New(serve.Options{
		Workers:        so.workers,
		QueueDepth:     so.queueDepth,
		RequestTimeout: so.reqTimeout,
		SimWorkers:     so.simWorkers,
		Budget:         so.budget,
		Cache:          cache,
		Obs:            o,
	})

	// Bind synchronously so a bad or taken address fails startup here —
	// the same fail-fast contract as scaltool's -pprof-addr.
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("listen: %w", err)
	}
	// Own SIGTERM before announcing readiness: a signal sent on the
	// "listening" line must drain the server, not kill the process.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigs)
	fmt.Fprintf(stdout, "scaltoold: listening on %s\n", ln.Addr())
	if testOnReady != nil {
		testOnReady(ln.Addr().String())
	}

	// Transport hardening: a client gets bounded time to present headers
	// (the slow-loris guard) and the whole request; body size is bounded by
	// the handler (internal/serve maxBodyBytes).
	httpSrv := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: so.readHeaderTimeout,
		ReadTimeout:       so.readTimeout,
	}
	errCh := make(chan error, 1)
	go func() {
		if err := httpSrv.Serve(ln); err != nil && err != http.ErrServerClosed {
			errCh <- err
			return
		}
		errCh <- nil
	}()

	select {
	case err := <-errCh:
		return err // the listener died on its own; nothing to drain
	case sig := <-sigs:
		fmt.Fprintf(stderr, "scaltoold: %v: draining (grace %s)\n", sig, grace)
	}

	// Graceful drain, in order: stop routing (healthz 503, new analyses
	// refused), wait for in-flight analyses, then close the listener and
	// idle connections. The grace bounds the whole sequence.
	dctx, cancel := context.WithTimeout(context.Background(), grace)
	defer cancel()
	if err := srv.Drain(dctx); err != nil {
		fmt.Fprintln(stderr, "scaltoold: drain incomplete; closing anyway:", err)
		_ = httpSrv.Close()
		<-errCh
		return err
	}
	if err := httpSrv.Shutdown(dctx); err != nil {
		_ = httpSrv.Close()
		<-errCh
		return fmt.Errorf("shutdown: %w", err)
	}
	<-errCh
	fmt.Fprintln(stdout, "scaltoold: drained and stopped")
	return nil
}
