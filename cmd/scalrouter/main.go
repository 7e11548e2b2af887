// Command scalrouter is the fleet front tier: one address in front of N
// scaltoold replicas, with consistent-hash routing, health probing, and
// automatic failover (internal/fleet).
//
// Two ways to name the fleet:
//
//	scalrouter -addr :8080 -replica http://10.0.0.1:8081 -replica http://10.0.0.2:8081
//
// routes across already-running replicas, and
//
//	scalrouter -addr :8080 -spawn 3 -scaltoold ./scaltoold \
//	    -spawn-arg -cache-mb=64 -spawn-arg -cache-dir=/var/cache/scaltool
//
// supervises 3 scaltoold child processes itself (each on an ephemeral
// port), restarting any that die or hang — pass a shared -cache-dir so a
// replacement inherits the spilled analyses of the instance it replaces.
//
// Requests are placed by rendezvous hashing on the digest of the normalized
// analysis document, the key each replica's response cache already uses, so
// identical documents always land on the replica whose cache is warm. The simulator is deterministic, which makes
// failover safe: a replayed request cannot change its answer, only get it
// from somewhere else.
//
// SIGINT/SIGTERM drains: healthz flips to 503, new requests are refused
// with a retryable 429, in-flight forwards finish (bounded by
// -shutdown-grace), then supervised children are stopped via SIGTERM.
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
	"strings"
	"sync"
	"syscall"
	"time"

	"scaltool/internal/fleet"
	"scaltool/internal/obs"
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

// testOnReady, when set by tests, observes the bound listen address after
// the router is accepting connections.
var testOnReady func(addr string)

// stringList is a repeatable flag.
type stringList []string

func (s *stringList) String() string     { return strings.Join(*s, ",") }
func (s *stringList) Set(v string) error { *s = append(*s, v); return nil }

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("scalrouter", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var replicas, spawnArgs stringList
	var (
		addr       = fs.String("addr", ":8080", "listen address")
		spawn      = fs.Int("spawn", 0, "supervise this many scaltoold child processes instead of -replica URLs")
		scaltoold  = fs.String("scaltoold", "scaltoold", "scaltoold binary for -spawn")
		probeEvery = fs.Duration("probe-interval", 500*time.Millisecond, "replica health-probe period")
		fwdTimeout = fs.Duration("forward-timeout", 90*time.Second, "per-attempt forward deadline")
		grace      = fs.Duration("shutdown-grace", 30*time.Second, "how long a SIGTERM drain may take before the process force-exits")
		logLevel   = fs.String("log-level", "info", "structured log level: debug | info | warn | error")
		logJSON    = fs.Bool("log-json", false, "emit the structured log as JSON lines")
	)
	fs.Var(&replicas, "replica", "replica base URL (repeatable), e.g. http://host:8081")
	fs.Var(&spawnArgs, "spawn-arg", "extra scaltoold flag for -spawn children (repeatable)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if err := run(routerConfig{
		addr: *addr, replicas: replicas,
		spawn: *spawn, scaltoold: *scaltoold, spawnArgs: spawnArgs,
		probeEvery: *probeEvery, fwdTimeout: *fwdTimeout,
		grace: *grace, logLevel: *logLevel, logJSON: *logJSON,
	}, stdout, stderr); err != nil {
		fmt.Fprintln(stderr, "scalrouter:", err)
		return 1
	}
	return 0
}

type routerConfig struct {
	addr      string
	replicas  []string
	spawn     int
	scaltoold string
	spawnArgs []string

	probeEvery time.Duration
	fwdTimeout time.Duration

	grace    time.Duration
	logLevel string
	logJSON  bool
}

// syncWriter serializes the structured log, drain notices, and supervised
// children's stderr when they all share one non-file sink (tests pass a
// bytes.Buffer; a real file needs no help).
type syncWriter struct {
	mu sync.Mutex
	w  io.Writer
}

func (sw *syncWriter) Write(p []byte) (int, error) {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	return sw.w.Write(p)
}

func run(cfg routerConfig, stdout, stderr io.Writer) error {
	if _, ok := stderr.(*os.File); !ok {
		stderr = &syncWriter{w: stderr}
	}
	if cfg.grace <= 0 {
		return fmt.Errorf("-shutdown-grace must be positive, got %s", cfg.grace)
	}
	if (len(cfg.replicas) == 0) == (cfg.spawn == 0) {
		return fmt.Errorf("name the fleet exactly one way: -replica URLs, or -spawn N")
	}
	level, err := obs.ParseLevel(cfg.logLevel)
	if err != nil {
		return err
	}
	o := &obs.Observer{
		Metrics: obs.NewMetrics(),
		Logger:  obs.NewLogger(stderr, level, cfg.logJSON),
	}

	var members []fleet.Replica
	slots := cfg.spawn
	if slots == 0 {
		for i, u := range cfg.replicas {
			members = append(members, fleet.Replica{Name: fleet.SlotName(i), URL: strings.TrimRight(u, "/")})
		}
	} else {
		for i := 0; i < slots; i++ {
			members = append(members, fleet.Replica{Name: fleet.SlotName(i)})
		}
	}
	rt := fleet.NewRouter(fleet.Options{
		Replicas:       members,
		ProbeInterval:  cfg.probeEvery,
		ForwardTimeout: cfg.fwdTimeout,
		Obs:            o,
	})

	// Bind before starting the prober or spawning a child, so a bad or taken
	// address fails startup with nothing to clean up — the same fail-fast
	// contract as scaltoold. A child spawned first would outlive the router.
	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		return fmt.Errorf("listen: %w", err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rt.StartProber(ctx)

	svDone := make(chan error, 1)
	if slots > 0 {
		sv := &fleet.Supervisor{
			Spawn: func(slot int) (fleet.Handle, error) {
				o.Logger.Info("spawning replica", "slot", slot, "path", cfg.scaltoold)
				readyCtx, cancel := context.WithTimeout(ctx, 10*time.Second)
				defer cancel()
				return fleet.StartExec(readyCtx, fleet.ExecConfig{
					Path:   cfg.scaltoold,
					Args:   append([]string{"-addr", "127.0.0.1:0"}, cfg.spawnArgs...),
					Stderr: stderr,
				})
			},
			Notify: func(slot int, url string) {
				o.Logger.Info("replica slot rebound", "slot", slot, "url", url)
				rt.SetReplicaURL(fleet.SlotName(slot), url)
			},
			Obs: o,
		}
		go func() { svDone <- sv.Run(ctx, slots) }()
	} else {
		svDone <- nil
	}

	// Own SIGTERM before announcing readiness: a signal sent on the
	// "listening" line must drain the server, not kill the process.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigs)
	fmt.Fprintf(stdout, "scalrouter: listening on %s\n", ln.Addr())
	if testOnReady != nil {
		testOnReady(ln.Addr().String())
	}

	httpSrv := &http.Server{
		Handler:           rt.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
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
		cancel()
		<-svDone
		return err
	case sig := <-sigs:
		fmt.Fprintf(stderr, "scalrouter: %v: draining (grace %s)\n", sig, cfg.grace)
	}

	// Drain order mirrors scaltoold: stop routing (healthz 503, new work
	// 429), let in-flight forwards finish, close the front listener, THEN
	// stop the children — a child killed first would fail the forwards the
	// drain is protecting.
	dctx, dcancel := context.WithTimeout(context.Background(), cfg.grace)
	defer dcancel()
	if err := rt.Drain(dctx); err != nil {
		fmt.Fprintln(stderr, "scalrouter: drain incomplete; closing anyway:", err)
		_ = httpSrv.Close()
		<-errCh
		cancel()
		<-svDone
		return err
	}
	if err := httpSrv.Shutdown(dctx); err != nil {
		_ = httpSrv.Close()
		<-errCh
		cancel()
		<-svDone
		return fmt.Errorf("shutdown: %w", err)
	}
	<-errCh
	cancel()
	if err := <-svDone; err != nil {
		return err
	}
	fmt.Fprintln(stdout, "scalrouter: drained and stopped")
	return nil
}
