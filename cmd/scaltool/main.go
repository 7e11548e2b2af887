// Command scaltool is the reproduction's CLI — the workflow a programmer
// would use on a real machine:
//
//	scaltool apps                      list the available applications
//	scaltool plan    -app swim         show the Table 3 run matrix + cost
//	scaltool analyze -app swim         run the campaign, fit the model,
//	                                   print speedups, breakdown, validation
//	scaltool whatif  -app swim -l2x 2  §2.6 parameter studies (no re-run)
//
// Common flags: -procs (power of two, default 32), -machine scaled|origin,
// -s0 (base data-set bytes, 0 = the app default), -raw-tm (paper-faithful
// single-pass tm(n)), -csv (machine-readable tables).
//
// Robustness flags (see README's Robustness section): -fault-spec injects deterministic faults for chaos
// drills (journal faults into any campaign, report faults into the files
// measure writes), -health-json writes the machine-readable health report.
// -journal-dir makes the campaign crash-safe (every run outcome goes
// through a write-ahead journal before it counts) and -resume continues an
// interrupted campaign from that journal; -shutdown-grace bounds how long a
// SIGINT/SIGTERM graceful stop may take before the process force-exits.
//
// Observability flags (see README's Observability section): -trace-out
// writes a Chrome trace_event file (campaign/run/fit spans plus the
// base runs' simulated per-processor timelines) for chrome://tracing or
// Perfetto, -metrics-out writes a Prometheus text-format snapshot,
// -log-level/-log-json control the structured stderr log, and -pprof-addr
// serves net/http/pprof with /metrics on the side.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"scaltool/internal/apps"
	"scaltool/internal/campaign"
	"scaltool/internal/diagnose"
	"scaltool/internal/faultinject"
	"scaltool/internal/health"
	"scaltool/internal/machine"
	"scaltool/internal/model"
	"scaltool/internal/obs"
	"scaltool/internal/perftools"
	"scaltool/internal/runcache"
	"scaltool/internal/table"
	"scaltool/internal/whatif"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd, args := os.Args[1], os.Args[2:]
	var err error
	switch cmd {
	case "apps":
		err = cmdApps()
	case "plan":
		err = cmdPlan(args)
	case "analyze":
		err = cmdAnalyze(args)
	case "whatif":
		err = cmdWhatif(args)
	case "measure":
		err = cmdMeasure(args)
	case "fit":
		err = cmdFit(args)
	case "-h", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "scaltool: unknown command %q\n\n", cmd)
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "scaltool:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `usage: scaltool <command> [flags]

commands:
  apps      list the available applications
  plan      show the Table 3 measurement plan and its Table 1 cost
  analyze   run the measurement campaign and print the model's breakdown
  whatif    evaluate machine-parameter changes on a fitted model (§2.6)
  measure   run the campaign and write one counter-report file per run
  fit       fit the model from a directory of counter-report files

run 'scaltool <command> -h' for flags.
`)
}

// common flags shared by the run-based subcommands.
type common struct {
	fs         *flag.FlagSet
	app        *string
	procs      *int
	s0         *uint64
	mach       *string
	rawTm      *bool
	csv        *bool
	workers    *int
	faultSpec  *string
	healthJSON *string

	journalDir    *string
	resume        *bool
	shutdownGrace *time.Duration

	cacheMB  *int
	cacheDir *string

	traceOut   *string
	metricsOut *string
	logLevel   *string
	logJSON    *bool
	pprofAddr  *string
}

func commonFlags(name string) *common {
	fs := flag.NewFlagSet(name, flag.ExitOnError)
	return &common{
		fs:         fs,
		app:        fs.String("app", "swim", "application (see 'scaltool apps')"),
		procs:      fs.Int("procs", 32, "largest processor count (power of two)"),
		s0:         fs.Uint64("s0", 0, "base data-set bytes (0 = application default)"),
		mach:       fs.String("machine", "scaled", "machine: scaled | origin"),
		rawTm:      fs.Bool("raw-tm", false, "paper-faithful single-pass tm(n) (no MP decontamination)"),
		csv:        fs.Bool("csv", false, "emit CSV instead of aligned tables"),
		workers:    fs.Int("workers", 0, "concurrent simulated runs (0 = GOMAXPROCS)"),
		faultSpec:  fs.String("fault-spec", "", "fault-injection spec for chaos drills: journal keys (crashappend, tornappend, fsyncfail) on any campaign; report keys (e.g. seed=42,noise=0.02,poisonrun=<run id>) on measure only"),
		healthJSON: fs.String("health-json", "", "write the machine-readable health report to this file"),

		journalDir:    fs.String("journal-dir", "", "write-ahead journal directory: makes the campaign crash-safe and resumable"),
		resume:        fs.Bool("resume", false, "resume the interrupted campaign recorded in -journal-dir"),
		shutdownGrace: fs.Duration("shutdown-grace", 10*time.Second, "grace period for a SIGINT/SIGTERM stop before the process force-exits"),

		cacheMB:    fs.Int("run-cache-mb", 0, "content-addressed run cache budget in MiB (0 = off): repeated (machine, program) runs skip re-simulation"),
		cacheDir:   fs.String("run-cache-dir", "", "spill evicted run-cache entries to this directory (needs -run-cache-mb)"),
		traceOut:   fs.String("trace-out", "", "write a Chrome trace_event JSON file (chrome://tracing, Perfetto)"),
		metricsOut: fs.String("metrics-out", "", "write a Prometheus text-format metrics snapshot to this file"),
		logLevel:   fs.String("log-level", "warn", "structured log level: debug | info | warn | error"),
		logJSON:    fs.Bool("log-json", false, "emit the structured log as JSON lines"),
		pprofAddr:  fs.String("pprof-addr", "", "serve net/http/pprof and /metrics on this address"),
	}
}

// observe builds the command's observer from the flags and installs it in a
// context. The returned flush writes the -trace-out and -metrics-out files;
// call it once the command's work is done.
func (c *common) observe() (context.Context, func() error, error) {
	level, err := obs.ParseLevel(*c.logLevel)
	if err != nil {
		return nil, nil, err
	}
	o := &obs.Observer{
		Metrics: obs.NewMetrics(),
		Logger:  obs.NewLogger(os.Stderr, level, *c.logJSON),
	}
	if *c.traceOut != "" {
		o.Trace = obs.NewTracer()
	}
	var pprofSrv *http.Server
	if *c.pprofAddr != "" {
		// Bind synchronously so a bad or taken address fails the command
		// here — before any simulation starts — instead of surfacing
		// asynchronously from a server goroutine after main has moved on.
		ln, err := net.Listen("tcp", *c.pprofAddr)
		if err != nil {
			return nil, nil, fmt.Errorf("pprof server: %w", err)
		}
		pprofSrv = &http.Server{Handler: pprofMux(o.Metrics)}
		go func() {
			if err := pprofSrv.Serve(ln); err != nil && err != http.ErrServerClosed {
				fmt.Fprintln(os.Stderr, "scaltool: pprof server:", err)
			}
		}()
	}
	flush := func() error {
		if pprofSrv != nil {
			// Drain the debug server with the command's work: a short
			// grace for in-flight scrapes, then close, so the listener
			// never outlives the campaign it observed.
			sctx, cancel := context.WithTimeout(context.Background(), time.Second)
			defer cancel()
			if err := pprofSrv.Shutdown(sctx); err != nil {
				_ = pprofSrv.Close()
			}
		}
		if *c.traceOut != "" {
			if err := o.Trace.WriteFileAtomic(*c.traceOut); err != nil {
				return fmt.Errorf("trace: %w", err)
			}
		}
		if *c.metricsOut != "" {
			f, err := os.Create(*c.metricsOut)
			if err != nil {
				return fmt.Errorf("metrics: %w", err)
			}
			if err := o.Metrics.WritePrometheus(f); err != nil {
				_ = f.Close()
				return fmt.Errorf("metrics: %w", err)
			}
			if err := f.Close(); err != nil {
				return fmt.Errorf("metrics: %w", err)
			}
		}
		return nil
	}
	return obs.NewContext(context.Background(), o), flush, nil
}

// pprofMux builds the debug server's handler on a dedicated mux — pprof
// and /metrics — so nothing registers on the process-global
// DefaultServeMux (which panics on re-registration if a command constructs
// two observers in one process, as tests do).
func pprofMux(mt *obs.Metrics) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := mt.WritePrometheus(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	return mux
}

// validate cross-checks flag combinations that individual flag parsing
// cannot: mistakes here must fail before any simulation starts, not after a
// multi-hour campaign.
func (c *common) validate() error {
	if *c.resume && *c.journalDir == "" {
		return fmt.Errorf("-resume needs -journal-dir (the journal to resume from)")
	}
	if *c.shutdownGrace <= 0 {
		return fmt.Errorf("-shutdown-grace must be positive, got %s", *c.shutdownGrace)
	}
	if *c.cacheDir != "" && *c.cacheMB <= 0 {
		return fmt.Errorf("-run-cache-dir needs -run-cache-mb (spill without a cache has nothing to spill)")
	}
	return nil
}

// withShutdown installs the graceful-stop handler: the first SIGINT/SIGTERM
// cancels the campaign context, which drains the worker pool and flushes the
// journal on the normal unwind path; if that takes longer than
// -shutdown-grace the process force-exits. The returned release func
// uninstalls the handler.
func (c *common) withShutdown(ctx context.Context) (context.Context, func()) {
	ctx, cancel := context.WithCancel(ctx)
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	done := make(chan struct{})
	grace := *c.shutdownGrace
	go func() {
		select {
		case sig := <-sigs:
			fmt.Fprintf(os.Stderr, "scaltool: %v: stopping campaign, flushing journal (grace %s)\n", sig, grace)
			cancel()
			t := time.NewTimer(grace)
			defer t.Stop()
			select {
			case <-t.C:
				fmt.Fprintln(os.Stderr, "scaltool: shutdown grace expired; exiting")
				os.Exit(1)
			case <-done:
			}
		case <-done:
		}
	}()
	return ctx, func() {
		signal.Stop(sigs)
		close(done)
		cancel()
	}
}

// execute runs the campaign the flags describe: plain, durable
// (-journal-dir), or resumed (-resume), under the graceful-shutdown handler.
// On a durable result the journal stays open for Result.RecordFit; callers
// must CloseJournal.
func (c *common) execute(ctx context.Context, rn *campaign.Runner, app apps.App, plan campaign.Plan) (*campaign.Result, error) {
	ctx, release := c.withShutdown(ctx)
	defer release()
	if *c.journalDir == "" {
		return rn.Execute(ctx, app, plan)
	}
	opts := campaign.DurableOptions{Dir: *c.journalDir}
	if *c.resume {
		// The journal carries the campaign's app and plan; the command-line
		// -app/-procs/-s0 are ignored in favor of what was interrupted.
		return rn.Resume(ctx, opts)
	}
	return rn.ExecuteDurable(ctx, app, plan, opts)
}

// runner builds the fault-tolerant campaign runner the flags describe. The
// runner honours -fault-spec's journal keys; its report keys perturb report
// files, which only measure writes, so any other command refuses them
// rather than silently running a clean campaign.
func (c *common) runner(cfg machine.Config) (*campaign.Runner, error) {
	rn := &campaign.Runner{Cfg: cfg, Workers: *c.workers}
	if *c.cacheMB > 0 {
		rn.Cache = runcache.New(runcache.Options{
			MaxBytes: int64(*c.cacheMB) << 20,
			SpillDir: *c.cacheDir,
		})
	}
	spec, err := faultinject.ParseSpec(*c.faultSpec)
	if err != nil {
		return nil, err
	}
	if keys := spec.ReportKeys(); len(keys) > 0 && c.fs.Name() != "measure" {
		return nil, fmt.Errorf("-fault-spec key %s perturbs report files, which only 'scaltool measure' writes; inject it there and fit the files with 'scaltool fit'",
			strings.Join(keys, ", "))
	}
	if spec.Active() {
		rn.Inject = faultinject.New(spec)
	}
	return rn, nil
}

// reportHealth prints the campaign health summary and, with -health-json,
// writes the full machine-readable report.
func (c *common) reportHealth(hr *health.Report) error {
	if hr == nil {
		return nil
	}
	if !hr.Clean() {
		fmt.Println(hr.Summary())
	}
	if *c.healthJSON == "" {
		return nil
	}
	f, err := os.Create(*c.healthJSON)
	if err != nil {
		return fmt.Errorf("health report: %w", err)
	}
	if err := hr.WriteJSON(f); err != nil {
		_ = f.Close()
		return fmt.Errorf("health report: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("health report: %w", err)
	}
	return nil
}

func (c *common) machine() (machine.Config, error) {
	switch *c.mach {
	case "scaled":
		return machine.ScaledOrigin(), nil
	case "origin":
		return machine.Origin2000(), nil
	}
	return machine.Config{}, fmt.Errorf("unknown machine %q (want scaled or origin)", *c.mach)
}

func (c *common) emit(t *table.Table) error {
	if *c.csv {
		return t.WriteCSV(os.Stdout)
	}
	fmt.Println(t.String())
	return nil
}

func cmdApps() error {
	tb := table.New("Applications", "name", "parallel model", "description")
	for _, name := range apps.Names() {
		a, err := apps.ByName(name)
		if err != nil {
			return err
		}
		tb.Row(name, a.ParallelModel(), a.Description())
	}
	fmt.Println(tb.String())
	return nil
}

func planFor(c *common) (apps.App, campaign.Plan, machine.Config, error) {
	cfg, err := c.machine()
	if err != nil {
		return nil, campaign.Plan{}, cfg, err
	}
	app, err := apps.ByName(*c.app)
	if err != nil {
		return nil, campaign.Plan{}, cfg, err
	}
	plan, err := campaign.NewPlan(app, cfg, *c.procs, *c.s0)
	return app, plan, cfg, err
}

func cmdPlan(args []string) error {
	c := commonFlags("plan")
	if err := c.fs.Parse(args); err != nil {
		return err
	}
	_, plan, _, err := planFor(c)
	if err != nil {
		return err
	}
	tb := table.New(fmt.Sprintf("Table 3 plan — %s (s0 = %d bytes)", plan.App, plan.S0),
		"run", "#procs", "#data-set bytes")
	for _, n := range plan.ProcCounts {
		tb.Row("base", n, int(plan.S0))
	}
	for _, s := range plan.UniSizes {
		tb.Row("uniprocessor", 1, int(s))
	}
	if err := c.emit(tb); err != nil {
		return err
	}
	cost := plan.Cost()
	ex := perftools.ExistingToolsCost(plan.N())
	tb2 := table.New("Resource cost (Table 1)", "method", "#runs", "#processors", "#files")
	tb2.Row("Scal-Tool", cost.Runs, cost.Processors, cost.Files)
	tb2.Row("time+speedshop", ex.Runs, ex.Processors, ex.Files)
	return c.emit(tb2)
}

// fitFor runs the campaign and fit. post, if non-nil, runs after the fit
// under the same observed context (so its spans and metrics land in the
// -trace-out/-metrics-out files) — the -diagnose-json hook.
func fitFor(c *common, post func(context.Context, *campaign.Result) error) (*campaign.Result, *model.Model, error) {
	if err := c.validate(); err != nil {
		return nil, nil, err
	}
	app, plan, cfg, err := planFor(c)
	if err != nil {
		return nil, nil, err
	}
	rn, err := c.runner(cfg)
	if err != nil {
		return nil, nil, err
	}
	ctx, flush, err := c.observe()
	if err != nil {
		return nil, nil, err
	}
	res, err := c.execute(ctx, rn, app, plan)
	if err != nil {
		return nil, nil, err
	}
	defer res.CloseJournal()
	opts := model.DefaultOptions(cfg.L2.SizeBytes)
	opts.RawTmN = *c.rawTm
	m, err := res.FitContext(ctx, opts)
	if err != nil {
		return nil, nil, err
	}
	if err := res.RecordFit(ctx, m); err != nil {
		return nil, nil, err
	}
	if err := res.CloseJournal(); err != nil {
		return nil, nil, fmt.Errorf("closing campaign journal: %w", err)
	}
	if post != nil {
		if err := post(ctx, res); err != nil {
			return nil, nil, err
		}
	}
	if err := flush(); err != nil {
		return nil, nil, err
	}
	return res, m, c.reportHealth(res.Health)
}

// writeDiagnosis runs the region-graph root-cause analysis on a finished
// campaign (internal/diagnose) and writes the self-verified ranked culprit
// report as JSON.
func writeDiagnosis(ctx context.Context, res *campaign.Result, path string) error {
	app, err := apps.ByName(res.Plan.App)
	if err != nil {
		return fmt.Errorf("diagnose: %w", err)
	}
	rep, err := diagnose.Campaign(ctx, app, res)
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("diagnose: %w", err)
	}
	if err := json.NewEncoder(f).Encode(rep); err != nil {
		_ = f.Close()
		return fmt.Errorf("diagnose: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("diagnose: %w", err)
	}
	if len(rep.Culprits) > 0 {
		top := rep.Culprits[0]
		fmt.Printf("diagnosis: scaling loss %.4g cycles at %d procs; top culprit %q (%s, %.4g cycles recoverable) → %s\n",
			rep.ScalingLoss, rep.Procs[len(rep.Procs)-1], top.Region, top.Verdict, top.Recoverable, path)
	}
	return nil
}

func cmdAnalyze(args []string) error {
	c := commonFlags("analyze")
	diagOut := c.fs.String("diagnose-json", "",
		"write the region-graph scaling-loss diagnosis (ranked culprit report) to this file")
	if err := c.fs.Parse(args); err != nil {
		return err
	}
	var post func(context.Context, *campaign.Result) error
	if *diagOut != "" {
		post = func(ctx context.Context, res *campaign.Result) error {
			return writeDiagnosis(ctx, res, *diagOut)
		}
	}
	res, m, err := fitFor(c, post)
	if err != nil {
		return err
	}
	if m.Degradation.Degraded {
		fmt.Println(m.Degradation.Summary())
	}
	fmt.Printf("model: cpi0=%.3f (initial %.3f)  t2=%.1f  tm(1)=%.1f  compulsory=%.4f  cpi_imb=%.2f\n",
		m.CPI0, m.CPI0Initial, m.T2, m.Tm1, m.Compulsory, m.CpiImb)
	fmt.Printf("fit quality: RMSE=%.4f  R2=%.4f over %d L2-overflowing sizes\n\n", m.FitRMSE, m.FitR2, m.FitSizes)

	sp := table.New("Speedup", "#procs", "#wall cycles", "#speedup")
	for _, s := range m.Speedups() {
		sp.Row(s.Procs, s.Wall, s.Speedup)
	}
	if err := c.emit(sp); err != nil {
		return err
	}

	tb := table.New("Scalability bottlenecks (cycles accumulated over processors)",
		"#procs", "#Base", "#L2Lim", "#Sync", "#Imb", "#MP", "#L2Lim%", "#Sync%", "#Imb%")
	for _, bp := range m.Breakdown() {
		base := bp.Base
		tb.Row(bp.Procs, bp.Base, bp.L2Lim(), bp.Sync, bp.Imb, bp.MP(),
			100*bp.L2Lim()/base, 100*bp.Sync/base, 100*bp.Imb/base)
	}
	if err := c.emit(tb); err != nil {
		return err
	}

	meas := res.MeasuredMP()
	tv := table.New("Validation vs speedshop analogue", "#procs", "#model MP", "#measured MP", "#diff % of Base")
	for _, bp := range m.Breakdown() {
		tv.Row(bp.Procs, bp.MP(), meas[bp.Procs], 100*(bp.MP()-meas[bp.Procs])/bp.Base)
	}
	return c.emit(tv)
}

// cmdMeasure runs the campaign and writes the per-run report files — the
// measurement half of the paper's workflow (Table 1's "files" column).
func cmdMeasure(args []string) error {
	c := commonFlags("measure")
	out := c.fs.String("out", "scaltool-reports", "output directory for the report files")
	if err := c.fs.Parse(args); err != nil {
		return err
	}
	if err := c.validate(); err != nil {
		return err
	}
	app, plan, cfg, err := planFor(c)
	if err != nil {
		return err
	}
	rn, err := c.runner(cfg)
	if err != nil {
		return err
	}
	ctx, flush, err := c.observe()
	if err != nil {
		return err
	}
	res, err := c.execute(ctx, rn, app, plan)
	if err != nil {
		return err
	}
	if err := res.CloseJournal(); err != nil {
		return fmt.Errorf("closing campaign journal: %w", err)
	}
	nFiles, err := res.SaveReports(*out, rn.Inject)
	if err != nil {
		return err
	}
	fmt.Printf("%d report files written to %s (plan: %d runs; kernels shared per machine)\n",
		nFiles, *out, plan.Cost().Runs)
	if err := flush(); err != nil {
		return err
	}
	return c.reportHealth(res.Health)
}

// cmdFit fits the model from report files alone — the analysis half, which
// needs no simulator and no application.
func cmdFit(args []string) error {
	c := commonFlags("fit")
	dir := c.fs.String("dir", "scaltool-reports", "directory of counter-report files")
	if err := c.fs.Parse(args); err != nil {
		return err
	}
	if *c.faultSpec != "" {
		return fmt.Errorf("-fault-spec: fit injects nothing; write faulted report files with 'scaltool measure -fault-spec'")
	}
	cfg, err := c.machine()
	if err != nil {
		return err
	}
	opts := model.DefaultOptions(cfg.L2.SizeBytes)
	opts.RawTmN = *c.rawTm
	ctx, flush, err := c.observe()
	if err != nil {
		return err
	}
	m, hr, err := campaign.FitDirTolerantContext(ctx, *dir, opts)
	if err != nil {
		return err
	}
	if err := flush(); err != nil {
		return err
	}
	if err := c.reportHealth(hr); err != nil {
		return err
	}
	if m.Degradation.Degraded {
		fmt.Println(m.Degradation.Summary())
	}
	fmt.Printf("model: cpi0=%.3f  t2=%.1f  tm(1)=%.1f  compulsory=%.4f\n\n", m.CPI0, m.T2, m.Tm1, m.Compulsory)
	tb := table.New("Scalability bottlenecks (cycles accumulated over processors)",
		"#procs", "#Base", "#L2Lim", "#Sync", "#Imb")
	for _, bp := range m.Breakdown() {
		tb.Row(bp.Procs, bp.Base, bp.L2Lim(), bp.Sync, bp.Imb)
	}
	return c.emit(tb)
}

func cmdWhatif(args []string) error {
	c := commonFlags("whatif")
	l2x := c.fs.Float64("l2x", 1, "L2 size factor k")
	tmx := c.fs.Float64("tmx", 1, "memory/interconnect latency scale")
	t2x := c.fs.Float64("t2x", 1, "L2 latency scale")
	tsx := c.fs.Float64("tsx", 1, "synchronization latency scale")
	cpix := c.fs.Float64("cpi0x", 1, "compute CPI scale (issue width)")
	if err := c.fs.Parse(args); err != nil {
		return err
	}
	_, m, err := fitFor(c, nil)
	if err != nil {
		return err
	}
	sc := whatif.Scenario{
		Name: "custom", L2SizeFactor: *l2x, TmScale: *tmx,
		T2Scale: *t2x, TSyncScale: *tsx, CPI0Scale: *cpix,
	}
	preds, err := whatif.Evaluate(m, sc)
	if err != nil {
		return err
	}
	tb := table.New(fmt.Sprintf("what-if: l2x=%g tmx=%g t2x=%g tsx=%g cpi0x=%g", *l2x, *tmx, *t2x, *tsx, *cpix),
		"#procs", "#baseline cycles", "#predicted cycles", "#speedup", "#new L2 miss rate")
	for _, p := range preds {
		tb.Row(p.Procs, p.BaselineCycles, p.NewCycles, p.SpeedupVsBaseline(), p.NewL2MissRate)
	}
	return c.emit(tb)
}
