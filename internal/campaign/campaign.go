// Package campaign plans and executes Scal-Tool's measurement runs.
//
// The plan is Table 3 of the paper: run the application at the base
// data-set size s0 once for each processor count 1, 2, 4, …, 2^(n−1), and
// on a uniprocessor once at each fractional size s0/2, s0/4, …, s0/2^(n−1).
// Every run reads the hardware event counters and produces a single output
// file — 2n−1 runs, 2^n+n−2 processors, 2n−1 files in total (Table 1's
// Scal-Tool row). The uniprocessor runs double as the Figure 3a hit-rate
// scan and (those that overflow the L2) as the t2/tm estimation points.
//
// The §2.4.2 estimation kernels (barrier loop, idle spin) are run once per
// machine/processor-count and are shared by every application's analysis;
// the paper's resource accounting does not charge them to the application.
package campaign

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strconv"
	"sync"
	"time"

	"scaltool/internal/apps"
	"scaltool/internal/assert"
	"scaltool/internal/counters"
	"scaltool/internal/faultinject"
	"scaltool/internal/health"
	"scaltool/internal/machine"
	"scaltool/internal/model"
	"scaltool/internal/obs"
	"scaltool/internal/perftools"
	"scaltool/internal/recipe"
	"scaltool/internal/runcache"
	"scaltool/internal/sim"
)

// Plan is the run matrix of Table 3.
type Plan struct {
	App        string
	S0         uint64   // base data-set size
	ProcCounts []int    // 1, 2, 4, …, 2^(n−1)
	UniSizes   []uint64 // descending fractional sizes s0/2 … s0/2^(n−1) (s0 itself is the ProcCounts[0] run)
}

// NewPlan builds the Table 3 plan for an application. maxProcs must be a
// power of two ≥ 1; s0 == 0 selects the application's default size. A plan
// whose uniprocessor runs reach fewer than three distinct achieved sizes
// cannot be fitted, and is refused.
func NewPlan(app apps.App, cfg machine.Config, maxProcs int, s0 uint64) (Plan, error) {
	if maxProcs < 1 || maxProcs&(maxProcs-1) != 0 {
		return Plan{}, fmt.Errorf("campaign: maxProcs must be a power of two ≥ 1, got %d", maxProcs)
	}
	if s0 == 0 {
		s0 = app.DefaultBytes(cfg)
	}
	p := Plan{App: app.Name(), S0: s0}
	for n := 1; n <= maxProcs; n *= 2 {
		p.ProcCounts = append(p.ProcCounts, n)
	}
	for s := s0 / 2; len(p.UniSizes) < len(p.ProcCounts)-1; s /= 2 {
		p.UniSizes = append(p.UniSizes, s)
	}
	// The t2/tm least squares needs several sizes that overflow the L2
	// ("we use only data set sizes that overflow the L2 cache", §2.3).
	// When s0 is close to the L2 capacity the Table 3 fractions don't
	// provide them, so the plan adds a few sizes above s0 — the paper's
	// "about 3-4 data set sizes" for the t2/tm triplets. What counts is the
	// size a run achieves, not the one it requests: a grid application
	// quantizes a size just over the threshold to one below it.
	overflow := 0
	threshold := model.OverflowThreshold(cfg.L2.SizeBytes)
	var distinct []uint64 // distinct non-zero achieved sizes of s0 and UniSizes
	add := func(s uint64) {
		a := achievedBytes(app, cfg, s)
		if a >= threshold {
			overflow++
		}
		if a != 0 && !slices.Contains(distinct, a) {
			distinct = append(distinct, a)
		}
	}
	for _, s := range append([]uint64{s0}, p.UniSizes...) {
		add(s)
	}
	for f := 1.5; overflow < 2 && f <= 16; f *= 1.5 {
		s := uint64(f * float64(s0))
		if s <= s0 {
			continue
		}
		p.UniSizes = append(p.UniSizes, s)
		add(s)
	}
	// The fit needs three uniprocessor runs of distinct achieved size (the
	// t2/tm least squares and the hit-rate curve). A plan that cannot reach
	// them would simulate every run and then fail to fit: refuse it before
	// anything runs.
	if len(distinct) < 3 {
		return Plan{}, fmt.Errorf("campaign: plan reaches only %d distinct uniprocessor sizes at %d processors, the fit needs 3 (app grid too coarse for the plan)", len(distinct), maxProcs)
	}
	return p, nil
}

// Sizer is implemented by applications that know, without building, the
// data-set size Build achieves for a requested size: the same grid
// arithmetic Build quantizes with. AchievedBytes returns 0 for a size Build
// would refuse as too small.
type Sizer interface {
	AchievedBytes(cfg machine.Config, dataBytes uint64) uint64
}

// achievedBytes is the size a run of app requested at size achieves, in
// closed form (Sizer) — never by building, since plans are made before
// admission gates builds. Applications without a closed form count the
// requested size.
func achievedBytes(app apps.App, cfg machine.Config, size uint64) uint64 {
	if sz, ok := app.(Sizer); ok {
		return sz.AchievedBytes(cfg, size)
	}
	return size
}

// N returns the number of processor-count points (the paper's n).
func (p Plan) N() int { return len(p.ProcCounts) }

// Cost returns the Table 1 Scal-Tool row: 2n−1 runs, 2^n+n−2 processors,
// 2n−1 files.
func (p Plan) Cost() perftools.ResourceCost {
	c := perftools.ResourceCost{}
	for _, procs := range p.ProcCounts {
		c.Runs++
		c.Processors += procs
		c.Files++
	}
	for range p.UniSizes {
		c.Runs++
		c.Processors++
		c.Files++
	}
	return c
}

// JobKind is what one campaign run executes.
type JobKind uint8

// Job kinds, in plan order.
const (
	KindBase JobKind = iota // application at s0, one run per processor count
	KindUni                 // uniprocessor application at a fractional size
	KindSync                // barrier-loop estimation kernel
	KindSpin                // idle-spin estimation kernel
)

var kindNames = [...]string{KindBase: "base", KindUni: "uni", KindSync: "ksync", KindSpin: "kspin"}

// String is the kind's name in run IDs: "base", "uni", "ksync" or "kspin".
func (k JobKind) String() string { return kindNames[k] }

// Job is one run a campaign starts.
type Job struct {
	Kind  JobKind
	Procs int
	Size  uint64 // requested data-set size (0 for the kernels)
}

// Jobs lists the runs Execute starts for the plan, in dispatch order: a
// base run and a barrier-loop kernel per processor count, a uniprocessor
// run per fractional size, and one spin kernel. The spin kernel runs at the
// plan's largest processor count but on at least two processors, since a
// spinner needs a peer to wait for. Admission prices exactly this list.
func (p Plan) Jobs() []Job {
	jobs := make([]Job, 0, 2*len(p.ProcCounts)+len(p.UniSizes)+1)
	for _, n := range p.ProcCounts {
		jobs = append(jobs, Job{Kind: KindBase, Procs: n, Size: p.S0}, Job{Kind: KindSync, Procs: n})
	}
	for _, s := range p.UniSizes {
		jobs = append(jobs, Job{Kind: KindUni, Procs: 1, Size: s})
	}
	return append(jobs, Job{Kind: KindSpin, Procs: max(p.ProcCounts[len(p.ProcCounts)-1], 2)})
}

// Result bundles everything one campaign produced.
type Result struct {
	Plan    Plan
	Machine machine.Config

	// BaseRuns maps processor count → the s0 run.
	BaseRuns map[int]*sim.Result
	// UniRuns maps achieved data-set size → the uniprocessor run
	// (includes the s0 uniprocessor run).
	UniRuns map[uint64]*sim.Result
	// SyncKernels maps processor count → the barrier-loop kernel run.
	SyncKernels map[int]*sim.Result
	// SpinKernel is the idle-spin kernel run (at the largest count).
	SpinKernel *sim.Result

	// Skipped lists uniprocessor sizes the application could not be built
	// at (too small for its grid); the model interpolates across them.
	Skipped []uint64

	// Health records the plan's structural notes and every permanently
	// failed run. Never nil on a Result returned by Execute/Run.
	Health *health.Report

	// Resumed counts the runs Resume restored from the journal instead of
	// re-executing. Zero on a fresh campaign. Replayed runs carry their full
	// counter report but no simulator ground truth, so MeasuredMP (a
	// validation series, not a model input) is meaningless for them.
	Resumed int

	// dur is the open campaign journal on a durable Result (RecordFit,
	// CloseJournal); nil on a plain Execute/Run result.
	dur *durable
}

// Inputs assembles the model's input set from the campaign measurements.
func (r *Result) Inputs() (model.Inputs, error) {
	return r.inputs(func(res *sim.Result) (*counters.RunReport, error) { return &res.Report, nil })
}

// SegmentInputs assembles the model's inputs restricted to the regions
// whose names contain substr — per-segment analysis, the paper's "plots can
// be obtained for the overall application or for a segment of the
// application that is considered particularly important" (§2.1). The
// estimation kernels are shared with the whole-application analysis.
func (r *Result) SegmentInputs(substr string) (model.Inputs, error) {
	return r.inputs(func(res *sim.Result) (*counters.RunReport, error) { return res.SegmentReport(substr) })
}

// inputs assembles the model's inputs, taking each base and uniprocessor
// run's report through report; the kernels always count whole runs.
func (r *Result) inputs(report func(*sim.Result) (*counters.RunReport, error)) (model.Inputs, error) {
	in := model.Inputs{SyncKernel: map[int]model.Measurement{}}
	for _, res := range r.BaseRuns {
		rep, err := report(res)
		if err != nil {
			return in, err
		}
		in.Base = append(in.Base, model.FromReport(rep))
	}
	for _, res := range r.UniRuns {
		rep, err := report(res)
		if err != nil {
			return in, err
		}
		in.Uniproc = append(in.Uniproc, model.FromReport(rep))
	}
	for n, res := range r.SyncKernels {
		in.SyncKernel[n] = model.FromReport(&res.Report)
	}
	if r.SpinKernel == nil {
		return in, fmt.Errorf("campaign: missing spin kernel run")
	}
	spin, err := model.SpinnerCPI(&r.SpinKernel.Report)
	if err != nil {
		return in, err
	}
	in.SpinCPI = spin
	r.addExpectations(&in)
	return in, nil
}

// addExpectations tells the model what the plan intended to measure, so the
// fit can report how degraded the achieved input set is. Sizes the
// application's grid could not realize (Skipped) are not expectations.
func (r *Result) addExpectations(in *model.Inputs) {
	in.ExpectedProcs = append([]int(nil), r.Plan.ProcCounts...)
	skipped := make(map[uint64]bool, len(r.Skipped))
	for _, s := range r.Skipped {
		skipped[s] = true
	}
	for _, s := range append([]uint64{r.Plan.S0}, r.Plan.UniSizes...) {
		if !skipped[s] {
			in.ExpectedUniSizes = append(in.ExpectedUniSizes, s)
		}
	}
	if r.Health != nil {
		in.DroppedRuns = r.Health.DroppedRuns()
	}
}

// Fit runs the model on the campaign's measurements.
func (r *Result) Fit(opts model.Options) (*model.Model, error) {
	return r.FitContext(context.Background(), opts)
}

// FitContext is Fit under a context, so an observer installed there
// (internal/obs) sees the fit's span, metrics, and degradation log lines.
func (r *Result) FitContext(ctx context.Context, opts model.Options) (*model.Model, error) {
	in, err := r.Inputs()
	if err != nil {
		return nil, err
	}
	return model.FitContext(ctx, in, opts)
}

// MeasuredMP returns the speedshop-measured MP cycles per processor count —
// the validation series of Figures 7/10/13. (On real hardware this costs
// the extra speedshop runs of Table 1; the simulator gives it away, which
// is exactly why the validation is possible here.)
func (r *Result) MeasuredMP() map[int]float64 {
	out := make(map[int]float64, len(r.BaseRuns))
	for n, res := range r.BaseRuns {
		prof := perftools.Speedshop(res)
		out[n] = prof.MPCycles()
	}
	return out
}

// Runner executes campaigns.
type Runner struct {
	Cfg machine.Config
	// Workers bounds the concurrent runs that build, load a spill file or
	// simulate (0 = GOMAXPROCS). A run whose result the run cache holds in
	// memory, or whose recipe replays a build error, needs none of these: it
	// runs on the dispatching goroutine, outside the pool.
	Workers int

	// Inject, when non-nil, injects its spec's journal faults (crashappend,
	// tornappend, fsyncfail) — the kill-resume chaos hook. Its report
	// faults apply only where report files are written (SaveReports).
	// Production campaigns leave it nil.
	Inject *faultinject.Injector
	// Cache, when non-nil, serves repeated runs from the content-addressed
	// run cache (internal/runcache) instead of re-simulating: the simulator
	// is deterministic, so a (machine, program) pair seen before — by this
	// campaign, an earlier campaign, or a concurrent one sharing the cache —
	// skips straight to its recorded Result.
	Cache *runcache.Cache
}

// job is one run of an executing campaign with its RunID.
type job struct {
	Job
	id string
}

// RunID is the campaign-wide identity of one run, e.g. "base_p04_s1048576":
// kind ("base", "uni", "ksync", "kspin"), processor count, and requested
// data-set size (0 for the estimation kernels). Fault specs, the health
// report, and the report file names (with a ".json" suffix, using the
// achieved size) all refer to runs this way.
func RunID(kind string, procs int, size uint64) string {
	var buf [48]byte
	b := append(buf[:0], kind...)
	b = append(b, "_p"...)
	if procs >= 0 && procs < 10 {
		b = append(b, '0') // %02d
	}
	b = strconv.AppendInt(b, int64(procs), 10)
	b = append(b, "_s"...)
	b = strconv.AppendUint(b, size, 10)
	return string(b)
}

// Run executes the plan with no cancellation: Execute under a background
// context. Deadline and injection policy still apply if set.
func (rn *Runner) Run(app apps.App, plan Plan) (*Result, error) {
	return rn.Execute(context.Background(), app, plan)
}

// Execute runs the plan for an application on a worker pool; a run the
// run cache answers from memory runs inline on the calling goroutine
// instead (Runner.Workers). Results are deterministic regardless of worker
// count, including under fault injection.
//
// An observer carried in ctx (internal/obs) sees the campaign: a "campaign"
// span with one detached "run" span per job, counters for runs
// started/failed plus per-severity health findings, a run-latency
// histogram, and structured log lines for every health finding and
// permanent failure.
//
// Execute is the fault-tolerant path: each run executes once, bounded only
// by ctx, and every report must pass health.Sanitize untouched (a
// report that needs sanitizing is a simulator bug and aborts the campaign
// with a *PanicError). A run that fails is dropped and recorded in
// Result.Health rather than killing the campaign — unless the model cannot
// fit without it (the uniprocessor base run, the spin kernel), in which
// case the remaining workers are canceled promptly and Execute returns the
// critical failure.
//
// The campaign stops one way: its context. A critical failure, a journal
// append failure or a panic cancels it with that error as the cause; so
// does ctx's own cancel or deadline. The first cause decides what Execute
// returns: a critical error as-is, ctx's stop as "campaign: canceled"
// wrapping context.Canceled or context.DeadlineExceeded. A run that fails
// while the context is done was stopped, not failed: it is not journaled,
// counted, logged as a failure or escalated, so Resume re-runs it.
func (rn *Runner) Execute(ctx context.Context, app apps.App, plan Plan) (*Result, error) {
	return rn.execute(ctx, app, plan, nil)
}

// execute is the shared body of Execute, ExecuteDurable, and Resume. With a
// non-nil durable it journals every campaign decision before applying it and
// replays the journal's terminal events instead of re-executing those runs.
// On error the journal is closed; on success it is handed to the Result.
func (rn *Runner) execute(ctx context.Context, app apps.App, plan Plan, d *durable) (_ *Result, err error) {
	defer d.closeOnError(&err)
	if err := rn.Cfg.Validate(); err != nil {
		return nil, err
	}
	if len(plan.ProcCounts) == 0 {
		return nil, fmt.Errorf("campaign: plan has no processor counts")
	}
	res := &Result{
		Plan:        plan,
		Machine:     rn.Cfg,
		BaseRuns:    map[int]*sim.Result{},
		UniRuns:     map[uint64]*sim.Result{},
		SyncKernels: map[int]*sim.Result{},
		Health:      health.NewReport(),
	}
	structural := health.CheckStructure(plan.ProcCounts, append([]uint64{plan.S0}, plan.UniSizes...))
	res.Health.Add(structural...)

	planned := plan.Jobs()
	jobs := make([]job, len(planned))
	for i, j := range planned {
		jobs[i] = job{Job: j, id: RunID(j.Kind.String(), j.Procs, j.Size)}
	}

	ctx, span := obs.StartSpan(ctx, "campaign",
		obs.A("app", plan.App), obs.A("s0", plan.S0),
		obs.A("max_procs", plan.ProcCounts[len(plan.ProcCounts)-1]),
		obs.A("jobs", len(jobs)))
	defer span.End()
	obs.Log(ctx).Info("campaign starting", "app", plan.App, "s0", plan.S0, "jobs", len(jobs))
	logFindings(ctx, structural)

	ctx, abort := context.WithCancelCause(ctx)
	defer abort(nil)
	ex := &executor{rn: rn, app: app, res: res, d: d, abort: abort}

	// Resume path: restore journaled terminal outcomes without re-executing
	// their runs. A replayed campaign-killing outcome aborts here, exactly as
	// the original campaign aborted.
	pending := jobs
	if d != nil && len(d.terminal) > 0 {
		pending = pending[:0]
		for _, j := range jobs {
			ev, ok := d.terminal[j.id]
			if !ok {
				pending = append(pending, j)
				continue
			}
			if err := ex.replay(ctx, j, ev); err != nil {
				obs.Log(ctx).Error("campaign aborted during journal replay", "app", plan.App, "err", err) //scalvet:ignore abort path, runs at most once per campaign
				return nil, err
			}
			res.Resumed++
		}
		span.SetAttr("resumed", res.Resumed)
		if mt := obs.Meter(ctx); mt != nil {
			mt.Counter("scaltool_journal_replayed_runs_total", "campaign runs restored from the journal on resume").Add(uint64(res.Resumed))
		}
		obs.Log(ctx).Info("campaign resumed from journal", "app", plan.App,
			"replayed", res.Resumed, "remaining", len(pending))
	}

	workers := rn.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	var wg sync.WaitGroup
	sem := make(chan struct{}, workers)
dispatch:
	for _, j := range pending {
		if ctx.Err() != nil {
			break
		}
		// A job that needs no build, spill load or simulation costs about a
		// microsecond, less than starting a goroutine for it: it runs here.
		pj := ex.prepare(ctx, j)
		if pj.inline() {
			ex.runIsolated(ctx, j, pj)
			continue
		}
		select {
		case <-ctx.Done():
			break dispatch
		case sem <- struct{}{}:
		}
		wg.Add(1)
		go func(j job, pj prepared) {
			defer wg.Done()
			defer func() { <-sem }()
			ex.runIsolated(ctx, j, pj)
		}(j, pj)
	}
	wg.Wait()
	res.Health.Finalize()

	if cause := context.Cause(ctx); cause != nil {
		if cause == ctx.Err() { // the caller's cancel or deadline
			return nil, fmt.Errorf("campaign: canceled: %w", cause)
		}
		obs.Log(ctx).Error("campaign aborted", "app", plan.App, "err", cause)
		return nil, cause
	}
	sort.Slice(res.Skipped, func(i, k int) bool { return res.Skipped[i] < res.Skipped[k] })
	if len(res.UniRuns) < 3 {
		return nil, fmt.Errorf("campaign: only %d usable uniprocessor runs (app grid too coarse for the plan)", len(res.UniRuns))
	}
	obs.Log(ctx).Info("campaign finished", "app", plan.App, "health", res.Health.Summary())
	res.dur = d
	return res, nil
}

// executor carries the shared state of one Execute call.
type executor struct {
	rn  *Runner
	app apps.App
	res *Result
	d   *durable // campaign journal; nil on a non-durable Execute
	// abort cancels the campaign context with a campaign-killing error as
	// its cause. The first cause stands.
	abort context.CancelCauseFunc

	mu sync.Mutex // guards res's maps and Skipped
}

// journal appends a campaign event to the WAL. On failure — an injected
// crash point or a real I/O error — it aborts the campaign (the event was
// not applied; resume re-derives it) and reports false so the caller stops.
// Trivially true on a non-durable campaign.
func (ex *executor) journal(ctx context.Context, ev event) bool {
	if ex.d == nil {
		return true
	}
	if err := ex.d.record(ctx, ev); err != nil {
		ex.abort(err)
		return false
	}
	return true
}

// runEvent pre-fills a run-scoped journal event.
func runEvent(typ string, j job) event {
	return event{Type: typ, Run: j.id, Kind: j.Kind.String(), Procs: j.Procs, Size: j.Size}
}

// criticalJob reports whether losing a run makes the campaign unfittable:
// the uniprocessor base run anchors CPI0 and the spin kernel anchors
// cpi_imb; every other run's loss only degrades the fit.
func criticalJob(j job) bool {
	return (j.Kind == KindBase && j.Procs == 1) || j.Kind == KindSpin
}

// prepared is what dispatch learns about a job without building, loading
// or simulating anything: its recipe, the recipe table's entry when the
// table holds one, and the run cache's memory-tier result for its key when
// resident.
type prepared struct {
	rcp    recipe.Recipe
	e      recipe.Entry
	tabled bool
	out    *sim.Result
}

// inline reports whether the job can run on the dispatching goroutine: its
// recipe replays a build error (a skip), or its result is already taken
// from memory.
func (pj prepared) inline() bool { return pj.tabled && (pj.e.Err != nil || pj.out != nil) }

// prepare looks a job up in the recipe table and the run cache's memory
// tier. A memory hit is counted here, once, as GetOrRunKey would have
// counted it; a miss counts nothing. Without a cache every job goes to the
// pool.
func (ex *executor) prepare(ctx context.Context, j job) prepared {
	pj := prepared{rcp: ex.recipe(j)}
	if ex.rn.Cache == nil {
		return pj
	}
	if pj.e, pj.tabled = recipe.Default.Lookup(pj.rcp); pj.tabled && pj.e.Err == nil {
		pj.out, _ = ex.rn.Cache.Lookup(ctx, pj.e.Key)
	}
	return pj
}

// runIsolated is run under panic isolation, on a pool worker or inline: a
// panicking simulation (a hostile program shape hitting an internal
// assertion) must not kill the process — the serving daemon shares it with
// every other request. The panic becomes a typed critical error; the
// campaign aborts cleanly and the serving layer converts it to a 500 plus a
// quarantine entry.
func (ex *executor) runIsolated(ctx context.Context, j job, pj prepared) {
	defer ex.recoverRun(j)
	ex.run(ctx, j, pj)
}

// recoverRun is runIsolated's deferred recovery.
func (ex *executor) recoverRun(j job) {
	if r := recover(); r != nil {
		ex.abort(&PanicError{Run: j.id, Value: r, Stack: debug.Stack()})
	}
}

// run executes one job: resolve, look up or simulate, check, record. What
// dispatch already found (pj) is not looked up again. Each job runs on its
// own detached trace lane (workers interleave) with the run identity
// threaded into the context's logger.
//
// On a miss in both run-cache tiers the lookup's singleflight leader
// simulates the program: the one the recipe table built just now or the
// one this request's pricing built (recipe.Take), else a fresh build.
func (ex *executor) run(ctx context.Context, j job, pj prepared) {
	ctx, span := obs.StartSpan(obs.Detach(ctx), "run",
		obs.A("id", j.id), obs.A("kind", j.Kind.String()),
		obs.A("procs", j.Procs), obs.A("size", j.Size))
	defer span.End()
	ctx = obs.WithLogger(ctx, obs.Log(ctx).With("run", j.id))
	if mt := obs.Meter(ctx); mt != nil {
		mt.Counter("scaltool_campaign_runs_started_total", "campaign runs dispatched").Inc()
		defer func(start time.Time) {
			mt.Histogram("scaltool_campaign_run_seconds", "wall-clock latency of one campaign run",
				obs.LatencyBuckets).Observe(time.Since(start).Seconds())
		}(time.Now())
	}
	key, prog, err := pj.e.Key, (*sim.Program)(nil), pj.e.Err
	if !pj.tabled {
		key, prog, err = ex.program(ctx, pj.rcp)
	}
	if err != nil {
		// A size too small for the app's grid is an expected skip for
		// uniprocessor fractions; the model interpolates across it.
		if j.Kind == KindUni {
			span.SetAttr("skipped", true)
			obs.Log(ctx).Debug("size below the app's grid; skipped", "size", j.Size)
			ev := runEvent(evSkip, j)
			ev.Reason = err.Error()
			if !ex.journal(ctx, ev) {
				return
			}
			ex.mu.Lock()
			ex.res.Skipped = append(ex.res.Skipped, j.Size)
			ex.mu.Unlock()
			return
		}
		ex.fail(ctx, span, j, fmt.Errorf("campaign: building %s: %w", j.id, err))
		return
	}
	out, hit := pj.out, pj.out != nil
	if !hit {
		out, hit, err = ex.rn.Cache.GetOrRunKey(ctx, key, func(rctx context.Context) (*sim.Result, error) {
			if prog == nil {
				prog = recipe.Take(ctx, pj.rcp)
			}
			if prog == nil {
				var err error
				if prog, err = pj.rcp.Build(rctx, recipe.CauseMiss); err != nil {
					return nil, fmt.Errorf("building: %w", err)
				}
			}
			return sim.RunContext(rctx, ex.rn.Cfg, prog)
		})
		if err != nil {
			ex.fail(ctx, span, j, fmt.Errorf("campaign: %s: %w", j.id, err))
			return
		}
	}
	span.SetAttr("cache_hit", hit)
	ex.accept(ctx, j, out)
}

// recipe is the build recipe of one job.
func (ex *executor) recipe(j job) recipe.Recipe {
	cfg := ex.rn.Cfg
	switch j.Kind {
	case KindSync:
		return recipe.ForSyncKernel(cfg, j.Procs, apps.SyncKernelBarriers)
	case KindSpin:
		return recipe.ForSpinKernel(cfg, j.Procs, apps.SpinKernelPhases, apps.SpinKernelWork)
	}
	return recipe.ForApp(ex.app, cfg, j.Procs, j.Size)
}

// program resolves a job's run-cache key from the recipe table, with the
// program only when the table built it just now: a warm job builds and
// hashes nothing. Without a cache there is no key to look up, and the
// program is always built.
func (ex *executor) program(ctx context.Context, rcp recipe.Recipe) (runcache.Key, *sim.Program, error) {
	if ex.rn.Cache == nil {
		prog, err := rcp.Build(ctx, recipe.CauseMiss)
		return runcache.Key{}, prog, err
	}
	e, prog := recipe.Default.Resolve(ctx, rcp)
	return e.Key, prog, e.Err
}

// accept checks and records a successful run. The simulator's reports are
// not untrusted input: one that health.Sanitize would repair or quarantine
// is a simulator bug, so it fails loudly (the worker's recover turns the
// panic into a *PanicError) rather than being patched. Sanitizing and
// quarantine belong where untrusted reports enter: the report-file loader.
func (ex *executor) accept(ctx context.Context, j job, out *sim.Result) {
	if _, findings := health.Sanitize(j.id, &out.Report, MinCPI(ex.rn.Cfg)); len(findings) > 0 {
		assert.Failf("campaign: run %s: simulator report fails sanitization: %s", j.id, findings[0])
	}
	// WAL discipline: the report reaches the journal before the Result. The
	// journaled report is byte-complete — replaying it on resume reproduces
	// the exact model inputs this run contributed.
	ev := runEvent(evDone, j)
	ev.Report = &out.Report
	if !ex.journal(ctx, ev) {
		return
	}
	if o := obs.FromContext(ctx); o != nil && o.Trace != nil && j.Kind == KindBase {
		// Export the run's simulated-time per-processor timeline alongside
		// the wall-clock spans (base runs only: they are the Figure 6/9/12
		// points an operator debugs with).
		sim.AppendTimeline(o.Trace, out, j.id)
	}
	ex.record(j, out)
}

// record stores an accepted (or replayed) run in the Result's maps.
func (ex *executor) record(j job, out *sim.Result) {
	ex.mu.Lock()
	defer ex.mu.Unlock()
	switch j.Kind {
	case KindBase:
		ex.res.BaseRuns[j.Procs] = out
		if j.Procs == 1 {
			ex.res.UniRuns[out.DataBytes] = out // the s0 uniproc run doubles as a curve point
		}
	case KindUni:
		ex.res.UniRuns[out.DataBytes] = out
	case KindSync:
		ex.res.SyncKernels[j.Procs] = out
	case KindSpin:
		ex.res.SpinKernel = out
	}
}

// fail marks the run's span with err, records a permanent failure and
// escalates if the run was critical.
func (ex *executor) fail(ctx context.Context, span *obs.Span, j job, err error) {
	span.SetAttr("error", err.Error())
	// A run that fails while the campaign context is done was stopped — by a
	// caller cancel, a deadline, or another run's abort — and never got to
	// finish. It leaves no trace: Resume re-runs it instead of replaying a
	// spurious failure, and the campaign error is the context's first cause.
	if ctx.Err() != nil {
		return
	}
	ev := runEvent(evFail, j)
	ev.Reason = err.Error()
	if !ex.journal(ctx, ev) {
		return
	}
	ex.res.Health.AddFailure(j.id, err)
	if mt := obs.Meter(ctx); mt != nil {
		mt.Counter("scaltool_campaign_runs_failed_total", "campaign runs dropped after a permanent failure").Inc()
	}
	obs.Log(ctx).Error("run failed permanently", "critical", criticalJob(j), "err", err)
	if criticalJob(j) {
		ex.abort(fmt.Errorf("campaign: critical run %s failed permanently: %w", j.id, err))
	}
}

// logFindings routes the sanitizer's verdicts to the structured log and the
// per-severity findings counter: repairs are warnings, quarantines errors,
// and structural notes debug chatter.
func logFindings(ctx context.Context, findings []health.Finding) {
	if len(findings) == 0 {
		return
	}
	mt := obs.Meter(ctx)
	for _, f := range findings {
		if mt != nil {
			mt.Counter("scaltool_campaign_findings_total", "health findings by severity",
				"severity", string(f.Severity)).Inc()
		}
		switch f.Severity {
		case health.Quarantine:
			obs.Log(ctx).Error("health finding", "check", f.Check, "detail", f.Detail) //scalvet:ignore health findings are rare, and logging them is the point
		case health.Repair:
			obs.Log(ctx).Warn("health finding", "check", f.Check, "detail", f.Detail) //scalvet:ignore health findings are rare, and logging them is the point
		default:
			obs.Log(ctx).Debug("health finding", "check", f.Check, "detail", f.Detail) //scalvet:ignore health findings are rare, and logging them is the point
		}
	}
}

// MinCPI is the floor health.Sanitize holds a machine's reports to: half
// the cheapest per-instruction cost the machine can sustain.
func MinCPI(cfg machine.Config) float64 {
	m := cfg.Cost.ComputeCPI
	if c := cfg.Cost.L1HitCPI; c > 0 && c < m {
		m = c
	}
	return m / 2
}

// PanicError is a panic recovered from a campaign worker, converted to an
// error so one hostile or buggy run aborts its campaign instead of the
// process. The serving layer matches it with errors.As to map the failure to
// a 500 and quarantine the request shape that triggered it.
type PanicError struct {
	Run   string // run identity of the panicking job
	Value any    // the recovered panic value
	Stack []byte // stack at recovery, for the log
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("campaign: run %s panicked: %v", e.Run, e.Value)
}

// PanicValue exposes the recovered value and stack without importing this
// package's type — callers (the serving layer's panic isolation) match on
// the method set.
func (e *PanicError) PanicValue() (any, []byte) { return e.Value, e.Stack }

// FitSegment fits the scalability model for one application segment.
func (r *Result) FitSegment(substr string, opts model.Options) (*model.Model, error) {
	in, err := r.SegmentInputs(substr)
	if err != nil {
		return nil, err
	}
	return model.Fit(in, opts)
}
