package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"scaltool/internal/admission"
	"scaltool/internal/apps"
	"scaltool/internal/campaign"
	"scaltool/internal/counters"
	"scaltool/internal/diagnose"
	"scaltool/internal/machine"
	"scaltool/internal/model"
	"scaltool/internal/obs"
	"scaltool/internal/runcache"
	"scaltool/internal/serve"
	"scaltool/internal/sim"
)

// The traced run. For each request of the workload's sequence, one client
// first sends it to a real scaltoold (or runs the real scaltool) whose
// campaign runs serially (-sim-workers 1 / -workers 1), and then repeats
// the same request in-process, layer by layer, through the public Go
// functions each layer exports, timing every call from outside:
//
//	campaign.plan_ms       campaign.NewPlan + Budget.CheckShape
//	admission.estimate_ms  Budget.EstimatePlan/EstimateDiagnose + CheckRequest
//	campaign (Execute)     Runner.Execute at Workers=1, split by a replay of
//	                       the same jobs on a twin cache into
//	  apps.build_ms          App.Build and the kernel builders
//	  runcache.key_ms        runcache.KeyFor
//	  runcache.lookup_ms     GetOrRun − its RunFunc − the key hash it repeats
//	  sim.run_ms             sim.RunContext
//	  campaign.overhead_ms   the rest of Execute
//	model.fit_ms           Result.FitContext
//	diagnose.ms            FromCampaign + Build + BuildGraph + Run + Verify
//	journal.ms             the durable campaign path minus the plain one
//	serve.encode_ms        encoding the response
//
// serve.unattributed_ms is the one-client latency minus the sum of the
// layers. The in-process caches see the same request sequence as the
// daemon's, so every layer runs against the same cache state. The encoded
// in-process answer must equal the daemon's byte for byte, which proves
// the replay ran the same pipeline.
//
// A layer that is not on a workload's request path is still timed, off
// the path, on the same requests: the diagnose overlay outside
// /v1/diagnose traffic, and the journal,
// which only the scaltool CLI's campaigns write. Those figures say what
// the layer would cost this workload; they are reported under the layer's
// name but left out of the residual.

// goldenPath is the simulator's committed golden digests, relative to the
// repository root the benchmark runs from.
const goldenPath = "testdata/sim_golden_sha256.json"

// layerSums accumulates per-request layer times in milliseconds.
type layerSums struct {
	N int

	OneClient, Plan, Estimate, Exec, Fit, Encode, Diagnose, Journal float64
	Build, Key, Lookup, Sim                                         float64
	Par                                                             float64 // Execute wall at ParWorkers
	ParWorkers                                                      int

	Sims         int
	MemOps       float64
	JournalBytes float64

	CacheLookups, CacheHits, CacheDiskHits, Evictions float64
}

// serial is the campaign work done one job at a time.
func (s *layerSums) serial() float64 { return s.Build + s.Key + s.Lookup + s.Sim }

// overhead is Execute's time outside the jobs it runs.
func (s *layerSums) overhead() float64 { return s.Exec - s.serial() }

// attributed is the sum of the layers a request passes through; Execute
// stands for build + key + lookup + sim + overhead. No request journals.
func (s *layerSums) attributed() float64 {
	return s.Plan + s.Estimate + s.Exec + s.Fit + s.Encode + s.Diagnose
}

// unattributed is the one-client latency the layers do not cover.
func (s *layerSums) unattributed() float64 { return s.OneClient - s.attributed() }

// unattributedBound is the largest mean residual, either way, a traced run
// may report: 3 ms plus a quarter of the one-client latency. The residual
// holds HTTP transport and request decoding, and the drift between the host windows the binary
// and the replay ran in. A larger residual means a layer is missing.
func unattributedBound(oneClientMS float64) float64 { return 3 + 0.25*oneClientMS }

// ratio is a/b, or 0 when b is 0 (the layer did not run).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// metrics are the per-layer figures, times as per-request means, adding
// the off-path timings in off to the layers they belong to.
func (s *layerSums) metrics(off *layerSums) map[string]metric {
	n := float64(s.N)
	ms := func(v float64) metric { return metric{v / n, "ms"} }
	return map[string]metric{
		"campaign.plan_ms":           ms(s.Plan),
		"admission.estimate_ms":      ms(s.Estimate),
		"apps.build_ms":              ms(s.Build),
		"runcache.key_ms":            ms(s.Key),
		"runcache.lookup_ms":         ms(s.Lookup),
		"runcache.hit_ratio":         {ratio(s.CacheHits, s.CacheLookups), "ratio"},
		"runcache.disk_hit_ratio":    {ratio(s.CacheDiskHits, s.CacheLookups), "ratio"},
		"runcache.evictions_per_req": {s.Evictions / n, "count"},
		"sim.run_ms":                 ms(s.Sim),
		"sim.runs_per_req":           {float64(s.Sims) / n, "count"},
		"sim.mem_ops_per_s":          {ratio(s.MemOps, s.Sim/1000), "1/s"},
		"campaign.overhead_ms":       ms(s.overhead()),
		"campaign.parallel_eff":      {ratio(s.serial(), float64(s.ParWorkers)*s.Par), "ratio"},
		"model.fit_ms":               ms(s.Fit),
		"diagnose.ms":                ms(s.Diagnose + off.Diagnose),
		"journal.ms":                 ms(s.Journal + off.Journal),
		"journal.bytes":              {(s.JournalBytes + off.JournalBytes) / n, "bytes"},
		"serve.encode_ms":            ms(s.Encode),
		"serve.one_client_ms":        ms(s.OneClient),
		"serve.unattributed_ms":      ms(s.unattributed()),
	}
}

// since is the time since t in milliseconds.
func since(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }

// pipeline is the in-process twin of one daemon configuration.
type pipeline struct {
	cfg    machine.Config
	budget admission.Budget
	// exec backs the timed Runner.Execute, replay the layer-by-layer replay
	// of its jobs, par the parallel Execute; all three see the same
	// request sequence.
	exec, replay, par *runcache.Cache
	parWorkers        int
	golden            map[string]string
	goldenChecks      int
	diagnosed         map[string]bool // the daemon's diagnose response cache
	replayFirst       bool
	// offDiagnose times the diagnose overlay off the request path.
	offDiagnose bool
	// journalCache keeps the journal layer's campaigns warm, and
	// journalCost its figure per document: the durable path's cost depends
	// only on the campaign, so each document is timed once.
	journalCache *runcache.Cache
	journalCost  map[string][2]float64 // ms, bytes
	// o is an observer like the binary's own (metrics plus a logger at its
	// default level) writing nowhere, so the in-process layers pay the same
	// instrumentation cost.
	o *obs.Observer
}

// newPipeline builds the in-process twin of workload w; spill directories
// go under tmp.
func newPipeline(w workload, tmp string) (*pipeline, error) {
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		return nil, fmt.Errorf("reading the simulator goldens: %w", err)
	}
	p := &pipeline{
		cfg:          machine.ScaledOrigin(),
		budget:       admission.Budget{MaxProcs: 64}, // scaltoold's -max-procs default
		parWorkers:   runtime.GOMAXPROCS(0),
		diagnosed:    map[string]bool{},
		offDiagnose:  !w.Spill, // only mixed-spill sends /v1/diagnose
		journalCache: runcache.New(runcache.Options{}),
		journalCost:  map[string][2]float64{},
	}
	// scaltoold logs at info by default.
	p.o = &obs.Observer{Metrics: obs.NewMetrics(), Logger: obs.NewLogger(io.Discard, slog.LevelInfo, false)}
	if err := json.Unmarshal(raw, &p.golden); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", goldenPath, err)
	}
	for i, c := range []**runcache.Cache{&p.exec, &p.replay, &p.par} {
		opts := runcache.Options{MaxBytes: int64(w.CacheMB) << 20}
		if w.Spill {
			opts.SpillDir = filepath.Join(tmp, fmt.Sprintf("twin-spill%d", i))
		}
		*c = runcache.New(opts)
	}
	return p, nil
}

// observe installs the pipeline's observer in ctx.
func (p *pipeline) observe(ctx context.Context) context.Context {
	return obs.NewContext(ctx, p.o)
}

// job is one run of a campaign, in the order Runner.Execute dispatches
// them.
type job struct {
	kind  string // base, ksync, uni, kspin
	procs int
	size  uint64
}

// planJobs lists a plan's runs as Runner.Execute orders them.
func planJobs(plan campaign.Plan) []job {
	var jobs []job
	for _, n := range plan.ProcCounts {
		jobs = append(jobs, job{"base", n, plan.S0}, job{"ksync", n, 0})
	}
	for _, s := range plan.UniSizes {
		jobs = append(jobs, job{"uni", 1, s})
	}
	return append(jobs, job{"kspin", max(plan.ProcCounts[len(plan.ProcCounts)-1], 2), 0})
}

// build builds a job's program as the campaign does.
func (j job) build(cfg machine.Config, app apps.App) (*sim.Program, error) {
	switch j.kind {
	case "ksync":
		return apps.BuildSyncKernel(cfg, j.procs, apps.SyncKernelBarriers)
	case "kspin":
		return apps.BuildSpinKernel(cfg, j.procs, 20, 50_000)
	}
	return app.Build(cfg, j.procs, j.size)
}

// replayJobs runs a plan's jobs one at a time through the replay cache,
// timing build, key, lookup and simulation separately. Every fresh
// simulation of a cell the goldens cover is checked against its digest.
func (p *pipeline) replayJobs(ctx context.Context, app apps.App, plan campaign.Plan, s *layerSums) error {
	for _, j := range planJobs(plan) {
		t := time.Now()
		prog, err := j.build(p.cfg, app)
		s.Build += since(t)
		if err != nil {
			if j.kind == "uni" {
				continue // the campaign skips sizes below the app's grid too
			}
			return fmt.Errorf("building %s p%d: %w", j.kind, j.procs, err)
		}
		t = time.Now()
		_ = runcache.KeyFor(p.cfg, prog)
		keyMS, simMS := since(t), 0.0
		var fresh *sim.Result
		t = time.Now()
		_, _, err = p.replay.GetOrRun(ctx, p.cfg, prog, func(rctx context.Context) (*sim.Result, error) {
			t := time.Now()
			res, err := sim.RunContext(rctx, p.cfg, prog)
			simMS, fresh = since(t), res
			return res, err
		})
		total := since(t)
		if err != nil {
			return err
		}
		s.Key += keyMS
		s.Sim += simMS
		s.Lookup += total - simMS - keyMS
		if fresh != nil {
			s.Sims++
			counts := fresh.Report.Total()
			s.MemOps += counters.ToFloat(counts.MemOps())
			if err := p.checkGolden(app, plan, j, fresh); err != nil {
				return err
			}
		}
	}
	return nil
}

// checkGolden compares a fresh base run at the app's default size with the
// committed digest of that cell, when there is one.
func (p *pipeline) checkGolden(app apps.App, plan campaign.Plan, j job, res *sim.Result) error {
	if j.kind != "base" || plan.S0 != app.DefaultBytes(p.cfg) {
		return nil
	}
	want, ok := p.golden[fmt.Sprintf("%s/p%d", app.Name(), j.procs)]
	if !ok {
		return nil
	}
	h := sha256.New()
	if err := sim.EncodeResult(h, res); err != nil {
		return err
	}
	p.goldenChecks++
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		return fmt.Errorf("simulation %s/p%d digest %s differs from %s (%s)", app.Name(), j.procs, got, want, goldenPath)
	}
	return nil
}

// campaignLayers runs the timed Execute, the layer replay and the parallel
// Execute for one plan. The timed Execute and the replay alternate which
// goes first, so neither always runs on CPU caches the other warmed.
func (p *pipeline) campaignLayers(ctx context.Context, app apps.App, plan campaign.Plan, s *layerSums) (*campaign.Result, error) {
	p.replayFirst = !p.replayFirst
	if p.replayFirst {
		if err := p.replayJobs(ctx, app, plan, s); err != nil {
			return nil, err
		}
	}
	t := time.Now()
	res, err := (&campaign.Runner{Cfg: p.cfg, Workers: 1, Cache: p.exec}).Execute(ctx, app, plan)
	s.Exec += since(t)
	if err != nil {
		return nil, err
	}
	if !p.replayFirst {
		if err := p.replayJobs(ctx, app, plan, s); err != nil {
			return nil, err
		}
	}
	t = time.Now()
	_, err = (&campaign.Runner{Cfg: p.cfg, Workers: p.parWorkers, Cache: p.par}).Execute(ctx, app, plan)
	s.Par += since(t)
	return res, err
}

// serveOne repeats one HTTP request in-process and returns the body it
// encodes.
func (p *pipeline) serveOne(ctx context.Context, r request, s, off *layerSums, tmp string) ([]byte, error) {
	ctx = p.observe(ctx)
	t := time.Now()
	app, err := apps.ByName(r.Doc.App)
	if err != nil {
		return nil, err
	}
	if rej := p.budget.CheckShape(r.Doc.Procs, r.Doc.S0); rej != nil {
		return nil, rej
	}
	plan, err := campaign.NewPlan(app, p.cfg, r.Doc.Procs, r.Doc.S0)
	if err != nil {
		return nil, err
	}
	if rej := p.budget.CheckShape(r.Doc.Procs, plan.S0); rej != nil {
		return nil, rej
	}
	s.Plan += since(t)

	t = time.Now()
	estimate := p.budget.EstimatePlan
	if r.Diagnose {
		estimate = p.budget.EstimateDiagnose
	}
	cost, rej := estimate(p.cfg, app, plan, 1)
	if rej == nil {
		rej = p.budget.CheckRequest(cost)
	}
	s.Estimate += since(t)
	if rej != nil {
		return nil, rej
	}
	if r.Diagnose && p.diagnosed[r.Doc.ID] {
		return nil, nil // served from the daemon's diagnose response cache
	}

	res, err := p.campaignLayers(ctx, app, plan, s)
	if err != nil {
		return nil, err
	}
	if err := p.offPath(ctx, r.Doc.ID, app, plan, res, off, tmp); err != nil {
		return nil, err
	}
	if r.Diagnose {
		t = time.Now()
		rep, err := diagnoseReport(ctx, p.cfg, app, plan, res)
		s.Diagnose += since(t)
		if err != nil {
			return nil, err
		}
		p.diagnosed[r.Doc.ID] = true
		t = time.Now()
		body, err := encodeJSON(rep)
		s.Encode += since(t)
		return body, err
	}
	t = time.Now()
	m, err := res.FitContext(ctx, model.DefaultOptions(p.cfg.L2.SizeBytes))
	s.Fit += since(t)
	if err != nil {
		return nil, err
	}
	t = time.Now()
	body, err := encodeJSON(analyzeResponse(r.Doc.App, plan, m))
	s.Encode += since(t)
	return body, err
}

// offPath times the layers a campaign's request path lacks: the journal,
// and the diagnose overlay outside /v1/diagnose traffic.
func (p *pipeline) offPath(ctx context.Context, id string, app apps.App, plan campaign.Plan, res *campaign.Result, off *layerSums, tmp string) error {
	if p.offDiagnose {
		t := time.Now()
		_, err := diagnoseReport(ctx, p.cfg, app, plan, res)
		off.Diagnose += since(t)
		if err != nil {
			return err
		}
	}
	c, ok := p.journalCost[id]
	if !ok {
		ms, size, err := p.journalLayer(ctx, app, plan, filepath.Join(tmp, "twin-journal"))
		if err != nil {
			return err
		}
		c = [2]float64{ms, size}
		p.journalCost[id] = c
	}
	off.Journal += c[0]
	off.JournalBytes += c[1]
	return nil
}

// diagnoseReport is the /v1/diagnose overlay on a finished campaign.
func diagnoseReport(ctx context.Context, cfg machine.Config, app apps.App, plan campaign.Plan, res *campaign.Result) (*diagnose.Report, error) {
	fam, err := diagnose.FromCampaign(res)
	if err != nil {
		return nil, err
	}
	prog, err := app.Build(cfg, plan.ProcCounts[len(plan.ProcCounts)-1], plan.S0)
	if err != nil {
		return nil, err
	}
	rep, err := diagnose.Run(ctx, diagnose.BuildGraph(prog), fam, diagnose.Options{})
	if err != nil {
		return nil, err
	}
	rep.App, rep.Machine = app.Name(), "scaled"
	return rep, rep.Verify()
}

// analyzeResponse is the /v1/analyze document for a fitted model.
func analyzeResponse(appName string, plan campaign.Plan, m *model.Model) *serve.Response {
	resp := &serve.Response{
		App: appName, Machine: "scaled", Procs: plan.ProcCounts[len(plan.ProcCounts)-1], S0: plan.S0,
		Model: serve.ModelParams{
			CPI0: m.CPI0, T2: m.T2, Tm1: m.Tm1, Compulsory: m.Compulsory, CpiImb: m.CpiImb,
			FitRMSE: m.FitRMSE, FitR2: m.FitR2, FitSizes: m.FitSizes,
		},
	}
	if m.Degradation.Degraded {
		resp.Degraded = m.Degradation.Summary()
	}
	for _, sp := range m.Speedups() {
		resp.Speedups = append(resp.Speedups, serve.SpeedupPoint{Procs: sp.Procs, Wall: sp.Wall, Speedup: sp.Speedup})
	}
	for _, bp := range m.Breakdown() {
		resp.Breakdown = append(resp.Breakdown, serve.BreakdownRow{
			Procs: bp.Procs, Base: bp.Base, L2Lim: bp.L2Lim(), Sync: bp.Sync, Imb: bp.Imb,
			MP: bp.MP(), Interpolated: bp.Interpolated,
		})
	}
	return resp
}

// encodeJSON encodes v as the daemon does (json.Encoder, trailing newline).
func encodeJSON(v any) ([]byte, error) {
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(v)
	return buf.Bytes(), err
}

// traced runs workload w's per-layer traced run.
func traced(ctx context.Context, e env, w workload, seq []request) (*outcome, error) {
	if e.clients > 1 {
		e.clients = 1 // one client, so layers add up to its latency
	}
	p, err := newPipeline(w, e.tmp)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	s := &layerSums{ParWorkers: p.parWorkers}
	var off layerSums
	if err := p.tracedHTTP(ctx, e, w, seq, s, &off); err != nil {
		return nil, err
	}
	o := &outcome{Info: e.info(), Metrics: s.metrics(&off)}
	o.Info.Samples, o.Info.WindowS = s.N, time.Since(start).Seconds()
	o.Info.GoldenChecks = p.goldenChecks
	o.Tally = tally{Attempted: s.N, Succeeded: s.N}
	bound := unattributedBound(s.OneClient / float64(s.N))
	o.Info.UnattributedBoundMS = bound
	if u := s.unattributed() / float64(s.N); u > bound || u < -bound {
		o.Errs = append(o.Errs, fmt.Errorf("serve.unattributed_ms %.3f is outside ±%.3f ms: the layers do not tile the latency", u, bound))
	}
	return o, nil
}

// sent is one request the daemon answered, waiting for its replay.
type sent struct {
	r    request
	ms   float64
	body []byte
}

// blockLen is how many requests the traced HTTP run sends back to back
// before replaying them in-process. Sending each request right before its
// replay would leave the daemon idle, and so colder, before every request;
// replaying the whole run at the end would compare host windows seconds
// apart.
const blockLen = 8

// tracedHTTP is the traced run of an HTTP workload: blocks of requests
// sent to a daemon whose campaigns run serially, each followed by the
// in-process replay of the same requests, in order, against twin caches.
// The warm phase of analyze-warm is part of the traced sequence, so that
// run's layers account for its set-up too; that is where its simulation
// happens.
func (p *pipeline) tracedHTTP(ctx context.Context, e env, w workload, seq []request, s, off *layerSums) error {
	client := newClient(1)
	defer client.CloseIdleConnections()
	args := append(w.daemonArgs(filepath.Join(e.tmp, "spill")), "-sim-workers", "1")
	d, err := startDaemon(ctx, e.bin, args, filepath.Join(e.tmp, "scaltoold.log"), client)
	if err != nil {
		return err
	}
	defer d.stop()
	before, err := cacheCounts(ctx, client, d.url())
	if err != nil {
		return err
	}

	var block []sent
	send := func(r request) error {
		t := time.Now()
		code, body, err := post(ctx, client, d.url(), r)
		block = append(block, sent{r: r, ms: since(t), body: body})
		if err != nil {
			return err
		}
		if code != http.StatusOK {
			return fmt.Errorf("%s: status %d: %s", r.label(), code, bytes.TrimSpace(body))
		}
		return checkBody(r, body)
	}
	replay := func() error {
		for _, x := range block {
			mine, err := p.serveOne(ctx, x.r, s, off, e.tmp)
			if err != nil {
				return fmt.Errorf("in-process %s: %w", x.r.label(), err)
			}
			if mine != nil && !bytes.Equal(mine, x.body) {
				return fmt.Errorf("in-process %s encoded another body than the daemon's", x.r.label())
			}
			s.OneClient += x.ms
			s.N++
		}
		block = block[:0]
		return nil
	}
	if w.WarmUp {
		for _, id := range e.docs.Warm {
			if err := send(request{Doc: e.byID[id]}); err != nil {
				return err
			}
		}
		if err := replay(); err != nil {
			return err
		}
	}
	start := time.Now()
	for i := 0; time.Since(start) < e.seconds; {
		for len(block) < blockLen {
			if err := send(seq[i%len(seq)]); err != nil {
				return err
			}
			i++
		}
		if err := replay(); err != nil {
			return err
		}
	}
	after, err := cacheCounts(ctx, client, d.url())
	if err != nil {
		return err
	}
	s.CacheHits = after["hits"] - before["hits"]
	s.CacheDiskHits = after["disk_hits"] - before["disk_hits"]
	s.CacheLookups = s.CacheHits + after["misses"] - before["misses"]
	s.Evictions = after["evictions"] - before["evictions"]
	return nil
}

// scrape reads the daemon's /metrics counters, keyed by name and labels.
func scrape(ctx context.Context, client *http.Client, base string) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, line := range strings.Split(string(raw), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out, nil
}

// cacheCounts sums the daemon's run-cache counters: hits (memory, disk and
// joined flights), disk hits, misses and evictions.
func cacheCounts(ctx context.Context, client *http.Client, base string) (map[string]float64, error) {
	m, err := scrape(ctx, client, base)
	if err != nil {
		return nil, err
	}
	disk := m[`scaltool_runcache_hits_total{tier="disk"}`]
	return map[string]float64{
		"hits":      m[`scaltool_runcache_hits_total{tier="mem"}`] + disk + m["scaltool_runcache_shared_total"],
		"disk_hits": disk,
		"misses":    m["scaltool_runcache_misses_total"],
		"evictions": m[`scaltool_runcache_evictions_total{spilled="true"}`] + m[`scaltool_runcache_evictions_total{spilled="false"}`],
	}, nil
}

// journalLayer times the durable campaign (ExecuteDurable, RecordFit,
// CloseJournal) and the plain one (Execute) against the journal cache,
// warmed first so that neither simulates; their difference is what
// journaling costs. It also returns the journal's size.
func (p *pipeline) journalLayer(ctx context.Context, app apps.App, plan campaign.Plan, dir string) (ms, size float64, err error) {
	defer os.RemoveAll(dir)
	rn := &campaign.Runner{Cfg: p.cfg, Workers: 1, Cache: p.journalCache}
	if _, err := rn.Execute(ctx, app, plan); err != nil {
		return 0, 0, err
	}
	t := time.Now()
	res, err := rn.ExecuteDurable(ctx, app, plan, campaign.DurableOptions{Dir: dir})
	durable := since(t)
	if err != nil {
		return 0, 0, err
	}
	m, err := res.FitContext(ctx, model.DefaultOptions(p.cfg.L2.SizeBytes))
	if err != nil {
		return 0, 0, err
	}
	t = time.Now()
	err = res.RecordFit(ctx, m)
	if cerr := res.CloseJournal(); err == nil {
		err = cerr
	}
	durable += since(t)
	if err != nil {
		return 0, 0, err
	}
	n, err := dirBytes(dir)
	if err != nil {
		return 0, 0, err
	}
	t = time.Now()
	if _, err := rn.Execute(ctx, app, plan); err != nil {
		return 0, 0, err
	}
	return durable - since(t), float64(n), nil
}
