package serve

import (
	"context"
	"net/http"

	"scaltool/internal/admission"
	"scaltool/internal/apps"
	"scaltool/internal/campaign"
	"scaltool/internal/machine"
	"scaltool/internal/model"
)

// Request is the /v1/analyze request document.
type Request struct {
	// App names a built-in application (see 'scaltool apps'). Exactly one
	// of App and Program must be set.
	App string `json:"app,omitempty"`
	// Program submits a user-defined program spec in place of a built-in
	// application; it runs through the same campaign and model pipeline.
	Program *admission.ProgramSpec `json:"program,omitempty"`
	// Procs is the largest processor count to analyze — a power of two;
	// 0 selects 32, the paper's machine size.
	Procs int `json:"procs,omitempty"`
	// S0 is the base data-set size in bytes (0 = the app's default).
	S0 uint64 `json:"s0,omitempty"`
	// Machine selects the configuration: "scaled" (default) or "origin".
	Machine string `json:"machine,omitempty"`
	// RawTm selects the paper-faithful single-pass tm(n) estimator.
	RawTm bool `json:"raw_tm,omitempty"`
}

// Ident names the request's workload for logs.
func (r *Request) Ident() string {
	if r.Program != nil {
		return "user:" + r.Program.Name
	}
	return r.App
}

// applyDefaults fills the document's omitted fields: 32 processors, the
// paper's machine size, and the scaled machine.
func (r *Request) applyDefaults() {
	if r.Procs == 0 {
		r.Procs = 32
	}
	if r.Machine == "" {
		r.Machine = "scaled"
	}
}

// resolved is a validated request, ready to estimate and execute.
type resolved struct {
	cfg  machine.Config
	app  apps.App
	plan campaign.Plan
}

// invalid builds a 422 rejection for a semantically broken document.
func invalid(code, format string, args ...any) *admission.Rejection {
	return admission.Reject(http.StatusUnprocessableEntity, code, format, args...)
}

// validate resolves a defaulted request for route rt before it takes an
// admission slot: workload resolved, the route's minimum processor count
// checked, plan built (a plan the fit could not use is refused here, before
// any run), shape caps checked. Every failure is a typed rejection — 422 for
// semantic problems, 413 for documents whose dataset is over this server's
// size budget.
func (s *Server) validate(req *Request, rt *route) (*resolved, *admission.Rejection) {
	switch {
	case req.App == "" && req.Program == nil:
		return nil, invalid("missing_app", "set \"app\" or \"program\"")
	case req.App != "" && req.Program != nil:
		return nil, invalid("ambiguous_app", "\"app\" and \"program\" are mutually exclusive")
	}
	var app apps.App
	if req.Program != nil {
		if rej := req.Program.Validate(); rej != nil {
			return nil, rej
		}
		app = req.Program.App()
	} else {
		var err error
		if app, err = apps.ByName(req.App); err != nil {
			return nil, invalid("unknown_app", "unknown app %q (known: %v)", req.App, apps.Names())
		}
	}
	if req.Procs < 1 || req.Procs&(req.Procs-1) != 0 {
		return nil, invalid("bad_procs", "\"procs\" must be a power of two ≥ 1, got %d", req.Procs)
	}
	if req.Procs < rt.minProcs {
		return nil, invalid("bad_procs", "%s needs \"procs\" ≥ %d, got %d", rt.path, rt.minProcs, req.Procs)
	}
	if req.Machine != "scaled" && req.Machine != "origin" {
		return nil, invalid("bad_machine", "unknown machine %q (want scaled or origin)", req.Machine)
	}
	cfg := configFor(req.Machine)

	budget := s.Budget()
	if rej := budget.CheckShape(req.Procs, req.S0); rej != nil {
		return nil, rej
	}
	plan, err := campaign.NewPlan(app, cfg, req.Procs, req.S0)
	if err != nil {
		return nil, invalid("bad_plan", "%v", err)
	}
	// The resolved default size is subject to the same cap as an explicit
	// one (a user program can declare an enormous default).
	if rej := budget.CheckShape(req.Procs, plan.S0); rej != nil {
		return nil, rej
	}
	return &resolved{cfg: cfg, app: app, plan: plan}, nil
}

// configFor maps the request's machine name to its configuration.
func configFor(name string) machine.Config {
	if name == "origin" {
		return machine.Origin2000()
	}
	return machine.ScaledOrigin()
}

// Response is the /v1/analyze response document. Identical requests get
// byte-identical bodies — everything here derives deterministically from the
// request, never from serving state (no timestamps, cache verdicts, or
// request IDs; those belong in headers and /metrics).
type Response struct {
	App     string `json:"app"`
	Machine string `json:"machine"`
	Procs   int    `json:"procs"`
	S0      uint64 `json:"s0"`

	Model ModelParams `json:"model"`
	// Degraded summarizes what the fit had to do without; empty for a
	// complete input set.
	Degraded string `json:"degraded,omitempty"`

	Speedups  []SpeedupPoint `json:"speedups"`
	Breakdown []BreakdownRow `json:"breakdown"`
}

// ModelParams are the fitted scalars of the paper's model (§2.2–2.4).
type ModelParams struct {
	CPI0       float64 `json:"cpi0"`
	T2         float64 `json:"t2"`
	Tm1        float64 `json:"tm1"`
	Compulsory float64 `json:"compulsory"`
	CpiImb     float64 `json:"cpi_imb"`
	FitRMSE    float64 `json:"fit_rmse"`
	FitR2      float64 `json:"fit_r2"`
	FitSizes   int     `json:"fit_sizes"`
}

// SpeedupPoint is one point of the measured speedup curve (Figures 5/8/11).
type SpeedupPoint struct {
	Procs   int     `json:"procs"`
	Wall    float64 `json:"wall_cycles"`
	Speedup float64 `json:"speedup"`
}

// BreakdownRow is one processor count of the cycle-breakdown chart (Figures
// 6/9/12): cycles accumulated over all processors, split by bottleneck.
type BreakdownRow struct {
	Procs        int     `json:"procs"`
	Base         float64 `json:"base"`
	L2Lim        float64 `json:"l2lim"`
	Sync         float64 `json:"sync"`
	Imb          float64 `json:"imb"`
	MP           float64 `json:"mp"`
	Interpolated bool    `json:"interpolated,omitempty"`
}

// analyze runs the full pipeline for one resolved request: campaign
// (through the shared run cache) → fit → response.
//
// The route handler reaches it through the route table, which the
// static call graph cannot follow, so it is marked a hot root itself:
//
//scalvet:hot
func (s *Server) analyze(ctx context.Context, req *Request, rv *resolved) (any, error) {
	rn := &campaign.Runner{
		Cfg:     rv.cfg,
		Workers: s.opts.SimWorkers,
		Cache:   s.opts.Cache,
	}
	res, err := rn.Execute(ctx, rv.app, rv.plan)
	if err != nil {
		return nil, err
	}
	opts := model.DefaultOptions(rv.cfg.L2.SizeBytes)
	opts.RawTmN = req.RawTm
	m, err := res.FitContext(ctx, opts)
	if err != nil {
		return nil, err
	}
	resp := &Response{
		App:     req.Ident(),
		Machine: req.Machine,
		Procs:   req.Procs,
		S0:      rv.plan.S0,
		Model: ModelParams{
			CPI0:       m.CPI0,
			T2:         m.T2,
			Tm1:        m.Tm1,
			Compulsory: m.Compulsory,
			CpiImb:     m.CpiImb,
			FitRMSE:    m.FitRMSE,
			FitR2:      m.FitR2,
			FitSizes:   m.FitSizes,
		},
	}
	if m.Degradation.Degraded {
		resp.Degraded = m.Degradation.Summary()
	}
	for _, sp := range m.Speedups() {
		resp.Speedups = append(resp.Speedups, SpeedupPoint{Procs: sp.Procs, Wall: sp.Wall, Speedup: sp.Speedup})
	}
	for _, bp := range m.Breakdown() {
		resp.Breakdown = append(resp.Breakdown, BreakdownRow{
			Procs:        bp.Procs,
			Base:         bp.Base,
			L2Lim:        bp.L2Lim(),
			Sync:         bp.Sync,
			Imb:          bp.Imb,
			MP:           bp.MP(),
			Interpolated: bp.Interpolated,
		})
	}
	return resp, nil
}
