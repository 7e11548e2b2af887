// Package scaltool is a Go reproduction of Scal-Tool — "Scal-Tool:
// Pinpointing and Quantifying Scalability Bottlenecks in DSM
// Multiprocessors" (Solihin, Lam, Torrellas; SC 1999) — together with the
// complete substrate the paper ran on: an execution-driven simulator of a
// cache-coherent DSM multiprocessor in the style of the SGI Origin 2000
// (private L1/L2 caches, bit-vector directory coherence, bristled-hypercube
// interconnect, first-touch NUMA memory, R10000-style event counters), plus
// analogues of the three applications the paper evaluates and of the SGI
// tools it compares against.
//
// The workflow mirrors the paper:
//
//	cfg := scaltool.ScaledOrigin()
//	app, _ := scaltool.AppByName("swim")
//	a, err := scaltool.Analyze(cfg, app, 32)       // Table 3 campaign + model fit
//	for _, bp := range a.Breakdown() { ... }       // Figures 6/9/12
//	preds, _ := a.WhatIf(scaltool.DoubleL2())      // §2.6, no re-run
//
// Analyze executes the 2n−1 measurement runs of Table 3 (the application at
// the base data-set size for each processor count, plus uniprocessor runs at
// fractional sizes), runs the §2.4.2 estimation kernels, and fits the
// empirical model: cpi0 (with the unbiased compulsory-miss adjustment), t2
// and tm(n), the compulsory and coherence miss rates, the synchronization
// and load-imbalance instruction fractions, and finally the cycle breakdown
// into Base, L2Lim (insufficient caching space), Sync and Imb.
package scaltool

import (
	"context"
	"fmt"

	"scaltool/internal/apps"
	"scaltool/internal/campaign"
	"scaltool/internal/counters"
	"scaltool/internal/health"
	"scaltool/internal/machine"
	"scaltool/internal/model"
	"scaltool/internal/perftools"
	"scaltool/internal/sim"
	"scaltool/internal/whatif"
)

// Machine configuration.
type (
	// MachineConfig describes the simulated DSM machine.
	MachineConfig = machine.Config
	// CacheConfig describes one cache level.
	CacheConfig = machine.CacheConfig
)

// Origin2000 returns the paper's platform at full size.
func Origin2000() MachineConfig { return machine.Origin2000() }

// ScaledOrigin returns the default experiment machine — a ratio-preserving
// scale-down of the Origin 2000 that runs full campaigns in seconds.
func ScaledOrigin() MachineConfig { return machine.ScaledOrigin() }

// Applications.
type (
	// App generates simulated programs for one application.
	App = apps.App
)

// Apps lists the registered application names (the paper's three plus the
// demo apps).
func Apps() []string { return apps.Names() }

// AppByName looks up a registered application.
func AppByName(name string) (App, error) { return apps.ByName(name) }

// Programs and direct simulation (for custom applications).
type (
	// Program is a simulated parallel application: barrier-delimited
	// regions of per-processor operation streams.
	Program = sim.Program
	// Stream is one processor's work within a region.
	Stream = sim.Stream
	// RunResult is the outcome of one simulated run: the event-counter
	// report (all Scal-Tool sees) plus simulator ground truth (for
	// validation only).
	RunResult = sim.Result
	// CounterReport is the per-run hardware-event-counter file.
	CounterReport = counters.RunReport
)

// NewProgram starts building a custom program; see the examples/customapp
// example.
func NewProgram(name string, procs int, dataBytes uint64, pageBytes int) (*Program, error) {
	return sim.NewProgram(name, procs, dataBytes, pageBytes)
}

// Simulate runs a program on a machine.
func Simulate(cfg MachineConfig, prog *Program) (*RunResult, error) { return sim.Run(cfg, prog) }

// Campaign planning and the fitted model.
type (
	// Plan is the Table 3 run matrix.
	Plan = campaign.Plan
	// CampaignResult holds every run of a campaign.
	CampaignResult = campaign.Result
	// Model is the fitted empirical scalability model.
	Model = model.Model
	// ModelOptions configures the fit.
	ModelOptions = model.Options
	// BreakdownPoint is one processor count of the Figure 6/9/12 charts.
	BreakdownPoint = model.BreakdownPoint
	// ResourceCost is the Table 1 accounting (runs/processors/files).
	ResourceCost = perftools.ResourceCost
	// Scenario is a §2.6 what-if machine change.
	Scenario = whatif.Scenario
	// Prediction is a what-if outcome for one processor count.
	Prediction = whatif.Prediction
	// HealthReport records every repair, quarantine, and permanent failure
	// of a campaign's fault-tolerance layer.
	HealthReport = health.Report
	// Degradation states how far a fit ran below its full input set.
	Degradation = model.Degradation
)

// Standard what-if scenarios.
var (
	// DoubleL2 doubles the L2 capacity (Eq. 11 estimate).
	DoubleL2 = whatif.DoubleL2
	// FasterMemory halves tm.
	FasterMemory = whatif.FasterMemory
	// FasterSync quarters tsync.
	FasterSync = whatif.FasterSync
	// WiderIssue scales cpi0 by 1/1.5.
	WiderIssue = whatif.WiderIssue
)

// Analysis bundles a finished campaign with its fitted model.
type Analysis struct {
	Plan     Plan
	Campaign *CampaignResult
	// Health is the campaign's fault-tolerance record (never nil). A clean
	// campaign has Health.Clean() == true; after faults, Model.Degradation
	// states what the fit had to do without.
	Health *HealthReport
	Model  *Model
}

// Options tunes Analyze.
type Options struct {
	// S0 overrides the application's default base data-set size.
	S0 uint64
	// Workers bounds concurrent simulated runs (0 = GOMAXPROCS).
	Workers int
	// Model overrides the model options (a zero L2Bytes selects the
	// machine's L2).
	Model ModelOptions
}

// Analyze runs the full Scal-Tool workflow: plan the Table 3 campaign,
// execute it on the simulated machine, and fit the model. maxProcs must be
// a power of two.
func Analyze(cfg MachineConfig, app App, maxProcs int) (*Analysis, error) {
	return AnalyzeOpts(cfg, app, maxProcs, Options{})
}

// AnalyzeOpts is Analyze with explicit options.
func AnalyzeOpts(cfg MachineConfig, app App, maxProcs int, opts Options) (*Analysis, error) {
	return AnalyzeContext(context.Background(), cfg, app, maxProcs, opts)
}

// AnalyzeContext is AnalyzeOpts under a context: cancellation stops the
// campaign at the next run boundary, and an observer installed in ctx
// (internal/obs) sees the whole workflow — campaign/run/fit spans,
// run and fit metrics, and structured logs carrying each run's identity.
func AnalyzeContext(ctx context.Context, cfg MachineConfig, app App, maxProcs int, opts Options) (*Analysis, error) {
	plan, err := campaign.NewPlan(app, cfg, maxProcs, opts.S0)
	if err != nil {
		return nil, err
	}
	rn := &campaign.Runner{Cfg: cfg, Workers: opts.Workers}
	res, err := rn.Execute(ctx, app, plan)
	if err != nil {
		return nil, fmt.Errorf("scaltool: campaign for %s: %w", app.Name(), err)
	}
	mopts := opts.Model
	if mopts.L2Bytes == 0 {
		mopts.L2Bytes = cfg.L2.SizeBytes
	}
	m, err := res.FitContext(ctx, mopts)
	if err != nil {
		return nil, fmt.Errorf("scaltool: fitting %s: %w", app.Name(), err)
	}
	return &Analysis{Plan: plan, Campaign: res, Health: res.Health, Model: m}, nil
}

// Breakdown returns the Figure 6/9/12 curves: per processor count, the
// measured cycles (Base) and the estimated L2Lim/Sync/Imb effects.
func (a *Analysis) Breakdown() []BreakdownPoint { return a.Model.Breakdown() }

// Speedups returns the measured speedup curve (Figures 5/8/11).
func (a *Analysis) Speedups() []model.SpeedupPoint { return a.Model.Speedups() }

// MeasuredMP returns the speedshop-analogue multiprocessor-overhead
// measurement per processor count — the validation series of Figures
// 7/10/13.
func (a *Analysis) MeasuredMP() map[int]float64 { return a.Campaign.MeasuredMP() }

// Cost returns the campaign's Table 1 resource cost.
func (a *Analysis) Cost() ResourceCost { return a.Plan.Cost() }

// ExistingToolsCost returns the Table 1 cost of the time+speedshop
// methodology for n processor-count points.
func ExistingToolsCost(n int) ResourceCost { return perftools.ExistingToolsCost(n) }

// WhatIf evaluates a §2.6 scenario against the fitted model, without
// re-running the application.
func (a *Analysis) WhatIf(sc Scenario) ([]Prediction, error) {
	return whatif.Evaluate(a.Model, sc)
}

// SegmentModel fits the scalability model for one application segment —
// the regions whose names contain substr (the paper's per-segment analysis,
// §2.1). The campaign's runs are reused; nothing is re-executed.
func (a *Analysis) SegmentModel(substr string) (*Model, error) {
	opts := model.DefaultOptions(a.Campaign.Machine.L2.SizeBytes)
	return a.Campaign.FitSegment(substr, opts)
}

// Segments lists the distinct region (routine) names of the application's
// base run.
func (a *Analysis) Segments() []string {
	return a.Campaign.BaseRuns[a.Plan.ProcCounts[0]].Segments()
}
