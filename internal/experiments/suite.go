// Package experiments regenerates every table and figure of the paper's
// evaluation, in text form. cmd/experiments prints them all (the source of
// EXPERIMENTS.md); the repository-root benchmarks run them one at a time.
//
// Numbers are produced by full Table 3 campaigns on the simulated machine;
// the *shapes* — who wins, by roughly what factor, where effects vanish —
// are the reproduction targets, not the paper's absolute cycle counts
// (the substrate here is a scaled simulator, not the authors' Origin 2000).
package experiments

import (
	"fmt"
	"io"
	"sort"
	"sync"

	"scaltool/internal/apps"
	"scaltool/internal/campaign"
	"scaltool/internal/machine"
	"scaltool/internal/model"
	"scaltool/internal/sim"
)

// Suite runs and caches the campaigns behind the experiments.
type Suite struct {
	Cfg      machine.Config
	MaxProcs int

	mu       sync.Mutex
	analyses map[string]*appAnalysis
}

// appAnalysis is one application's campaign + fitted model.
type appAnalysis struct {
	app      apps.App
	campaign *campaign.Result
	model    *model.Model
}

// NewSuite creates a suite on the given machine. maxProcs must be a power
// of two (the paper evaluates up to 32).
func NewSuite(cfg machine.Config, maxProcs int) *Suite {
	return &Suite{Cfg: cfg, MaxProcs: maxProcs, analyses: map[string]*appAnalysis{}}
}

// PaperApps lists the paper's three applications in presentation order.
func PaperApps() []string { return []string{"t3dheat", "hydro2d", "swim"} }

// analysis lazily runs the campaign + fit for an application.
func (s *Suite) analysis(name string) (*appAnalysis, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if a, ok := s.analyses[name]; ok {
		return a, nil
	}
	app, err := apps.ByName(name)
	if err != nil {
		return nil, err
	}
	plan, err := campaign.NewPlan(app, s.Cfg, s.MaxProcs, 0)
	if err != nil {
		return nil, err
	}
	rn := &campaign.Runner{Cfg: s.Cfg}
	res, err := rn.Run(app, plan)
	if err != nil {
		return nil, fmt.Errorf("experiments: campaign %s: %w", name, err)
	}
	m, err := res.Fit(model.DefaultOptions(s.Cfg.L2.SizeBytes))
	if err != nil {
		return nil, fmt.Errorf("experiments: fit %s: %w", name, err)
	}
	a := &appAnalysis{app: app, campaign: res, model: m}
	s.analyses[name] = a
	return a, nil
}

// mustAnalysis panics on error; the experiments are all-or-nothing.
func (s *Suite) mustAnalysis(name string) *appAnalysis {
	a, err := s.analysis(name)
	if err != nil {
		panic(err)
	}
	return a
}

// Experiment names in paper order, mapped to their generators.
type Experiment struct {
	ID   string // "table1", "fig6", ...
	Name string
	Run  func() (string, error)
}

// Experiments returns every reproduction in paper order.
func (s *Suite) Experiments() []Experiment {
	wrap := func(f func() string) func() (string, error) {
		return func() (out string, err error) {
			defer func() {
				if r := recover(); r != nil {
					err = fmt.Errorf("experiment failed: %v", r)
				}
			}()
			return f(), nil
		}
	}
	return []Experiment{
		{"table1", "Table 1 — resource needs: existing tools vs Scal-Tool", wrap(s.Table1)},
		{"table2", "Table 2 — bottlenecks and their effects", wrap(s.Table2)},
		{"table3", "Table 3 — the measurement-run matrix", wrap(s.Table3)},
		{"table4", "Table 4 — application characteristics", wrap(s.Table4)},
		{"fig2", "Figures 1/2 — breakdown concept (execution-time components)", wrap(s.Fig2)},
		{"fig3a", "Figure 3a — uniprocessor L2 hit rate vs data-set size", wrap(s.Fig3a)},
		{"fig3b", "Figure 3b — infinite-L2 vs measured hit rate", wrap(s.Fig3b)},
		{"fig4", "Figure 4 — cpi(inf,inf) vs processor count", wrap(s.Fig4)},
		{"fig5", "Figure 5 — T3dheat speedup", wrap(func() string { return s.SpeedupFig("t3dheat") })},
		{"fig6", "Figure 6 — T3dheat scalability bottlenecks", wrap(func() string { return s.BreakdownFig("t3dheat") })},
		{"fig7", "Figure 7 — T3dheat validation (model vs speedshop)", wrap(func() string { return s.ValidationFig("t3dheat") })},
		{"fig8", "Figure 8 — Hydro2d speedup", wrap(func() string { return s.SpeedupFig("hydro2d") })},
		{"fig9", "Figure 9 — Hydro2d scalability bottlenecks", wrap(func() string { return s.BreakdownFig("hydro2d") })},
		{"fig10", "Figure 10 — Hydro2d validation (model vs speedshop)", wrap(func() string { return s.ValidationFig("hydro2d") })},
		{"fig11", "Figure 11 — Swim speedup", wrap(func() string { return s.SpeedupFig("swim") })},
		{"fig12", "Figure 12 — Swim scalability bottlenecks", wrap(func() string { return s.BreakdownFig("swim") })},
		{"fig13", "Figure 13 — Swim validation (model vs speedshop)", wrap(func() string { return s.ValidationFig("swim") })},
		{"sec26", "Section 2.6 — what-if machine-parameter studies", wrap(s.Sec26)},
		{"ext-sharing", "Extension — true/false-sharing estimate (the paper's §6 future work)", wrap(s.ExtSharing)},
		{"ext-segment", "Extension — per-segment analysis (§2.1's \"segment of the application\")", wrap(s.ExtSegment)},
		{"abl-rawtm", "Ablation — MP-decontaminated vs raw Eq. 1 tm(n)", wrap(s.AblationRawTm)},
		{"abl-placement", "Ablation — page placement policies", wrap(s.AblationPlacement)},
		{"abl-mux", "Ablation — 2-counter multiplexed measurement", wrap(s.AblationMux)},
		{"abl-protocol", "Ablation — Illinois vs MSI coherence protocol (ntsync dependence)", wrap(s.AblationProtocol)},
	}
}

// RunAll writes every experiment to w.
func (s *Suite) RunAll(w io.Writer) error {
	for _, e := range s.Experiments() {
		fmt.Fprintf(w, "## %s\n\n", e.Name)
		out, err := e.Run()
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		fmt.Fprintln(w, out)
	}
	return nil
}

// ByID returns one experiment.
func (s *Suite) ByID(id string) (Experiment, error) {
	for _, e := range s.Experiments() {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("experiments: unknown id %q", id)
}

// sortedProcs returns the campaign's processor counts ascending.
func sortedProcs(res *campaign.Result) []int {
	out := make([]int, 0, len(res.BaseRuns))
	for n := range res.BaseRuns {
		out = append(out, n)
	}
	sort.Ints(out)
	return out
}

// balanceMetric reports max/mean busy cycles across processors at the
// largest count — 1.00 is perfect balance.
func balanceMetric(res *sim.Result) float64 {
	var sum, max float64
	for _, b := range res.Ground.PerProcBusy {
		sum += b
		if b > max {
			max = b
		}
	}
	if !(sum > 0) { // busy-cycle sums are nonnegative; also rejects NaN
		return 0
	}
	return max / (sum / float64(len(res.Ground.PerProcBusy)))
}
