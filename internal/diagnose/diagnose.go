package diagnose

import (
	"context"
	"fmt"
	"math"
	"sort"

	"scaltool/internal/apps"
	"scaltool/internal/campaign"
	"scaltool/internal/obs"
	"scaltool/internal/recipe"
	"scaltool/internal/sim"
)

// TileTolerance is the relative slack of every provenance check: each
// run's summed region cycles against processors × wall cycles, and the
// attributed loss against the measured scaling loss — 1 part in 2^20.
// The simulator's attribution tiles exactly; the slack only absorbs
// float64 summation order.
const TileTolerance = 1.0 / (1 << 20)

// Verdict values a culprit can carry, by which phase of the region's
// attribution grows fastest with the processor count.
const (
	// VerdictImbalance: the loss is straggler spin — one processor's work
	// skew makes the others wait at the region's closing barrier.
	VerdictImbalance = "imbalance"
	// VerdictSerialization: the loss is lock contention — the region's
	// critical sections serialize on the global lock.
	VerdictSerialization = "serialization"
	// VerdictSynchronization: the loss is barrier cost itself — entry/exit
	// work and the release hot spot growing with the processor count.
	VerdictSynchronization = "synchronization"
	// VerdictCommunication: the loss is busy-cycle inflation — coherence
	// misses and L2 occupancy growth, not waiting.
	VerdictCommunication = "communication"
	// VerdictScales: the region recovers nothing (no loss at the largest
	// processor count).
	VerdictScales = "scales"
)

// Family is the input set of one diagnosis: the per-region attribution of
// every base run in a campaign, one run per processor count at the same
// data-set size.
type Family struct {
	App     string
	Machine string
	S0      uint64
	Runs    []campaign.AttributionRun
}

// FromCampaign assembles the diagnosis family from a finished campaign.
// The campaign's uniprocessor base run is the scaling baseline, so it must
// be present (every NewPlan campaign starts its processor sweep at 1).
func FromCampaign(res *campaign.Result) (Family, error) {
	runs, err := res.AttributionFamily()
	if err != nil {
		return Family{}, err
	}
	if len(runs) < 2 {
		return Family{}, fmt.Errorf("diagnose: campaign has %d base runs; need the uniprocessor baseline plus at least one multiprocessor run", len(runs))
	}
	if runs[0].Procs != 1 {
		return Family{}, fmt.Errorf("diagnose: campaign's smallest base run uses %d processors; the uniprocessor run is the scaling baseline", runs[0].Procs)
	}
	f := Family{App: res.Plan.App, S0: res.Plan.S0, Runs: runs}
	if br := res.BaseRuns[1]; br != nil {
		f.Machine = br.MachineName
	}
	return f, nil
}

// Campaign diagnoses a finished campaign of app: its attribution family,
// overlaid on the structure graph of app's program at the plan's largest
// processor count (a recipe.CauseGraph build), ranked and self-verified.
func Campaign(ctx context.Context, app apps.App, res *campaign.Result) (*Report, error) {
	fam, err := FromCampaign(res)
	if err != nil {
		return nil, err
	}
	nmax := res.Plan.ProcCounts[len(res.Plan.ProcCounts)-1]
	prog, err := recipe.ForApp(app, res.Machine, nmax, res.Plan.S0).Build(ctx, recipe.CauseGraph)
	if err != nil {
		return nil, fmt.Errorf("diagnose: building structure graph: %w", err)
	}
	rep, err := Run(ctx, BuildGraph(prog), fam, Options{})
	if err != nil {
		return nil, err
	}
	if err := rep.Verify(); err != nil {
		return nil, fmt.Errorf("diagnose: report failed self-verification: %w", err)
	}
	return rep, nil
}

// Options tunes a diagnosis.
type Options struct {
	// MaxCulprits truncates the ranked list (0 keeps every region). The
	// loss of truncated regions is reported in Report.TruncatedLoss, so
	// the tiling identity Σ recoverable + truncated = scaling loss holds
	// either way.
	MaxCulprits int
}

// CurvePoint is one processor count's evidence for a region: the run it
// came from and the region's Busy/Sync/Imb cycle split there. Loss is the
// region's total against its uniprocessor baseline.
type CurvePoint struct {
	Procs int     `json:"procs"`
	RunID string  `json:"run_id"`
	Busy  float64 `json:"busy_cycles"`
	Sync  float64 `json:"sync_cycles"`
	Imb   float64 `json:"imb_cycles"`
	Loss  float64 `json:"loss_cycles"`
}

// Culprit is one region's diagnosis: its scaling-loss curve, the verdict
// backtracked from the dominant growing phase, the sync object the loss
// routes through, and the recoverable cycles (its loss at the largest
// processor count — what a perfectly scaling version of the region would
// give back).
type Culprit struct {
	Rank        int     `json:"rank"`
	Region      string  `json:"region"`
	Recoverable float64 `json:"recoverable_cycles"`

	// Growth of each phase from the baseline to the largest count; the
	// dominant one decides the verdict.
	BusyGrowth float64 `json:"busy_growth_cycles"`
	SyncGrowth float64 `json:"sync_growth_cycles"`
	ImbGrowth  float64 `json:"imb_growth_cycles"`

	Verdict    string `json:"verdict"`
	SyncObject string `json:"sync_object,omitempty"`

	// FirstLossProcs is the smallest processor count with positive loss
	// (0 if the region never loses).
	FirstLossProcs int `json:"first_loss_procs,omitempty"`
	// StragglerProc is the processor with the most busy cycles at the
	// largest count — the straggler the others spin on. -1 unless the
	// verdict is imbalance.
	StragglerProc int `json:"straggler_proc"`

	Curve []CurvePoint `json:"curve"`
}

// RunProvenance links a diagnosis back to the runs that support it: the
// run's campaign identity, its timeline lane in the Chrome trace
// (sim.AppendTimeline labels lanes "sim <run id>"), and its tiling totals.
type RunProvenance struct {
	Procs      int     `json:"procs"`
	RunID      string  `json:"run_id"`
	TraceLane  string  `json:"trace_lane"`
	WallCycles float64 `json:"wall_cycles"`
	// RegionCycles is the run's summed region attribution over every
	// processor; it must tile Procs × WallCycles.
	RegionCycles float64 `json:"region_cycles"`
}

// Report is one diagnosis: the ranked culprit list plus everything needed
// to re-check it. All fields are value types in fixed order — the JSON
// encoding is byte-stable for identical inputs.
type Report struct {
	App     string `json:"app"`
	Machine string `json:"machine"`
	S0      uint64 `json:"s0"`
	Procs   []int  `json:"procs"`

	// BaselineWall is the uniprocessor run's wall cycles. ScalingLoss is
	// the campaign's measured loss at the largest count nmax:
	// nmax × Wall(nmax) − Wall(1) — the cycles the machine spends beyond
	// perfect scaling. AttributedLoss is the same quantity rebuilt from
	// the per-region curves; Verify checks they agree to TileTolerance.
	BaselineWall   float64 `json:"baseline_wall_cycles"`
	ScalingLoss    float64 `json:"scaling_loss_cycles"`
	AttributedLoss float64 `json:"attributed_loss_cycles"`
	// TruncatedLoss is the loss of regions dropped by Options.MaxCulprits
	// (0 when the list is complete).
	TruncatedLoss float64 `json:"truncated_loss_cycles"`

	Culprits []Culprit       `json:"culprits"`
	Graph    *Graph          `json:"graph,omitempty"`
	Runs     []RunProvenance `json:"runs"`
}

// Run overlays the family's attribution on the program structure graph and
// backtracks each region's scaling loss to a verdict. The report covers
// every region (ranked by recoverable cycles, name as tie-break), so the
// per-region losses tile the campaign's measured scaling loss exactly.
func Run(ctx context.Context, g *Graph, fam Family, opts Options) (*Report, error) {
	if len(fam.Runs) < 2 {
		return nil, fmt.Errorf("diagnose: need at least two runs, got %d", len(fam.Runs))
	}
	if fam.Runs[0].Procs != 1 {
		return nil, fmt.Errorf("diagnose: first run must be the uniprocessor baseline, got %d processors", fam.Runs[0].Procs)
	}
	for i := 1; i < len(fam.Runs); i++ {
		if fam.Runs[i].Procs <= fam.Runs[i-1].Procs {
			return nil, fmt.Errorf("diagnose: runs must have strictly ascending processor counts (%d after %d)",
				fam.Runs[i].Procs, fam.Runs[i-1].Procs)
		}
	}

	_, span := obs.StartSpan(ctx, "diagnose",
		obs.A("app", fam.App), obs.A("runs", len(fam.Runs)))
	defer span.End()

	// Region-name universe: the largest run's first-appearance order, then
	// names only earlier runs saw (a region can exist only at some counts —
	// tree reductions emit log2(p) levels). Deterministic by construction.
	type overlay struct {
		name  string
		curve []CurvePoint
	}
	byRun := make([]map[string]*sim.RegionAttribution, len(fam.Runs))
	for i := range fam.Runs {
		m := make(map[string]*sim.RegionAttribution, len(fam.Runs[i].Regions)) //scalvet:ignore one index per run, log2(nmax) runs total; all live until ranking completes
		for j := range fam.Runs[i].Regions {
			m[fam.Runs[i].Regions[j].Name] = &fam.Runs[i].Regions[j]
		}
		byRun[i] = m
	}
	nameIdx := map[string]int{}
	overlays := make([]*overlay, 0, len(fam.Runs[len(fam.Runs)-1].Regions))
	addNames := func(regs []sim.RegionAttribution) {
		for j := range regs {
			if _, ok := nameIdx[regs[j].Name]; !ok {
				nameIdx[regs[j].Name] = len(overlays)
				overlays = append(overlays, &overlay{name: regs[j].Name})
			}
		}
	}
	addNames(fam.Runs[len(fam.Runs)-1].Regions)
	for i := 0; i < len(fam.Runs)-1; i++ {
		addNames(fam.Runs[i].Regions)
	}

	for _, ov := range overlays {
		ov.curve = make([]CurvePoint, 0, len(fam.Runs)) //scalvet:ignore retained result: each region's curve ships in the report
		var base float64
		if att := byRun[0][ov.name]; att != nil {
			base = att.Busy + att.Sync + att.Imb
		}
		for i := range fam.Runs {
			pt := CurvePoint{Procs: fam.Runs[i].Procs, RunID: fam.Runs[i].ID}
			if att := byRun[i][ov.name]; att != nil {
				pt.Busy, pt.Sync, pt.Imb = att.Busy, att.Sync, att.Imb
			}
			pt.Loss = (pt.Busy + pt.Sync + pt.Imb) - base
			ov.curve = append(ov.curve, pt)
		}
	}

	last := len(fam.Runs) - 1
	culprits := make([]Culprit, 0, len(overlays))
	for _, ov := range overlays {
		first, end := ov.curve[0], ov.curve[last]
		c := Culprit{
			Region:        ov.name,
			Recoverable:   end.Loss,
			BusyGrowth:    end.Busy - first.Busy,
			SyncGrowth:    end.Sync - first.Sync,
			ImbGrowth:     end.Imb - first.Imb,
			StragglerProc: -1,
			Curve:         ov.curve,
		}
		for _, pt := range ov.curve {
			if pt.Loss > 0 {
				c.FirstLossProcs = pt.Procs
				break
			}
		}
		backtrack(&c, g, byRun[last][ov.name])
		culprits = append(culprits, c)
	}
	sort.SliceStable(culprits, func(i, j int) bool {
		if culprits[i].Recoverable != culprits[j].Recoverable { //scalvet:ignore exact float sort key, not a tolerance test
			return culprits[i].Recoverable > culprits[j].Recoverable
		}
		return culprits[i].Region < culprits[j].Region
	})

	rep := &Report{
		App:          fam.App,
		Machine:      fam.Machine,
		S0:           fam.S0,
		Procs:        make([]int, 0, len(fam.Runs)),
		BaselineWall: fam.Runs[0].WallCycles,
		Graph:        g,
		Runs:         make([]RunProvenance, 0, len(fam.Runs)),
	}
	for i := range fam.Runs {
		r := &fam.Runs[i]
		rep.Procs = append(rep.Procs, r.Procs)
		var regionCycles float64
		for j := range r.Regions {
			regionCycles += r.Regions[j].Busy + r.Regions[j].Sync + r.Regions[j].Imb
		}
		rep.Runs = append(rep.Runs, RunProvenance{
			Procs:        r.Procs,
			RunID:        r.ID,
			TraceLane:    "sim " + r.ID,
			WallCycles:   r.WallCycles,
			RegionCycles: regionCycles,
		})
	}
	rep.ScalingLoss = float64(fam.Runs[last].Procs)*fam.Runs[last].WallCycles - rep.BaselineWall
	for i := range culprits {
		culprits[i].Rank = i + 1
		rep.AttributedLoss += culprits[i].Recoverable
	}
	if opts.MaxCulprits > 0 && len(culprits) > opts.MaxCulprits {
		for _, c := range culprits[opts.MaxCulprits:] {
			rep.TruncatedLoss += c.Recoverable
		}
		culprits = culprits[:opts.MaxCulprits]
	}
	rep.Culprits = culprits

	span.SetAttr("culprits", len(rep.Culprits))
	span.SetAttr("scaling_loss_cycles", rep.ScalingLoss)
	mt := obs.Meter(ctx)
	mt.DiagnoseReports().Inc()
	mt.DiagnoseLossCycles().Observe(rep.ScalingLoss)
	return rep, nil
}

// backtrack assigns a culprit's verdict and sync object from its dominant
// growing phase and the structure graph (DESIGN.md §14): sync growth in a
// critical region routes through the lock, sync growth elsewhere through
// the region's closing barrier, imbalance through the same barrier with
// the straggler processor named, and busy growth is communication —
// coherence and L2-occupancy inflation with no sync object at all.
func backtrack(c *Culprit, g *Graph, att *sim.RegionAttribution) {
	if !(c.Recoverable > 0) {
		c.Verdict = VerdictScales
		return
	}
	critical := false
	if g != nil {
		if n := g.Node(c.Region); n != nil {
			critical = n.Critical
		}
	}
	switch {
	case c.SyncGrowth >= c.ImbGrowth && c.SyncGrowth >= c.BusyGrowth:
		if critical {
			c.Verdict = VerdictSerialization
			c.SyncObject = LockNode
		} else {
			c.Verdict = VerdictSynchronization
			c.SyncObject = BarrierNode(c.Region)
		}
	case c.ImbGrowth >= c.BusyGrowth:
		c.Verdict = VerdictImbalance
		c.SyncObject = BarrierNode(c.Region)
		if att != nil {
			for p := range att.PerProc {
				if c.StragglerProc < 0 || att.PerProc[p].Busy > att.PerProc[c.StragglerProc].Busy {
					c.StragglerProc = p
				}
			}
		}
	default:
		c.Verdict = VerdictCommunication
	}
}

// Verify re-checks the report's provenance chain: every run's region
// attribution tiles processors × wall cycles, every culprit's curve is
// internally consistent, and the attributed loss (plus any truncated
// remainder) matches the measured scaling loss — all to TileTolerance.
func (r *Report) Verify() error {
	if len(r.Runs) < 2 {
		return fmt.Errorf("diagnose: report has %d runs; need ≥ 2", len(r.Runs))
	}
	for _, run := range r.Runs {
		want := float64(run.Procs) * run.WallCycles
		if !within(run.RegionCycles, want) {
			return fmt.Errorf("diagnose: run %s region cycles %.6g do not tile procs×wall %.6g",
				run.RunID, run.RegionCycles, want)
		}
	}
	last := r.Runs[len(r.Runs)-1]
	measured := float64(last.Procs)*last.WallCycles - r.BaselineWall
	if !within(r.ScalingLoss, measured) {
		return fmt.Errorf("diagnose: reported scaling loss %.6g does not match runs' %.6g",
			r.ScalingLoss, measured)
	}
	var sum float64
	for i := range r.Culprits {
		c := &r.Culprits[i]
		if c.Rank != i+1 {
			return fmt.Errorf("diagnose: culprit %q has rank %d at position %d", c.Region, c.Rank, i+1)
		}
		if len(c.Curve) != len(r.Runs) {
			return fmt.Errorf("diagnose: culprit %q has %d curve points for %d runs",
				c.Region, len(c.Curve), len(r.Runs))
		}
		end := c.Curve[len(c.Curve)-1]
		if !within(c.Recoverable, end.Loss) {
			return fmt.Errorf("diagnose: culprit %q recoverable %.6g does not match its curve's final loss %.6g",
				c.Region, c.Recoverable, end.Loss)
		}
		base := c.Curve[0].Busy + c.Curve[0].Sync + c.Curve[0].Imb
		for _, pt := range c.Curve {
			if !within(pt.Loss, pt.Busy+pt.Sync+pt.Imb-base) {
				return fmt.Errorf("diagnose: culprit %q curve point p=%d loss %.6g inconsistent with its phases",
					c.Region, pt.Procs, pt.Loss)
			}
		}
		sum += c.Recoverable
	}
	sum += r.TruncatedLoss
	if !within(sum, r.ScalingLoss) {
		return fmt.Errorf("diagnose: attributed loss %.6g does not tile measured scaling loss %.6g within 2^-20",
			sum, r.ScalingLoss)
	}
	if !within(r.AttributedLoss, sum) {
		return fmt.Errorf("diagnose: attributed-loss field %.6g does not match culprit sum %.6g",
			r.AttributedLoss, sum)
	}
	return nil
}

// within reports |got−want| ≤ TileTolerance, relative to max(|want|, 1) so
// near-zero quantities are judged absolutely.
func within(got, want float64) bool {
	scale := math.Abs(want)
	if scale < 1 {
		scale = 1
	}
	return math.Abs(got-want) <= TileTolerance*scale
}
