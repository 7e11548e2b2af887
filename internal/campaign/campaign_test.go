package campaign

import (
	"math"
	"testing"

	"scaltool/internal/apps"
	"scaltool/internal/machine"
	"scaltool/internal/model"
	"scaltool/internal/perftools"
)

func cfg() machine.Config { return machine.ScaledOrigin() }

func TestNewPlanTable3Structure(t *testing.T) {
	app, _ := apps.ByName("t3dheat")
	plan, err := NewPlan(app, cfg(), 32, 0)
	if err != nil {
		t.Fatal(err)
	}
	if plan.N() != 6 {
		t.Fatalf("N = %d, want 6", plan.N())
	}
	wantProcs := []int{1, 2, 4, 8, 16, 32}
	for i, n := range wantProcs {
		if plan.ProcCounts[i] != n {
			t.Fatalf("ProcCounts = %v", plan.ProcCounts)
		}
	}
	// Fractional sizes s0/2 … s0/32.
	if len(plan.UniSizes) < 5 {
		t.Fatalf("UniSizes = %v", plan.UniSizes)
	}
	for i := 0; i < 5; i++ {
		want := plan.S0 >> uint(i+1)
		if plan.UniSizes[i] != want {
			t.Fatalf("UniSizes[%d] = %d, want %d", i, plan.UniSizes[i], want)
		}
	}
}

func TestPlanCostMatchesTable1(t *testing.T) {
	// T3dheat's s0 = 10× L2, so the Table 3 fractions already provide ≥ 3
	// overflowing sizes and the plan is exactly the paper's: 2n−1 runs,
	// 2^n+n−2 processors, 2n−1 files. (At n = 2 the plan has only two
	// uniprocessor sizes, too few to fit, and NewPlan refuses it.)
	app, _ := apps.ByName("t3dheat")
	for _, n := range []int{3, 4, 6} {
		maxProcs := 1 << uint(n-1)
		plan, err := NewPlan(app, cfg(), maxProcs, 0)
		if err != nil {
			t.Fatal(err)
		}
		c := plan.Cost()
		if c.Runs != 2*n-1 {
			t.Errorf("n=%d: runs = %d, want %d", n, c.Runs, 2*n-1)
		}
		if want := 1<<uint(n) + n - 2; c.Processors != want {
			t.Errorf("n=%d: processors = %d, want %d", n, c.Processors, want)
		}
		if c.Files != 2*n-1 {
			t.Errorf("n=%d: files = %d, want %d", n, c.Files, 2*n-1)
		}
		// The paper's headline: about half the processors of time+speedshop.
		existing := perftools.ExistingToolsCost(n)
		if 2*c.Processors > existing.Processors+2*n {
			t.Errorf("n=%d: Scal-Tool processors %d not ≈ half of %d", n, c.Processors, existing.Processors)
		}
	}
}

func TestPlanAddsOverflowSizesWhenNeeded(t *testing.T) {
	// Hydro2d's s0 ≈ 2.6× L2: its fractions don't overflow, so the plan
	// must extend above s0 (the paper's "3-4 data set sizes" for t2/tm).
	app, _ := apps.ByName("hydro2d")
	plan, err := NewPlan(app, cfg(), 32, 0)
	if err != nil {
		t.Fatal(err)
	}
	threshold := model.OverflowThreshold(cfg().L2.SizeBytes)
	overflow := 0
	for _, s := range append([]uint64{plan.S0}, plan.UniSizes...) {
		if s >= threshold {
			overflow++
		}
	}
	if overflow < 2 {
		t.Fatalf("plan has %d overflowing sizes, want ≥ 2 (%v)", overflow, plan.UniSizes)
	}
}

func TestNewPlanValidation(t *testing.T) {
	app, _ := apps.ByName("swim")
	if _, err := NewPlan(app, cfg(), 3, 0); err == nil {
		t.Error("non-power-of-two maxProcs accepted")
	}
	if _, err := NewPlan(app, cfg(), 0, 0); err == nil {
		t.Error("maxProcs=0 accepted")
	}
	plan, err := NewPlan(app, cfg(), 4, 123456)
	if err != nil || plan.S0 != 123456 {
		t.Fatalf("explicit s0 not honoured: %v %v", plan, err)
	}
}

func TestCampaignEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("full campaign")
	}
	c := cfg()
	app, _ := apps.ByName("swim")
	plan, err := NewPlan(app, c, 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	rn := &Runner{Cfg: c}
	res, err := rn.Run(app, plan)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.BaseRuns) != 4 {
		t.Fatalf("base runs = %d, want 4", len(res.BaseRuns))
	}
	for _, n := range plan.ProcCounts {
		if res.BaseRuns[n] == nil {
			t.Fatalf("missing base run at %d", n)
		}
		if res.SyncKernels[n] == nil {
			t.Fatalf("missing sync kernel at %d", n)
		}
	}
	if res.SpinKernel == nil {
		t.Fatal("missing spin kernel")
	}
	if len(res.UniRuns) < 3 {
		t.Fatalf("uniproc runs = %d", len(res.UniRuns))
	}

	m, err := res.Fit(model.DefaultOptions(c.L2.SizeBytes))
	if err != nil {
		t.Fatalf("Fit: %v", err)
	}
	// The model's MP estimate must track the speedshop ground truth. This
	// small (8-processor) campaign has a coarse uniprocessor curve, so the
	// band is ±20% of accumulated cycles; the full 32-processor campaigns
	// behind EXPERIMENTS.md hold ±10% (the paper reports 9–14%).
	measured := res.MeasuredMP()
	for _, bp := range m.Breakdown() {
		diff := math.Abs(bp.MP()-measured[bp.Procs]) / bp.Base
		if diff > 0.20 {
			t.Errorf("n=%d: model MP %.3g vs measured %.3g (%.0f%% of base)",
				bp.Procs, bp.MP(), measured[bp.Procs], 100*diff)
		}
	}
	// L2Lim must shrink as processors are added (Swim: vanishes quickly).
	bps := m.Breakdown()
	first, last := bps[0], bps[len(bps)-1]
	if first.L2Lim() <= 0 {
		t.Error("no caching-space effect at n=1 for an L2-overflowing data set")
	}
	if last.L2Lim() > 0.25*first.L2Lim() {
		t.Errorf("L2Lim did not shrink: %g → %g", first.L2Lim(), last.L2Lim())
	}
}

func TestCampaignDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("two campaigns")
	}
	c := cfg()
	app, _ := apps.ByName("hydro2d")
	plan, err := NewPlan(app, c, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	run := func(workers int) map[int]uint64 {
		rn := &Runner{Cfg: c, Workers: workers}
		res, err := rn.Run(app, plan)
		if err != nil {
			t.Fatal(err)
		}
		out := map[int]uint64{}
		for n, r := range res.BaseRuns {
			out[n] = r.Report.TotalCycles()
		}
		return out
	}
	a, b := run(1), run(8)
	for n := range a {
		if a[n] != b[n] {
			t.Fatalf("n=%d: cycles differ across worker counts: %d vs %d", n, a[n], b[n])
		}
	}
}

func TestRunnerRejectsBadConfig(t *testing.T) {
	app, _ := apps.ByName("swim")
	plan, _ := NewPlan(app, cfg(), 2, 0)
	rn := &Runner{Cfg: machine.Config{}}
	if _, err := rn.Run(app, plan); err == nil {
		t.Fatal("invalid machine accepted")
	}
}

func TestCampaignSkipsUnbuildableSizes(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign")
	}
	c := cfg()
	app, _ := apps.ByName("spmv") // refuses tiny sizes
	plan, err := NewPlan(app, c, 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Force an unbuildable fractional size into the plan.
	plan.UniSizes = append(plan.UniSizes, 256)
	rn := &Runner{Cfg: c}
	res, err := rn.Run(app, plan)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, s := range res.Skipped {
		if s == 256 {
			found = true
		}
	}
	if !found {
		t.Fatalf("skip list %v missing the unbuildable size", res.Skipped)
	}
	// The model still fits from the surviving runs.
	if _, err := res.Fit(model.DefaultOptions(c.L2.SizeBytes)); err != nil {
		t.Fatalf("fit after skips: %v", err)
	}
}

func TestFitSegmentSeparatesBottlenecks(t *testing.T) {
	if testing.Short() {
		t.Skip("full campaign")
	}
	c := cfg()
	app, _ := apps.ByName("t3dheat")
	plan, err := NewPlan(app, c, 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	rn := &Runner{Cfg: c}
	res, err := rn.Run(app, plan)
	if err != nil {
		t.Fatal(err)
	}
	opts := model.DefaultOptions(c.L2.SizeBytes)

	mv, err := res.FitSegment("matvec", opts)
	if err != nil {
		t.Fatalf("matvec segment: %v", err)
	}
	pcf, err := res.FitSegment("pcf_barrier", opts)
	if err != nil {
		t.Fatalf("pcf segment: %v", err)
	}
	// The matvec segment is memory-bound: substantial L2Lim at n=1.
	mvb := mv.Breakdown()
	if mvb[0].L2Lim() < 0.2*mvb[0].Base {
		t.Errorf("matvec L2Lim at n=1 = %.0f%% of base, want memory-bound",
			100*mvb[0].L2Lim()/mvb[0].Base)
	}
	// The pure-barrier segment has essentially no caching-space effect and
	// a far larger MP share than matvec at the top count.
	pb := pcf.Breakdown()
	last := len(pb) - 1
	if pb[last].MP()/pb[last].Base < 2*mvb[last].MP()/mvb[last].Base {
		t.Errorf("barrier segment MP share %.0f%% not dominating matvec's %.0f%%",
			100*pb[last].MP()/pb[last].Base, 100*mvb[last].MP()/mvb[last].Base)
	}

	if _, err := res.FitSegment("no-such-region", opts); err == nil {
		t.Error("unknown segment accepted")
	}
}
