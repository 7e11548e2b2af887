package campaign

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"scaltool/internal/apps"
	"scaltool/internal/model"
	"scaltool/internal/obs"
	"scaltool/internal/recipe"
	"scaltool/internal/runcache"
)

// TestRecipeTableReplaysSkips: a campaign whose keys and build errors come
// from the recipe table journals the same skip events, with the same
// reasons, as the campaign that first built them — and, with the run cache
// warm, builds nothing at all.
func TestRecipeTableReplaysSkips(t *testing.T) {
	app := apps.NewSwim()
	app.Params.Steps = 2 // recipes unique to this test
	// s0 = 4 KiB over 16 processors: the smallest fractions fall below
	// swim's 4×4 grid and are skipped.
	plan, err := NewPlan(app, cfg(), 16, 4096)
	if err != nil {
		t.Fatal(err)
	}
	rn := &Runner{Cfg: cfg(), Workers: 2, Cache: runcache.New(runcache.Options{})}
	campaign := func() (skips map[string]string, builds uint64) {
		mt := obs.NewMetrics()
		ctx := obs.NewContext(context.Background(), &obs.Observer{Metrics: mt})
		dir := t.TempDir()
		res, err := rn.ExecuteDurable(ctx, app, plan, DurableOptions{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		if err := res.CloseJournal(); err != nil {
			t.Fatal(err)
		}
		d, err := rn.openDurable(context.Background(), DurableOptions{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		defer d.close()
		skips = map[string]string{}
		for id, ev := range d.terminal {
			if ev.Type == evSkip {
				skips[id] = ev.Reason
			}
		}
		for _, c := range []string{recipe.CauseRecipe, recipe.CauseMiss} {
			builds += mt.Counter("scaltool_program_builds_total", "", "cause", c).Value()
		}
		return skips, builds
	}

	first, coldBuilds := campaign()
	if len(first) == 0 {
		t.Fatal("the plan skipped nothing; the test needs sizes below the grid")
	}
	if coldBuilds == 0 {
		t.Fatal("the first campaign built nothing; its recipes were not new")
	}
	for id := range first {
		var size uint64
		for _, s := range plan.UniSizes {
			if RunID("uni", 1, s) == id {
				size = s
			}
		}
		if _, err := app.Build(cfg(), 1, size); err == nil || err.Error() != first[id] {
			t.Fatalf("%s journaled skip reason %q, a fresh build says %v", id, first[id], err)
		}
	}
	second, warmBuilds := campaign()
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("skip events differ once served from the table:\n first  %v\n second %v", first, second)
	}
	if warmBuilds != 0 {
		t.Fatalf("the warm campaign built %d programs, want 0", warmBuilds)
	}
}

// TestNewPlanCountsAchievedOverflow is the regression for hydro2d at
// s0 = 201523: s0/2 is requested above the 1.5×L2 overflow threshold, but
// hydro2d's grid quantizes it below, so the plan must add a larger size
// or the fit has a single overflowing point.
func TestNewPlanCountsAchievedOverflow(t *testing.T) {
	app, err := apps.ByName("hydro2d")
	if err != nil {
		t.Fatal(err)
	}
	c := cfg()
	threshold := model.OverflowThreshold(c.L2.SizeBytes)
	plan, err := NewPlan(app, c, 32, 201523)
	if err != nil {
		t.Fatal(err)
	}
	overflow := 0
	for _, s := range append([]uint64{plan.S0}, plan.UniSizes...) {
		prog, err := app.Build(c, 1, s)
		if err != nil {
			continue
		}
		if got := app.(Sizer).AchievedBytes(c, s); got != prog.DataBytes {
			t.Fatalf("size %d: AchievedBytes %d, Build achieves %d", s, got, prog.DataBytes)
		}
		if prog.DataBytes >= threshold {
			overflow++
		}
	}
	if overflow < 2 {
		t.Fatalf("plan %v achieves %d L2-overflowing sizes, want ≥ 2", plan.UniSizes, overflow)
	}
}

// TestCorruptSpillIsBuiltInsideTheLookup: every run's spill file exists
// but fails its integrity check on load, and the recipe table is warm, so
// no job has a program when its lookup starts. Each lookup's leader must
// build the program once — one miss build per run — and the campaign must
// finish with the same results as a clean one.
func TestCorruptSpillIsBuiltInsideTheLookup(t *testing.T) {
	app := apps.NewSwim()
	app.Params.Steps = 3 // recipes unique to this test
	plan, err := NewPlan(app, cfg(), 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	rn := &Runner{Cfg: cfg(), Workers: 2, Cache: runcache.New(runcache.Options{SpillDir: dir})}
	ex := &executor{rn: rn, app: app}
	jobs := 0
	for _, j := range plan.Jobs() {
		e, _ := recipe.Default.Resolve(context.Background(), ex.recipe(job{Job: j}))
		if e.Err != nil {
			continue
		}
		jobs++
		if err := os.WriteFile(filepath.Join(dir, e.Key.String()+".spill"), []byte("not a spill frame"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	mt := obs.NewMetrics()
	ctx := obs.NewContext(context.Background(), &obs.Observer{Metrics: mt})
	res, err := rn.Execute(ctx, app, plan)
	if err != nil {
		t.Fatalf("campaign over corrupt spill files failed: %v", err)
	}
	if got := mt.Counter("scaltool_program_builds_total", "", "cause", recipe.CauseMiss).Value(); got != uint64(jobs) {
		t.Fatalf("%d miss builds, want one per run (%d)", got, jobs)
	}
	if got := mt.RuncacheCorrupt("header").Value(); got != uint64(jobs) {
		t.Fatalf("%d spill files refused, want one per run (%d)", got, jobs)
	}
	clean, err := (&Runner{Cfg: cfg(), Workers: 2}).Execute(context.Background(), app, plan)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fitBreakdown(t, res), fitBreakdown(t, clean)) {
		t.Fatal("results differ from a campaign without the cache")
	}
}

// TestConcurrentColdCampaignsBuildOncePerRun: cold campaigns that start
// together on one cache share each run's lookup, so a run-cache miss builds
// a program at most once per run however many campaigns need it.
func TestConcurrentColdCampaignsBuildOncePerRun(t *testing.T) {
	app := apps.NewSwim()
	app.Params.Steps = 5 // recipes unique to this test
	plan, err := NewPlan(app, cfg(), 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	rn := &Runner{Cfg: cfg(), Workers: 2, Cache: runcache.New(runcache.Options{})}
	mt := obs.NewMetrics()
	ctx := obs.NewContext(context.Background(), &obs.Observer{Metrics: mt})
	const campaigns = 4
	results := make([]*Result, campaigns)
	errs := make([]error, campaigns)
	var wg sync.WaitGroup
	for i := range campaigns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], errs[i] = rn.Execute(ctx, app, plan)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("campaign %d: %v", i, err)
		}
	}
	runs := len(plan.Jobs()) - len(results[0].Skipped)
	if got := mt.Counter("scaltool_program_builds_total", "", "cause", recipe.CauseMiss).Value(); got > uint64(runs) {
		t.Fatalf("%d concurrent campaigns made %d miss builds, want at most one per run (%d)", campaigns, got, runs)
	}
	want := fitBreakdown(t, results[0])
	for i, res := range results[1:] {
		if !reflect.DeepEqual(fitBreakdown(t, res), want) {
			t.Fatalf("campaign %d's results differ from campaign 0's", i+1)
		}
	}
}
