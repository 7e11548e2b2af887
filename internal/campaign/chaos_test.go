package campaign

import (
	"context"
	"errors"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"scaltool/internal/apps"
	"scaltool/internal/faultinject"
	"scaltool/internal/health"
	"scaltool/internal/model"
	"scaltool/internal/obs"
)

// chaosTolerance bounds how far each breakdown component of a faulted
// campaign may drift from the clean campaign's, as a fraction of the clean
// Base at that processor count. 2% multiplexing noise scaled by the
// two-counter sampling share (×√3 for 8 events) perturbs the miss counters
// by ~3.5%, and the quarantined uniprocessor point forces one coherence
// interpolation, so the bound is deliberately looser than the noise floor.
const chaosTolerance = 0.10

// TestChaosRoundTrip is the end-to-end fault drill: a campaign under seeded
// injection — counter noise everywhere, one poisoned (quarantined) run, one
// repairable skew — must complete via degraded fitting, report every
// repair and quarantine in the health report, and produce a breakdown
// within chaosTolerance of the clean campaign's.
func TestChaosRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("three campaigns")
	}
	c := cfg()
	app, _ := apps.ByName("hydro2d")
	plan, err := NewPlan(app, c, 8, 0)
	if err != nil {
		t.Fatal(err)
	}

	clean, err := (&Runner{Cfg: c}).Run(app, plan)
	if err != nil {
		t.Fatal(err)
	}
	cleanModel, err := clean.Fit(model.DefaultOptions(c.L2.SizeBytes))
	if err != nil {
		t.Fatal(err)
	}

	poisonID := RunID("uni", 1, plan.UniSizes[1])
	skewID := RunID("base", 2, plan.S0)
	spec := faultinject.Spec{
		Seed:       42,
		Noise:      0.02,
		PoisonRuns: []string{poisonID},
		SkewRuns:   []string{skewID},
	}
	faulted := func(workers int) (*Result, *model.Model) {
		rn := &Runner{Cfg: c, Workers: workers, Inject: faultinject.New(spec)}
		res, err := rn.Run(app, plan)
		if err != nil {
			t.Fatalf("faulted campaign (workers=%d) did not survive: %v", workers, err)
		}
		m, err := res.Fit(model.DefaultOptions(c.L2.SizeBytes))
		if err != nil {
			t.Fatalf("faulted fit (workers=%d): %v", workers, err)
		}
		return res, m
	}
	res, m := faulted(1)

	// The health report enumerates what happened, by run identity.
	hr := res.Health
	if got := hr.Quarantined; len(got) != 1 || got[0] != poisonID {
		t.Errorf("quarantined %v, want [%s]", got, poisonID)
	}
	gotRepair := false
	for _, f := range hr.Findings {
		if f.Run == skewID && f.Severity == health.Repair {
			gotRepair = true
		}
	}
	if !gotRepair {
		t.Errorf("no repair recorded for the skewed run %s", skewID)
	}
	if len(hr.Failed) != 0 {
		t.Errorf("unexpected permanent failures: %v", hr.Failed)
	}
	if hr.Clean() {
		t.Error("health report claims a clean campaign")
	}

	// The fit knows it ran degraded and which run it lost.
	d := m.Degradation
	if !d.Degraded {
		t.Error("faulted fit not marked degraded")
	}
	if len(d.DroppedRuns) != 1 || d.DroppedRuns[0] != poisonID {
		t.Errorf("Degradation.DroppedRuns = %v, want [%s]", d.DroppedRuns, poisonID)
	}

	// Every breakdown component stays within tolerance of the clean run.
	cb, fb := cleanModel.Breakdown(), m.Breakdown()
	if len(cb) != len(fb) {
		t.Fatalf("breakdown lengths differ: %d vs %d", len(cb), len(fb))
	}
	for i := range cb {
		comp := func(name string, cv, fv float64) {
			if diff := math.Abs(fv-cv) / cb[i].Base; diff > chaosTolerance {
				t.Errorf("n=%d %s: clean %.4g vs faulted %.4g (%.1f%% of base)",
					cb[i].Procs, name, cv, fv, 100*diff)
			}
		}
		comp("Base", cb[i].Base, fb[i].Base)
		comp("L2Lim", cb[i].L2Lim(), fb[i].L2Lim())
		comp("Sync", cb[i].Sync, fb[i].Sync)
		comp("Imb", cb[i].Imb, fb[i].Imb)
	}

	// Same seed, different worker count: identical faults, identical health
	// trace, identical breakdown — chaos is reproducible.
	res2, m2 := faulted(4)
	hr2 := res2.Health
	if !reflect.DeepEqual(hr.Findings, hr2.Findings) {
		t.Errorf("findings differ across worker counts:\n%v\nvs\n%v", hr.Findings, hr2.Findings)
	}
	if !reflect.DeepEqual(hr.Quarantined, hr2.Quarantined) {
		t.Errorf("quarantine lists differ: %v vs %v", hr.Quarantined, hr2.Quarantined)
	}
	if !reflect.DeepEqual(m.Breakdown(), m2.Breakdown()) {
		t.Error("breakdowns differ across worker counts under identical faults")
	}
}

// TestChaosCriticalRunKillsCampaign checks that losing a run the model
// cannot fit without — here the uniprocessor base run, poisoned into
// quarantine — cancels the campaign promptly instead of producing a
// silently unusable result.
func TestChaosCriticalRunKillsCampaign(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign")
	}
	c := cfg()
	app, _ := apps.ByName("swim")
	plan, err := NewPlan(app, c, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	critical := RunID("base", 1, plan.S0)
	rn := &Runner{
		Cfg:    c,
		Inject: faultinject.New(faultinject.Spec{Seed: 7, PoisonRuns: []string{critical}}),
	}
	res, err := rn.Run(app, plan)
	if err == nil {
		t.Fatal("campaign succeeded without its critical run")
	}
	if res != nil {
		t.Error("aborted campaign returned a Result")
	}
	if !strings.Contains(err.Error(), critical) || !strings.Contains(err.Error(), "quarantined") {
		t.Errorf("error %q does not name the quarantined critical run %s", err, critical)
	}
}

// TestChaosCancellation cancels the campaign context mid-flight and checks
// Execute returns promptly with a canceled error and leaks no workers.
func TestChaosCancellation(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign")
	}
	c := cfg()
	app, _ := apps.ByName("hydro2d")
	plan, err := NewPlan(app, c, 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	rn := &Runner{Cfg: c, Workers: 4}
	start := time.Now()
	_, err = rn.Execute(ctx, app, plan)
	elapsed := time.Since(start)
	if err == nil {
		// The campaign may legitimately win the race on a fast machine.
		t.Skip("campaign finished before the cancel")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v does not wrap context.Canceled", err)
	}
	if elapsed > 5*time.Second {
		t.Errorf("cancellation took %v", elapsed)
	}
	// Workers must drain: poll briefly for the goroutine count to settle.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutines leaked: %d before, %d after cancel", before, runtime.NumGoroutine())
}

// TestChaosRunTimeoutAbortsCampaign checks the one bound on a run's
// duration: a deadline no run can meet fails every run on its single
// attempt — no retry, no backoff — and the first critical run to fail
// aborts the campaign with an error that wraps context.DeadlineExceeded.
func TestChaosRunTimeoutAbortsCampaign(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign")
	}
	c := cfg()
	app, _ := apps.ByName("swim")
	plan, err := NewPlan(app, c, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	mt := obs.NewMetrics()
	ctx := obs.NewContext(context.Background(), &obs.Observer{Metrics: mt})
	start := time.Now()
	res, err := (&Runner{Cfg: c, RunTimeout: time.Nanosecond}).Execute(ctx, app, plan)
	elapsed := time.Since(start)
	if err == nil || res != nil {
		t.Fatalf("campaign with an unmeetable deadline: res=%v err=%v", res, err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("error %v does not wrap context.DeadlineExceeded", err)
	}
	if !strings.Contains(err.Error(), "critical run "+RunID("base", 1, plan.S0)) &&
		!strings.Contains(err.Error(), "critical run kspin_") {
		t.Errorf("error %q names neither critical run", err)
	}
	started := mt.Counter("scaltool_campaign_runs_started_total", "").Value()
	attempts := mt.Histogram("scaltool_campaign_attempt_seconds", "", obs.LatencyBuckets).Count()
	if attempts == 0 || attempts > started {
		t.Errorf("%d attempts for %d started runs; want at most one each", attempts, started)
	}
	if elapsed > 5*time.Second {
		t.Errorf("campaign took %v to fail every run on its deadline", elapsed)
	}
}
