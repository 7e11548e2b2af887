package campaign

import (
	"context"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"scaltool/internal/apps"
	"scaltool/internal/faultinject"
	"scaltool/internal/health"
	"scaltool/internal/model"
	"scaltool/internal/obs"
	"scaltool/internal/sim"
)

// chaosTolerance bounds how far each breakdown component of a faulted
// report directory's fit may drift from the clean campaign's, as a fraction
// of the clean Base at that processor count. 2% multiplexing noise scaled
// by the two-counter sampling share (×√3 for 8 events) perturbs the miss
// counters by ~3.5%, and the quarantined uniprocessor point forces one
// coherence interpolation, so the bound is deliberately looser than the
// noise floor.
const chaosTolerance = 0.10

// fileID is the run identity of a result's report file: its RunID at the
// achieved data-set size, the name SaveReports writes and fault specs target.
func fileID(kind string, r *sim.Result) string {
	return RunID(kind, r.Report.Procs, r.Report.DataBytes)
}

// readDirBytes maps every file name in dir to its contents.
func readDirBytes(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]byte, len(entries))
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = data
	}
	return out
}

// TestChaosRoundTrip is the end-to-end fault drill at the boundary where
// untrusted reports enter: a campaign's report files written under seeded
// injection — counter noise everywhere, one poisoned (quarantined) file,
// one repairable skew — must load and fit via degraded fitting, report
// every repair and quarantine in the health report, and produce a
// breakdown within chaosTolerance of the clean campaign's.
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
	opts := model.DefaultOptions(c.L2.SizeBytes)

	clean, err := (&Runner{Cfg: c}).Run(app, plan)
	if err != nil {
		t.Fatal(err)
	}
	cleanModel, err := clean.Fit(opts)
	if err != nil {
		t.Fatal(err)
	}

	// Poison the second-largest fractional uniprocessor file and skew the
	// 2-processor base file.
	var uni []uint64
	for s, r := range clean.UniRuns {
		if r != clean.BaseRuns[1] {
			uni = append(uni, s)
		}
	}
	sort.Slice(uni, func(i, k int) bool { return uni[i] > uni[k] })
	poisonID := fileID("uni", clean.UniRuns[uni[1]])
	skewID := fileID("base", clean.BaseRuns[2])
	spec := faultinject.Spec{
		Seed:       42,
		Noise:      0.02,
		PoisonRuns: []string{poisonID},
		SkewRuns:   []string{skewID},
	}
	faulted := func(workers int) (string, *health.Report, *model.Model) {
		res, err := (&Runner{Cfg: c, Workers: workers}).Run(app, plan)
		if err != nil {
			t.Fatalf("campaign (workers=%d): %v", workers, err)
		}
		dir := t.TempDir()
		if _, err := res.SaveReports(dir, faultinject.New(spec)); err != nil {
			t.Fatal(err)
		}
		m, hr, err := FitDirTolerantContext(context.Background(), dir, opts)
		if err != nil {
			t.Fatalf("faulted fit (workers=%d) did not survive: %v", workers, err)
		}
		return dir, hr, m
	}
	dir, hr, m := faulted(1)

	// The health report enumerates what happened, by run identity.
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
		t.Error("health report claims a clean load")
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

	// Same seed, different worker count: byte-identical report directories,
	// identical health reports, identical breakdown — chaos is reproducible.
	dir4, hr4, m4 := faulted(4)
	if !reflect.DeepEqual(readDirBytes(t, dir), readDirBytes(t, dir4)) {
		t.Error("faulted report directories differ across worker counts")
	}
	if !reflect.DeepEqual(hr.Findings, hr4.Findings) {
		t.Errorf("findings differ across worker counts:\n%v\nvs\n%v", hr.Findings, hr4.Findings)
	}
	if !reflect.DeepEqual(hr.Quarantined, hr4.Quarantined) {
		t.Errorf("quarantine lists differ: %v vs %v", hr.Quarantined, hr4.Quarantined)
	}
	if !reflect.DeepEqual(m.Breakdown(), m4.Breakdown()) {
		t.Error("breakdowns differ across worker counts under identical faults")
	}
}

// TestChaosCriticalRunKillsCampaign checks that losing a report the model
// cannot fit without — here the uniprocessor base run's file, poisoned into
// quarantine — makes the fit refuse with model.ErrInsufficientInputs, naming
// the run, instead of producing a silently unusable model.
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
	res, err := (&Runner{Cfg: c}).Run(app, plan)
	if err != nil {
		t.Fatal(err)
	}
	critical := fileID("base", res.BaseRuns[1])
	dir := t.TempDir()
	in := faultinject.New(faultinject.Spec{Seed: 7, PoisonRuns: []string{critical}})
	if _, err := res.SaveReports(dir, in); err != nil {
		t.Fatal(err)
	}
	m, hr, err := FitDirTolerantContext(context.Background(), dir, model.DefaultOptions(c.L2.SizeBytes))
	if err == nil || m != nil {
		t.Fatalf("fit succeeded without its critical run: m=%v err=%v", m, err)
	}
	assertInsufficientRoundTrip(t, err, []string{critical})
	if got := hr.Quarantined; len(got) != 1 || got[0] != critical {
		t.Errorf("quarantined %v, want [%s]", got, critical)
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
// duration, the campaign context: a deadline that expires mid-campaign
// stops the runs in flight — no retry, no backoff — and the campaign fails
// promptly with a stop, not a failure: an error that wraps
// context.DeadlineExceeded as "campaign: canceled", never a critical run's,
// no run counted as failed, and exactly one latency per started run. The class must not depend on where
// the deadline lands, so the test holds plain and under -race alike.
func TestChaosRunTimeoutAbortsCampaign(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign")
	}
	c := cfg()
	app, _ := apps.ByName("swim")
	// One worker runs the 18-run p32 campaign serially in over 100 ms on a
	// 2-CPU VM, so a 5 ms deadline lands inside its first runs.
	plan, err := NewPlan(app, c, 32, 0)
	if err != nil {
		t.Fatal(err)
	}
	mt := obs.NewMetrics()
	ctx := obs.NewContext(context.Background(), &obs.Observer{Metrics: mt})
	ctx, cancel := context.WithTimeout(ctx, 5*time.Millisecond)
	defer cancel()
	start := time.Now()
	res, err := (&Runner{Cfg: c, Workers: 1}).Execute(ctx, app, plan)
	elapsed := time.Since(start)
	if err == nil || res != nil {
		t.Fatalf("campaign past its deadline: res=%v err=%v", res, err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("error %v does not wrap context.DeadlineExceeded", err)
	}
	if !strings.HasPrefix(err.Error(), "campaign: canceled") || strings.Contains(err.Error(), "critical run") {
		t.Errorf("error %q is not a campaign stop", err)
	}
	if failed := mt.Counter("scaltool_campaign_runs_failed_total", "").Value(); failed != 0 {
		t.Errorf("%d runs counted as failed by a deadline stop", failed)
	}
	started := mt.Counter("scaltool_campaign_runs_started_total", "").Value()
	timed := mt.Histogram("scaltool_campaign_run_seconds", "", obs.LatencyBuckets).Count()
	if timed != started {
		t.Errorf("%d run latencies for %d started runs; want exactly one each", timed, started)
	}
	if elapsed > 5*time.Second {
		t.Errorf("campaign took %v to stop on its deadline", elapsed)
	}
}
