package campaign

import (
	"context"
	"reflect"
	"strings"
	"testing"
	"time"

	"scaltool/internal/apps"
	"scaltool/internal/faultinject"
	"scaltool/internal/model"
	"scaltool/internal/obs"
)

// These are the kill-resume chaos drills of the durability issue: a campaign
// killed at EVERY journal operation — a clean crash before an append, a torn
// write halfway through one, a failed fsync — must resume to a byte-identical
// model breakdown, without re-executing the runs the journal already holds.
// The sweep discovers the campaign's total append count by itself: it keeps
// moving the crash point until a campaign completes without crashing.

// resumeOpts journals the sweep's campaign into dir.
func resumeOpts(dir string) DurableOptions {
	return DurableOptions{Dir: dir}
}

// resumePlan is a swim campaign up to maxProcs processors. At 4 it is the
// sweep's campaign: small enough that a full crash-point sweep stays fast,
// big enough to have critical runs, kernels, and skips.
func resumePlan(t *testing.T, maxProcs int) (apps.App, Plan) {
	t.Helper()
	app, err := apps.ByName("swim")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := NewPlan(app, cfg(), maxProcs, 0)
	if err != nil {
		t.Fatal(err)
	}
	return app, plan
}

// resumeRunner builds the sweep's runner, injecting the spec's journal
// fault at the sweep's current point.
func resumeRunner(spec faultinject.Spec) *Runner {
	return &Runner{Cfg: cfg(), Inject: faultinject.New(spec)}
}

func baseResumeSpec() faultinject.Spec {
	return faultinject.Spec{Seed: 42}
}

func fitBreakdown(t *testing.T, res *Result) []model.BreakdownPoint {
	t.Helper()
	m, err := res.Fit(model.DefaultOptions(cfg().L2.SizeBytes))
	if err != nil {
		t.Fatalf("fit: %v", err)
	}
	return m.Breakdown()
}

// referenceBreakdown runs the uninterrupted durable campaign once and also
// cross-checks that journaling changed nothing versus plain Execute.
func referenceBreakdown(t *testing.T, app apps.App, plan Plan) []model.BreakdownPoint {
	t.Helper()
	rn := resumeRunner(baseResumeSpec())
	res, err := rn.ExecuteDurable(context.Background(), app, plan, resumeOpts(t.TempDir()))
	if err != nil {
		t.Fatalf("uninterrupted durable campaign: %v", err)
	}
	defer res.CloseJournal()
	ref := fitBreakdown(t, res)

	plain, err := resumeRunner(baseResumeSpec()).Execute(context.Background(), app, plan)
	if err != nil {
		t.Fatalf("plain campaign: %v", err)
	}
	if !reflect.DeepEqual(ref, fitBreakdown(t, plain)) {
		t.Fatal("durable campaign's breakdown differs from plain Execute's")
	}
	return ref
}

// journalFault names the journal operation a sweep fails: an append
// before it writes, an append halfway through its frame, or an fsync.
type journalFault string

const (
	faultCrash journalFault = "crash"
	faultTorn  journalFault = "torn"
	faultFsync journalFault = "fsync"
)

// sweepResume kills a campaign at journal operation n = 1, 2, 3, … with the
// given fault kind, resumes each corpse, and requires the resumed breakdown
// to equal the uninterrupted one exactly. The sweep ends at the first n the
// campaign outruns.
func sweepResume(t *testing.T, kind journalFault) {
	if testing.Short() {
		t.Skip("a campaign per journal operation")
	}
	app, plan := resumePlan(t, 4)
	ref := referenceBreakdown(t, app, plan)

	crashed := 0
	for n := uint64(1); ; n++ {
		if n > 500 {
			t.Fatalf("crash sweep did not terminate after %d points", n-1)
		}
		spec := baseResumeSpec()
		switch kind {
		case faultCrash:
			spec.CrashAppend = n
		case faultTorn:
			spec.TornAppend = n
		case faultFsync:
			spec.FsyncFail = n
		default:
			t.Fatalf("unknown sweep kind %q", kind)
		}
		dir := t.TempDir()
		res, err := resumeRunner(spec).ExecuteDurable(context.Background(), app, plan, resumeOpts(dir))
		if err == nil {
			// The fault point lies beyond the campaign's total journal
			// operations: the sweep covered every one of them.
			got := fitBreakdown(t, res)
			res.CloseJournal()
			if !reflect.DeepEqual(ref, got) {
				t.Fatalf("crash point %d: campaign that outran the fault differs from reference", n)
			}
			if crashed == 0 {
				t.Fatal("sweep never injected a fault; campaign journals nothing?")
			}
			t.Logf("swept %d %s points", crashed, kind)
			return
		}
		if !strings.Contains(err.Error(), "injected") {
			t.Fatalf("%s point %d: campaign died of the wrong cause: %v", kind, n, err)
		}
		crashed++

		// Count what the journal durably holds, so the resume can be checked
		// against it: completed runs must be replayed, never re-executed.
		// This first open is also the one that recovers the torn tail, so it
		// shares the metrics registry the assertions below read.
		mt := obs.NewMetrics()
		ctx := obs.NewContext(context.Background(), &obs.Observer{Metrics: mt})
		clean := resumeRunner(baseResumeSpec())
		pre, err := clean.openDurable(ctx, resumeOpts(dir))
		if err != nil {
			t.Fatalf("%s point %d: reopening crashed journal: %v", kind, n, err)
		}
		completed := len(pre.terminal)
		hadStart := pre.start != nil
		if err := pre.close(); err != nil {
			t.Fatalf("%s point %d: closing inspection handle: %v", kind, n, err)
		}

		var resumed *Result
		if hadStart {
			resumed, err = clean.Resume(ctx, resumeOpts(dir))
		} else {
			// The crash hit the very first append: the journal never learned
			// what campaign it holds, and Resume must say so rather than
			// guess. The operator's recovery is a fresh durable start, which
			// the (empty) journal directory accepts.
			if _, rerr := clean.Resume(ctx, resumeOpts(dir)); rerr == nil ||
				!strings.Contains(rerr.Error(), "nothing to resume") {
				t.Fatalf("%s point %d: resume of start-less journal: %v", kind, n, rerr)
			}
			resumed, err = clean.ExecuteDurable(ctx, app, plan, resumeOpts(dir))
		}
		if err != nil {
			t.Fatalf("%s point %d: resume: %v", kind, n, err)
		}
		if resumed.Resumed != completed {
			t.Fatalf("%s point %d: resumed %d runs, journal held %d terminal events",
				kind, n, resumed.Resumed, completed)
		}
		if completed > 0 {
			if v := mt.Counter("scaltool_journal_replayed_runs_total", "").Value(); v != uint64(completed) {
				t.Fatalf("%s point %d: replayed-runs metric %d, want %d", kind, n, v, completed)
			}
		}
		got := fitBreakdown(t, resumed)
		if err := resumed.CloseJournal(); err != nil {
			t.Fatalf("%s point %d: closing resumed journal: %v", kind, n, err)
		}
		if !reflect.DeepEqual(ref, got) {
			t.Fatalf("%s point %d: resumed breakdown differs from the uninterrupted campaign's\nref: %+v\ngot: %+v",
				kind, n, ref, got)
		}
		if kind == faultTorn {
			if v := mt.Counter("scaltool_journal_torn_tail_truncations_total", "").Value(); v == 0 {
				t.Fatalf("torn point %d: resume truncated no torn tail", n)
			}
		}
	}
}

// TestChaosCrashResumeInvariant kills the campaign cleanly before every
// journal append in turn and requires byte-identical resume.
func TestChaosCrashResumeInvariant(t *testing.T) { sweepResume(t, faultCrash) }

// TestChaosTornWriteResumeInvariant tears every journal append in turn —
// half the record's frame reaches the file — and requires the journal to
// truncate the torn tail and resume byte-identically.
func TestChaosTornWriteResumeInvariant(t *testing.T) { sweepResume(t, faultTorn) }

// TestChaosFsyncFailResumeInvariant fails every journal fsync in turn. The
// record may or may not be durable — both are legal crash states — and
// either way the resume must reproduce the reference breakdown.
func TestChaosFsyncFailResumeInvariant(t *testing.T) { sweepResume(t, faultFsync) }

// TestChaosResumeAfterCancel stops a durable campaign through its context
// — a cancel before dispatch (the graceful-shutdown path) and a deadline
// that fires inside a run — and checks the stopped runs were NOT journaled
// as permanent failures: the resume re-runs them and still reproduces the
// reference breakdown.
func TestChaosResumeAfterCancel(t *testing.T) {
	if testing.Short() {
		t.Skip("three campaigns per case")
	}
	t.Run("cancel", func(t *testing.T) {
		app, plan := resumePlan(t, 4)
		ref := referenceBreakdown(t, app, plan)
		ctx, cancel := context.WithCancel(context.Background())
		cancel() // canceled before dispatch: every run is either unstarted or reaped
		dir := t.TempDir()
		stopDurable(t, ctx, app, plan, 2, dir)
		resumeMatches(t, dir, ref)
	})
	t.Run("deadline", func(t *testing.T) {
		// One worker runs the swim p32 campaign serially in over 100 ms, so
		// a 5 ms deadline fires inside one of its first runs: the critical
		// uniprocessor base run, or a run soon after it. A host that spends
		// the deadline before the first run starts (opening the journal
		// under -race) retries with the deadline doubled.
		app, plan := resumePlan(t, 32)
		ref := referenceBreakdown(t, app, plan)
		for timeout := 5 * time.Millisecond; ; timeout *= 2 {
			if timeout > 80*time.Millisecond {
				t.Fatal("no deadline up to 80 ms fired after a run started")
			}
			mt := obs.NewMetrics()
			ctx, cancel := context.WithTimeout(obs.NewContext(context.Background(), &obs.Observer{Metrics: mt}), timeout)
			dir := t.TempDir()
			stopDurable(t, ctx, app, plan, 1, dir)
			cancel()
			if mt.Counter("scaltool_campaign_runs_started_total", "").Value() > 0 {
				resumeMatches(t, dir, ref)
				return
			}
		}
	})
}

// stopDurable runs a durable campaign into dir under a context that stops
// it, and requires that it did not succeed.
func stopDurable(t *testing.T, ctx context.Context, app apps.App, plan Plan, workers int, dir string) {
	t.Helper()
	rn := resumeRunner(baseResumeSpec())
	rn.Workers = workers
	if _, err := rn.ExecuteDurable(ctx, app, plan, resumeOpts(dir)); err == nil {
		t.Fatal("stopped campaign reported success")
	}
}

// resumeMatches resumes the stopped campaign in dir and requires no
// permanent failure and the reference breakdown.
func resumeMatches(t *testing.T, dir string, ref []model.BreakdownPoint) {
	t.Helper()
	resumed, err := resumeRunner(baseResumeSpec()).Resume(context.Background(), resumeOpts(dir))
	if err != nil {
		t.Fatalf("resume after the stop: %v", err)
	}
	if len(resumed.Health.Failed) != 0 {
		t.Fatalf("the stop leaked permanent failures into the journal: %+v", resumed.Health.Failed)
	}
	got := fitBreakdown(t, resumed)
	if err := resumed.CloseJournal(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ref, got) {
		t.Fatal("resume after the stop differs from the uninterrupted campaign")
	}
}
