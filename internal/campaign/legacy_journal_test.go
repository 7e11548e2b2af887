package campaign

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"scaltool/internal/apps"
	"scaltool/internal/health"
	"scaltool/internal/journal"
	"scaltool/internal/model"
	"scaltool/internal/obs"
)

// TestResumeLegacyRetryJournal resumes a journal written by a campaign that
// still had a retry loop: its start event records a fault spec with
// run-failure keys (transient=, failrun=) that no longer parse, and one run
// carries an attempt/retry/attempt sequence before its terminal event.
// Resume must ignore the retry events and the stale spec and reproduce the
// uninterrupted campaign's breakdown exactly. It fails if replay ever starts
// rejecting event types it does not know.
func TestResumeLegacyRetryJournal(t *testing.T) {
	if testing.Short() {
		t.Skip("two campaigns")
	}
	app, plan := resumePlan(t, 4)

	// The uninterrupted campaign under the spec's surviving keys; every
	// event it journals is a record to copy.
	refDir := t.TempDir()
	res, err := resumeRunner(baseResumeSpec()).ExecuteDurable(context.Background(), app, plan,
		DurableOptions{Dir: refDir})
	if err != nil {
		t.Fatal(err)
	}
	ref := fitBreakdown(t, res)
	if err := res.CloseJournal(); err != nil {
		t.Fatal(err)
	}
	j, open, err := journal.Open(refDir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	retried := RunID("base", 2, plan.S0)
	var start map[string]any
	var terminal [][]byte
	sawRetried, runs := false, 0
	for _, rec := range open.Tail {
		var ev event
		if err := json.Unmarshal(rec.Data, &ev); err != nil {
			t.Fatal(err)
		}
		switch ev.Type {
		case evStart:
			if err := json.Unmarshal(rec.Data, &start); err != nil {
				t.Fatal(err)
			}
		case evDone, evSkip, evQuarantine, evFail:
			// Keep part of the plan, always including the retried run.
			runs++
			if len(terminal) < 4 || ev.Run == retried {
				terminal = append(terminal, rec.Data)
				sawRetried = sawRetried || ev.Run == retried
			}
		}
	}
	if start == nil || !sawRetried || len(terminal) >= runs {
		t.Fatalf("reference journal: start=%v, %d of %d runs kept, %s among them: %v",
			start, len(terminal), runs, retried, sawRetried)
	}
	start["spec"] = "seed=42,noise=0.02,transient=0.1,failrun=" + retried

	legacyDir := t.TempDir()
	lj, _, err := journal.Open(legacyDir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	startData, err := json.Marshal(start)
	if err != nil {
		t.Fatal(err)
	}
	runFields := fmt.Sprintf(`"run":%q,"kind":"base","procs":2,"size":%d`, retried, plan.S0)
	records := [][]byte{
		startData,
		[]byte(`{"type":"attempt",` + runFields + `}`),
		[]byte(`{"type":"retry",` + runFields + `,"backoff_ns":87500000,"reason":"campaign: ` +
			retried + ` attempt 0: faultinject: transient run failure"}`),
		[]byte(`{"type":"attempt",` + runFields + `,"attempt":1}`),
	}
	for _, data := range append(records, terminal...) {
		if _, err := lj.Append(data); err != nil {
			t.Fatal(err)
		}
	}
	if err := lj.Close(); err != nil {
		t.Fatal(err)
	}

	resumed, err := resumeRunner(baseResumeSpec()).Resume(context.Background(), resumeOpts(legacyDir))
	if err != nil {
		t.Fatalf("resuming a journal with retry events: %v", err)
	}
	if resumed.Resumed != len(terminal) {
		t.Errorf("resumed %d runs, the journal holds %d terminal events", resumed.Resumed, len(terminal))
	}
	got := fitBreakdown(t, resumed)
	if err := resumed.CloseJournal(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ref, got) {
		t.Fatalf("legacy resume differs from the uninterrupted campaign\nref: %+v\ngot: %+v", ref, got)
	}
}

// TestDurableJournalIsOneFile runs the largest campaign any caller runs
// (procs 32) durably and requires its journal directory to hold exactly one
// file, which Resume replays into every run without simulating any. The
// file holds one record per decision: the start, one terminal record per
// planned job, and the fit.
func TestDurableJournalIsOneFile(t *testing.T) {
	if testing.Short() {
		t.Skip("a procs-32 campaign")
	}
	app, err := apps.ByName("swim")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := NewPlan(app, cfg(), 32, 0)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	res, err := (&Runner{Cfg: cfg()}).ExecuteDurable(context.Background(), app, plan, DurableOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	m, err := res.Fit(model.DefaultOptions(cfg().L2.SizeBytes))
	if err != nil {
		t.Fatal(err)
	}
	ref := m.Breakdown()
	if err := res.RecordFit(context.Background(), m); err != nil {
		t.Fatal(err)
	}
	if err := res.CloseJournal(); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		names := make([]string, len(entries))
		for i, e := range entries {
			names[i] = e.Name()
		}
		t.Fatalf("journal directory holds %v, want exactly one file", names)
	}

	jl, open, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := jl.Close(); err != nil {
		t.Fatal(err)
	}
	ended := map[string]bool{}
	for i, rec := range open.Tail {
		var ev event
		if err := json.Unmarshal(rec.Data, &ev); err != nil {
			t.Fatal(err)
		}
		switch {
		case i == 0 && ev.Type == evStart, i == len(open.Tail)-1 && ev.Type == evFit:
		case (ev.Type == evDone || ev.Type == evSkip) && !ended[ev.Run]:
			ended[ev.Run] = true
		default:
			t.Errorf("journal record %d is a %q record for run %q", i, ev.Type, ev.Run)
		}
	}
	jobs := plan.Jobs()
	for _, j := range jobs {
		if id := RunID(j.Kind.String(), j.Procs, j.Size); !ended[id] {
			t.Errorf("journal holds no terminal record for %s", id)
		}
	}
	if want := len(jobs) + 2; len(open.Tail) != want {
		t.Errorf("journal holds %d records, want %d: the start, one per job and the fit", len(open.Tail), want)
	}

	mt := obs.NewMetrics()
	ctx := obs.NewContext(context.Background(), &obs.Observer{Metrics: mt})
	resumed, err := (&Runner{Cfg: cfg()}).Resume(ctx, DurableOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	got := fitBreakdown(t, resumed)
	if err := resumed.CloseJournal(); err != nil {
		t.Fatal(err)
	}
	if resumed.Resumed != len(jobs) {
		t.Errorf("resume restored %d runs, the plan has %d", resumed.Resumed, len(jobs))
	}
	if n := mt.Counter("scaltool_sim_runs_total", "").Value(); n != 0 {
		t.Errorf("resume of a finished campaign simulated %d runs", n)
	}
	if !reflect.DeepEqual(ref, got) {
		t.Fatal("resumed breakdown differs from the uninterrupted campaign's")
	}
}

// TestLegacyLayoutRefused hands ExecuteDurable and Resume a journal
// directory in the older snapshot/segment layout and requires a refusal
// that names the offending file, with every file in the directory left
// byte-unchanged.
func TestLegacyLayoutRefused(t *testing.T) {
	app, plan := resumePlan(t, 4)
	layouts := map[string]map[string]string{
		"snapshot": {
			"snap-0000000000000009.snap": "compacted state",
			"wal-000000000000000a.seg":   "record tail",
		},
		"two segments": {
			"wal-0000000000000001.seg": "first segment",
			"wal-0000000000000005.seg": "second segment",
		},
	}
	for name, files := range layouts {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			for f, data := range files {
				if err := os.WriteFile(filepath.Join(dir, f), []byte(data), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			rn := resumeRunner(baseResumeSpec())
			_, rerr := rn.Resume(context.Background(), DurableOptions{Dir: dir})
			_, eerr := rn.ExecuteDurable(context.Background(), app, plan, DurableOptions{Dir: dir})
			for _, err := range []error{rerr, eerr} {
				if !errors.Is(err, journal.ErrLegacyLayout) || !strings.Contains(err.Error(), "older binary") {
					t.Fatalf("legacy layout not refused clearly: %v", err)
				}
			}
			got := map[string]string{}
			entries, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range entries {
				data, err := os.ReadFile(filepath.Join(dir, e.Name()))
				if err != nil {
					t.Fatal(err)
				}
				got[e.Name()] = string(data)
			}
			if !reflect.DeepEqual(got, files) {
				t.Fatalf("refused directory changed:\n got %q\nwant %q", got, files)
			}
		})
	}
}

// TestResumeLegacyQuarantineJournal resumes journals written when the
// campaign still sanitized simulator reports, so a run could end in a
// "quarantine" event instead of "done". Resume must restore the health
// report and dropped runs that binary reported, and a quarantined critical
// run must still abort the resume.
func TestResumeLegacyQuarantineJournal(t *testing.T) {
	if testing.Short() {
		t.Skip("a campaign")
	}
	app, plan := resumePlan(t, 4)
	refDir := t.TempDir()
	res, err := (&Runner{Cfg: cfg()}).ExecuteDurable(context.Background(), app, plan, DurableOptions{Dir: refDir})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.CloseJournal(); err != nil {
		t.Fatal(err)
	}
	j, open, err := journal.Open(refDir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// legacy copies the reference journal, with run's done event replaced
	// by the quarantine record an older binary wrote for a poisoned report.
	legacy := func(run string) (dir string, finding health.Finding, terminal int) {
		finding = health.Finding{Run: run, Check: "instructions", Severity: health.Quarantine,
			Detail: "proc 0 graduated no instructions"}
		dir = t.TempDir()
		lj, _, err := journal.Open(dir, journal.Options{})
		if err != nil {
			t.Fatal(err)
		}
		replaced := false
		for _, rec := range open.Tail {
			data := rec.Data
			var ev event
			if err := json.Unmarshal(data, &ev); err != nil {
				t.Fatal(err)
			}
			switch ev.Type {
			case evDone, evSkip, evFail:
				terminal++
			}
			if ev.Type == evDone && ev.Run == run {
				data = []byte(fmt.Sprintf(`{"type":"quarantine","run":%q,"kind":%q,"procs":%d,"size":%d,`+
					`"findings":[{"run":%q,"check":%q,"severity":"quarantine","detail":%q}]}`,
					run, ev.Kind, ev.Procs, ev.Size, run, finding.Check, finding.Detail))
				replaced = true
			}
			if _, err := lj.Append(data); err != nil {
				t.Fatal(err)
			}
		}
		if err := lj.Close(); err != nil {
			t.Fatal(err)
		}
		if !replaced {
			t.Fatalf("reference journal has no done event for %s", run)
		}
		return dir, finding, terminal
	}

	dropped := RunID("ksync", 2, 0)
	dir, finding, terminal := legacy(dropped)
	resumed, err := (&Runner{Cfg: cfg()}).Resume(context.Background(), DurableOptions{Dir: dir})
	if err != nil {
		t.Fatalf("resuming a journal with a quarantine event: %v", err)
	}
	defer resumed.CloseJournal()
	if resumed.Resumed != terminal {
		t.Errorf("resumed %d runs, the journal holds %d terminal events", resumed.Resumed, terminal)
	}
	if got := resumed.Health.Quarantined; !reflect.DeepEqual(got, []string{dropped}) {
		t.Errorf("Health.Quarantined = %v, want [%s]", got, dropped)
	}
	found := false
	for _, f := range resumed.Health.Findings {
		found = found || f == finding
	}
	if !found {
		t.Errorf("replayed health report lost the journaled finding %v: %v", finding, resumed.Health.Findings)
	}
	m, err := resumed.Fit(model.DefaultOptions(cfg().L2.SizeBytes))
	if err != nil {
		t.Fatalf("fit after replayed quarantine: %v", err)
	}
	if got := m.Degradation.DroppedRuns; !reflect.DeepEqual(got, []string{dropped}) {
		t.Errorf("Degradation.DroppedRuns = %v, want [%s]", got, dropped)
	}

	critical := RunID("base", 1, plan.S0)
	dir, _, _ = legacy(critical)
	if _, err := (&Runner{Cfg: cfg()}).Resume(context.Background(), DurableOptions{Dir: dir}); err == nil ||
		!strings.Contains(err.Error(), critical) || !strings.Contains(err.Error(), "quarantined") {
		t.Fatalf("resume over a quarantined critical run: %v, want an abort naming %s", err, critical)
	}
}
