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
	"scaltool/internal/journal"
	"scaltool/internal/model"
	"scaltool/internal/obs"
)

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
// directory in each older journal format (the snapshot layout, rotated
// segments, and the single segment every earlier one-file journal wrote)
// and requires a refusal that names the offending file, with every file in
// the directory left byte-unchanged.
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
		"single segment": {
			"wal-0000000000000001.seg": "any bytes",
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
			if got := dirBytes(t, dir); !reflect.DeepEqual(got, files) {
				t.Fatalf("refused directory changed:\n got %q\nwant %q", got, files)
			}
		})
	}
}

// TestUnknownRecordTypeRefused writes a journal in the current format whose
// second record is an "attempt", a type only older binaries wrote, and
// requires Resume and ExecuteDurable to refuse it with an error naming the
// record's sequence number and type, leaving the journal byte-unchanged.
func TestUnknownRecordTypeRefused(t *testing.T) {
	app, plan := resumePlan(t, 4)
	dir := t.TempDir()
	j, _, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	start, err := json.Marshal(event{Type: evStart, App: plan.App, Machine: cfg().Name, Plan: &plan})
	if err != nil {
		t.Fatal(err)
	}
	run := RunID("base", 2, plan.S0)
	attempt := fmt.Sprintf(`{"type":"attempt","run":%q,"kind":"base","procs":2,"size":%d}`, run, plan.S0)
	for _, data := range [][]byte{start, []byte(attempt)} {
		if _, err := j.Append(data); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	before := dirBytes(t, dir)

	rn := &Runner{Cfg: cfg()}
	_, rerr := rn.Resume(context.Background(), DurableOptions{Dir: dir})
	_, eerr := rn.ExecuteDurable(context.Background(), app, plan, DurableOptions{Dir: dir})
	for _, err := range []error{rerr, eerr} {
		if err == nil || !strings.Contains(err.Error(), "record 2") || !strings.Contains(err.Error(), `"attempt"`) {
			t.Fatalf("journal with an attempt record: %v, want a refusal naming record 2 and its type", err)
		}
	}
	if got := dirBytes(t, dir); !reflect.DeepEqual(got, before) {
		t.Fatal("refused journal changed")
	}
}

// dirBytes maps each file in dir to its contents.
func dirBytes(t *testing.T, dir string) map[string]string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]string{}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		got[e.Name()] = string(data)
	}
	return got
}
