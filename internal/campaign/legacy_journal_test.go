package campaign

import (
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"

	"scaltool/internal/journal"
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
	app, plan := resumePlan(t)

	// The uninterrupted campaign under the spec's surviving keys, journaled
	// without snapshots so every event is a record to copy.
	refDir := t.TempDir()
	res, err := resumeRunner(baseResumeSpec()).ExecuteDurable(context.Background(), app, plan,
		DurableOptions{Dir: refDir, SnapshotEvery: -1})
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
