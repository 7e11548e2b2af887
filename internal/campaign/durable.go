package campaign

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"

	"scaltool/internal/apps"
	"scaltool/internal/counters"
	"scaltool/internal/journal"
	"scaltool/internal/model"
	"scaltool/internal/obs"
	"scaltool/internal/sim"
)

// This file is the crash-safety layer: ExecuteDurable writes every campaign
// decision through a write-ahead journal (internal/journal) before applying
// it, and Resume replays that journal so a campaign killed at any point —
// including mid-record — picks up where it left off. The invariant (enforced
// by the chaos tests) is that crash + resume produces a byte-identical model
// breakdown to an uninterrupted campaign.
//
// WAL discipline: a run's terminal event (done/skip/fail) is appended to
// the journal BEFORE the run is recorded in the Result. If the append fails
// the run is not recorded and the campaign aborts; on resume the run simply
// executes again, and because the simulator is deterministic, re-execution
// reproduces the identical report. A run journals nothing before its
// terminal event, so a run in flight at the crash simply runs again.
//
// Replay reads only what this binary writes: journal.Open refuses every
// older journal format by its file names, and a record of any type but
// start, done, skip, fail or fit is refused by sequence number. The start
// event's fault spec is stored for the record, never re-parsed.

// Event types, in the order a run can emit them.
const (
	evStart = "start" // campaign identity: app, machine, plan, fault spec
	evDone  = "done"  // run accepted; Report is its counter report
	evSkip  = "skip"  // uniprocessor size below the app's grid
	evFail  = "fail"  // run dropped after a permanent failure
	evFit   = "fit"   // model fitted from this campaign's measurements
)

// event is one journal record. One struct covers every type; unused fields
// stay at their zero value and are elided from the JSON.
type event struct {
	Type string `json:"type"`

	// evStart.
	App     string `json:"app,omitempty"`
	Machine string `json:"machine,omitempty"`
	Plan    *Plan  `json:"plan,omitempty"`
	Spec    string `json:"spec,omitempty"`

	// Per-run events.
	Run    string              `json:"run,omitempty"`
	Kind   string              `json:"kind,omitempty"`
	Procs  int                 `json:"procs,omitempty"`
	Size   uint64              `json:"size,omitempty"`
	Reason string              `json:"reason,omitempty"`
	Report *counters.RunReport `json:"report,omitempty"`

	// evFit.
	Fit *fitSummary `json:"fit,omitempty"`
}

// fitSummary records the headline estimates of a completed fit, so a journal
// is a self-contained record of what the campaign concluded.
type fitSummary struct {
	CPI0     float64 `json:"cpi0"`
	T2       float64 `json:"t2"`
	Tm1      float64 `json:"tm1"`
	CpiImb   float64 `json:"cpi_imb"`
	Points   int     `json:"points"`
	Degraded bool    `json:"degraded"`
}

// DurableOptions configures ExecuteDurable and Resume.
type DurableOptions struct {
	// Dir is the journal directory. Required.
	Dir string
}

// durable is the campaign's journal handle plus the state replayed from it
// on open.
type durable struct {
	j        *journal.Journal
	start    *event
	terminal map[string]event // run identity → its journaled terminal event
}

// openDurable opens (or creates) the journal and replays its records into
// the campaign start and each run's terminal event. A record of a type this
// binary does not write is refused, naming its sequence number.
func (rn *Runner) openDurable(ctx context.Context, opts DurableOptions) (*durable, error) {
	if opts.Dir == "" {
		return nil, fmt.Errorf("campaign: durable execution needs a journal directory")
	}
	j, open, err := journal.Open(opts.Dir, journal.Options{Hook: rn.Inject.Spec().JournalHook()})
	if err != nil {
		return nil, fmt.Errorf("campaign: opening journal: %w", err)
	}
	d := &durable{j: j, terminal: map[string]event{}}
	for _, rec := range open.Tail {
		var ev event
		if err := json.Unmarshal(rec.Data, &ev); err != nil {
			_ = j.Close()
			return nil, fmt.Errorf("campaign: journal record %d is not an event: %w", rec.Seq, err)
		}
		switch ev.Type {
		case evStart:
			d.start = &ev
		case evDone, evSkip, evFail:
			d.terminal[ev.Run] = ev
		case evFit: // the campaign's conclusion, kept for the record; nothing to replay
		default:
			_ = j.Close()
			return nil, fmt.Errorf("campaign: journal record %d has type %q, which this binary does not write", rec.Seq, ev.Type)
		}
	}
	if mt := obs.Meter(ctx); mt != nil && open.TornBytes > 0 {
		mt.Counter("scaltool_journal_torn_tail_truncations_total",
			"torn journal tails truncated during recovery").Inc()
	}
	if open.TornBytes > 0 {
		obs.Log(ctx).Warn("journal: torn tail truncated on open", "dir", opts.Dir, "bytes", open.TornBytes)
	}
	return d, nil
}

// record appends one event to the journal. Any failure (an injected crash
// point or a real I/O error) leaves the event unapplied; the caller must
// abort the campaign so resume re-derives the state.
func (d *durable) record(ctx context.Context, ev event) error {
	data, err := json.Marshal(ev)
	if err != nil {
		return fmt.Errorf("campaign: encoding %s event: %w", ev.Type, err)
	}
	if _, err := d.j.Append(data); err != nil {
		return fmt.Errorf("campaign: journaling %s event: %w", ev.Type, err)
	}
	if mt := obs.Meter(ctx); mt != nil {
		mt.Counter("scaltool_journal_appends_total", "journal records appended").Inc()
		mt.Counter("scaltool_journal_bytes_total", "journal bytes appended, framed").Add(uint64(journal.AppendedBytes(data)))
	}
	return nil
}

// closeOnError closes the journal when the function that owns it returns an
// error, through *err; on success the journal stays open for the Result.
// Every owner defers it, so no error path can leak the file.
func (d *durable) closeOnError(err *error) {
	if *err != nil {
		_ = d.close()
	}
}

// close flushes and closes the journal. Idempotent, and a no-op on nil.
func (d *durable) close() error {
	if d == nil {
		return nil
	}
	return d.j.Close()
}

// ExecuteDurable is Execute with a write-ahead journal under opts.Dir: the
// campaign start and every run's outcome are journaled before they take
// effect. A campaign killed at any point — even mid-append — is
// resumable with Resume, to a byte-identical model breakdown. The directory
// must be empty or hold only journal bookkeeping from a previous Open;
// resuming an interrupted campaign through ExecuteDurable is refused, so a
// stale -journal-dir cannot be silently overwritten.
//
// On success the journal is left open so Result.RecordFit can append the fit
// event; call Result.CloseJournal when done. On error the journal is closed.
func (rn *Runner) ExecuteDurable(ctx context.Context, app apps.App, plan Plan, opts DurableOptions) (_ *Result, err error) {
	d, err := rn.openDurable(ctx, opts)
	if err != nil {
		return nil, err
	}
	defer d.closeOnError(&err)
	if d.start != nil {
		return nil, fmt.Errorf("campaign: journal %s already holds campaign %q; use Resume (or a fresh directory)", opts.Dir, d.start.App)
	}
	if err := d.record(ctx, event{Type: evStart, App: plan.App, Machine: rn.Cfg.Name, Plan: &plan, Spec: rn.Inject.Spec().String()}); err != nil {
		return nil, err
	}
	return rn.execute(ctx, app, plan, d)
}

// Resume replays the journal under opts.Dir and continues the interrupted
// campaign: runs with a journaled terminal event are restored without
// re-execution (Result.Resumed counts them), and in-flight runs and
// everything not yet started run normally. The runner's machine must match
// the journaled campaign's.
func (rn *Runner) Resume(ctx context.Context, opts DurableOptions) (_ *Result, err error) {
	d, err := rn.openDurable(ctx, opts)
	if err != nil {
		return nil, err
	}
	defer d.closeOnError(&err)
	if d.start == nil {
		return nil, fmt.Errorf("campaign: journal %s records no campaign start; nothing to resume", opts.Dir)
	}
	st := *d.start
	if st.Plan == nil {
		return nil, fmt.Errorf("campaign: journal %s start event carries no plan", opts.Dir)
	}
	app, err := apps.ByName(st.App)
	if err != nil {
		return nil, fmt.Errorf("campaign: resuming journal %s: %w", opts.Dir, err)
	}
	if st.Machine != rn.Cfg.Name {
		return nil, fmt.Errorf("campaign: journal %s was recorded on machine %q, runner is configured for %q",
			opts.Dir, st.Machine, rn.Cfg.Name)
	}
	return rn.execute(ctx, app, *st.Plan, d)
}

// replay restores one journaled terminal event into the Result, mirroring
// exactly what accept/fail/skip did in the interrupted campaign. Returns an
// error only when the replayed outcome was campaign-killing (a critical run
// failed), which aborts the resume the same way the original campaign
// aborted.
func (ex *executor) replay(ctx context.Context, j job, ev event) error {
	switch ev.Type {
	case evDone:
		if ev.Report == nil {
			return fmt.Errorf("campaign: journal done event for %s carries no report", j.id)
		}
		out := &sim.Result{
			MachineName: ex.rn.Cfg.Name,
			Procs:       ev.Report.Procs,
			DataBytes:   ev.Report.DataBytes,
			WallCycles:  counters.ToFloat(ev.Report.WallCycles),
			Report:      *ev.Report,
		}
		ex.record(j, out)
	case evSkip:
		ex.mu.Lock()
		ex.res.Skipped = append(ex.res.Skipped, j.Size)
		ex.mu.Unlock()
	case evFail:
		ex.res.Health.AddFailure(j.id, errors.New(ev.Reason))
		if criticalJob(j) {
			return fmt.Errorf("campaign: critical run %s failed permanently (replayed): %s", j.id, ev.Reason)
		}
	}
	obs.Log(ctx).Debug("run replayed from journal", "run", j.id, "outcome", ev.Type)
	return nil
}

// RecordFit appends the fit's headline estimates to the campaign journal, so
// the journal is a complete record: plan, every run outcome, and the model
// the campaign concluded with. No-op (and nil error) on a non-durable
// Result or a closed journal.
func (r *Result) RecordFit(ctx context.Context, m *model.Model) error {
	if r.dur == nil || m == nil {
		return nil
	}
	err := r.dur.record(ctx, event{Type: evFit, Fit: &fitSummary{
		CPI0:     m.CPI0,
		T2:       m.T2,
		Tm1:      m.Tm1,
		CpiImb:   m.CpiImb,
		Points:   len(m.Points),
		Degraded: m.Degradation.Degraded,
	}})
	if errors.Is(err, journal.ErrClosed) {
		return nil
	}
	return err
}

// CloseJournal flushes and closes the campaign journal. Safe to call on a
// non-durable Result and safe to call twice.
func (r *Result) CloseJournal() error {
	if r == nil {
		return nil
	}
	return r.dur.close()
}
