package campaign

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"scaltool/internal/counters"
	"scaltool/internal/faultinject"
	"scaltool/internal/health"
	"scaltool/internal/model"
	"scaltool/internal/obs"
)

// This file closes the loop on Table 1's "files" column: each run's counter
// report is one JSON file, a whole campaign is a directory of 2n−1 of them
// (plus the shared kernel files), and the model can be fitted straight from
// such a directory — the workflow a real Scal-Tool user would have, where
// measurement and analysis happen on different days or machines.

// fileName builds the canonical report file name for a run (its RunID, at
// the achieved data-set size, plus the JSON suffix).
func fileName(kind string, procs int, size uint64) string {
	return RunID(kind, procs, size) + ".json"
}

// SaveReports writes every counter report of the campaign into dir (created
// if needed). It returns the number of files written. A non-nil injector
// applies its report faults on the way out — each report through
// PerturbReport, keyed by its file's run identity, and its bytes through
// MangleFile — since report files are where untrusted measurements enter
// the model; nil writes the reports as measured.
func (r *Result) SaveReports(dir string, in *faultinject.Injector) (int, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	n := 0
	write := func(kind string, rep *counters.RunReport) error {
		name := fileName(kind, rep.Procs, rep.DataBytes)
		if in != nil {
			rep, _ = in.PerturbReport(strings.TrimSuffix(name, ".json"), rep)
		}
		var buf bytes.Buffer
		if err := rep.WriteJSON(&buf); err != nil {
			return fmt.Errorf("campaign: encoding report for %s: %w", rep.Ident(), err)
		}
		data, _ := in.MangleFile(name, buf.Bytes())
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			return fmt.Errorf("campaign: writing %s: %w", path, err)
		}
		n++
		return nil
	}
	for _, res := range r.BaseRuns {
		if err := write("base", &res.Report); err != nil {
			return n, err
		}
	}
	base1 := r.BaseRuns[1]
	for _, res := range r.UniRuns {
		if res == base1 {
			continue // already saved as the 1-processor base run
		}
		if err := write("uni", &res.Report); err != nil {
			return n, err
		}
	}
	for _, res := range r.SyncKernels {
		if err := write("ksync", &res.Report); err != nil {
			return n, err
		}
	}
	if r.SpinKernel != nil {
		if err := write("kspin", &r.SpinKernel.Report); err != nil {
			return n, err
		}
	}
	return n, nil
}

// LoadInputsTolerantContext reads a directory of counter-report files
// written by SaveReports and assembles the model's inputs. Nothing but the
// files is needed — the simulator, the application, and the plan are not
// consulted. It survives damaged inputs: a file that cannot be read or
// parsed, an unrecognized file name, and a report that fails health
// sanitization are each quarantined into the returned health report instead
// of aborting the load, and every repair the sanitizer makes is recorded
// there. The error is non-nil only when the directory cannot be read or what
// remains cannot possibly fit (no usable spin-kernel report) — it then wraps
// model.ErrInsufficientInputs. An observer in ctx gets a "campaign.load"
// span and a log line per quarantined file, plus the per-severity findings
// counter.
func LoadInputsTolerantContext(ctx context.Context, dir string) (model.Inputs, *health.Report, error) {
	ctx, span := obs.StartSpan(ctx, "campaign.load", obs.A("dir", dir))
	defer span.End()
	var in model.Inputs
	in.SyncKernel = map[int]model.Measurement{}
	hr := health.NewReport()
	entries, err := os.ReadDir(dir)
	if err != nil {
		return in, hr, err
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".json") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names) // deterministic assembly
	quarantine := func(id, detail string) {
		f := health.Finding{Run: id, Check: "file", Severity: health.Quarantine, Detail: detail}
		hr.Add(f)
		hr.AddQuarantine(id)
		logFindings(ctx, []health.Finding{f})
	}
	var spin *counters.RunReport
	for _, name := range names {
		id := strings.TrimSuffix(name, ".json")
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			quarantine(id, err.Error())
			continue
		}
		rep, err := counters.ReadJSON(bytes.NewReader(data))
		if err != nil {
			quarantine(id, fmt.Sprintf("unreadable report: %v", err))
			continue
		}
		clean, findings := health.Sanitize(id, rep, 0)
		hr.Add(findings...)
		logFindings(obs.WithLogger(ctx, obs.Log(ctx).With("run", id)), findings)
		if health.ShouldQuarantine(findings) {
			hr.AddQuarantine(id)
			continue
		}
		m := model.FromReport(clean)
		switch {
		case strings.HasPrefix(name, "base_"):
			in.Base = append(in.Base, m)
			if clean.Procs == 1 {
				in.Uniproc = append(in.Uniproc, m)
			}
		case strings.HasPrefix(name, "uni_"):
			in.Uniproc = append(in.Uniproc, m)
		case strings.HasPrefix(name, "ksync_"):
			in.SyncKernel[clean.Procs] = m
		case strings.HasPrefix(name, "kspin_"):
			spin = clean
		default:
			quarantine(id, "unrecognized report file name")
		}
	}
	hr.Finalize()
	in.DroppedRuns = hr.DroppedRuns()
	if spin == nil {
		return in, hr, fmt.Errorf("campaign: %s has no usable spin-kernel report: %w", dir, model.ErrInsufficientInputs)
	}
	cpiImb, err := model.SpinnerCPI(spin)
	if err != nil {
		return in, hr, fmt.Errorf("campaign: spin kernel %s: %w", spin.Ident(), err)
	}
	in.SpinCPI = cpiImb
	return in, hr, nil
}

// FitDirTolerantContext loads a report directory with
// LoadInputsTolerantContext and fits the model on whatever survived,
// returning the health report alongside. The model's Degradation record
// carries the quarantined run identities; the observer in ctx sees both the
// load and the fit.
func FitDirTolerantContext(ctx context.Context, dir string, opts model.Options) (*model.Model, *health.Report, error) {
	in, hr, err := LoadInputsTolerantContext(ctx, dir)
	if err != nil {
		return nil, hr, err
	}
	m, err := model.FitContext(ctx, in, opts)
	return m, hr, err
}
