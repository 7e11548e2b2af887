package campaign

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"scaltool/internal/apps"
	"scaltool/internal/counters"
	"scaltool/internal/faultinject"
	"scaltool/internal/model"
	"scaltool/internal/runcache"
	"scaltool/internal/sim"
)

// These are the error round-trip drills: an insufficient-input fit refusal
// produced by the report loader's quarantine path must keep satisfying
// errors.Is(err, model.ErrInsufficientInputs) AND surrender its typed
// Degradation record to errors.As, no matter how many fmt.Errorf("%w")
// layers the CLI or file loaders stack on top. Wrapping must never silently
// break the contract.

// TestInsufficientInputsRoundTrip writes a campaign's report files with
// every sync-kernel report poisoned. The directory still loads — sync
// kernels are not critical — but the fit must refuse, and the refusal must
// carry exactly the quarantined run identities.
func TestInsufficientInputsRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a campaign")
	}
	app, err := apps.ByName("swim")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := NewPlan(app, cfg(), 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := (&Runner{Cfg: cfg()}).Execute(context.Background(), app, plan)
	if err != nil {
		t.Fatal(err)
	}
	poisoned := make([]string, 0, len(res.SyncKernels))
	for _, k := range res.SyncKernels {
		poisoned = append(poisoned, fileID("ksync", k))
	}
	dir := t.TempDir()
	if _, err := res.SaveReports(dir, faultinject.New(faultinject.Spec{Seed: 11, PoisonRuns: poisoned})); err != nil {
		t.Fatal(err)
	}

	_, hr, err := FitDirTolerantContext(context.Background(), dir, model.DefaultOptions(cfg().L2.SizeBytes))
	if err == nil {
		t.Fatal("fit succeeded without any sync-kernel run")
	}
	if len(hr.Quarantined) != len(poisoned) {
		t.Fatalf("quarantined %v, want the %d sync kernels %v", hr.Quarantined, len(poisoned), poisoned)
	}
	assertInsufficientRoundTrip(t, err, poisoned)

	// Stack two more wrapping layers — the shapes cmd/scaltool and the file
	// loaders add — and require the same answers through the longer chain.
	wrapped := fmt.Errorf("scaltool: fit failed: %w", fmt.Errorf("campaign %s: %w", app.Name(), err))
	assertInsufficientRoundTrip(t, wrapped, poisoned)
}

// assertInsufficientRoundTrip requires err to satisfy the sentinel via
// errors.Is and yield the typed record via errors.As, with the dropped-run
// list naming every quarantined run.
func assertInsufficientRoundTrip(t *testing.T, err error, dropped []string) {
	t.Helper()
	if !errors.Is(err, model.ErrInsufficientInputs) {
		t.Fatalf("error %v does not wrap model.ErrInsufficientInputs", err)
	}
	var ie *model.InsufficientInputsError
	if !errors.As(err, &ie) {
		t.Fatalf("error %v does not carry a *model.InsufficientInputsError", err)
	}
	if !ie.Degradation.Degraded {
		t.Fatalf("typed refusal lost its degradation record: %+v", ie.Degradation)
	}
	have := make(map[string]bool, len(ie.Degradation.DroppedRuns))
	for _, r := range ie.Degradation.DroppedRuns {
		have[r] = true
	}
	for _, want := range dropped {
		if !have[want] {
			t.Fatalf("dropped-run record %v is missing quarantined run %s", ie.Degradation.DroppedRuns, want)
		}
	}
	if ie.Reason == "" || !strings.Contains(ie.Error(), ie.Reason) {
		t.Fatalf("typed refusal's message %q does not carry its reason %q", ie.Error(), ie.Reason)
	}
}

// TestInsufficientInputsTypedFromModel pins the typed error at its source:
// a direct model fit on an empty input set must already produce the typed
// record, not just the sentinel — so the campaign layer has something to
// propagate in the first place.
func TestInsufficientInputsTypedFromModel(t *testing.T) {
	in := model.Inputs{DroppedRuns: []string{"uni_p01_s64", "base_p02_s128"}}
	_, err := model.Fit(in, model.DefaultOptions(1<<20))
	if err == nil {
		t.Fatal("fit of empty inputs succeeded")
	}
	var ie *model.InsufficientInputsError
	if !errors.As(err, &ie) {
		t.Fatalf("model fit refusal %v is untyped", err)
	}
	if len(ie.Degradation.DroppedRuns) != 2 {
		t.Fatalf("typed refusal dropped the DroppedRuns record: %+v", ie.Degradation)
	}
	if !errors.Is(ie, model.ErrInsufficientInputs) {
		t.Fatal("typed refusal does not unwrap to the sentinel")
	}
}

// TestImplausibleSimulatorReportPanics plants a result whose report fails
// health.Sanitize under a job's run-cache key. The campaign no longer
// repairs or quarantines simulator reports: it must abort with a
// *PanicError that names the run and the failed check. The planted entry is
// memory-resident, so the job runs inline and the dispatching goroutine's
// own recover converts the panic.
func TestImplausibleSimulatorReportPanics(t *testing.T) {
	app, err := apps.ByName("swim")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := NewPlan(app, cfg(), 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	rn := &Runner{Cfg: cfg(), Cache: runcache.New(runcache.Options{})}
	j := job{Job: Job{Kind: KindBase, Procs: 2, Size: plan.S0}}
	j.id = RunID(j.Kind.String(), j.Procs, j.Size)
	ctx := context.Background()
	ex := &executor{rn: rn, app: app}
	key, _, err := ex.program(ctx, ex.recipe(j))
	if err != nil {
		t.Fatal(err)
	}
	planted := &sim.Result{Procs: 2, DataBytes: plan.S0, Report: counters.RunReport{
		Procs: 2, DataBytes: plan.S0, PerProc: make([]counters.Set, 2), WallCycles: 1000,
	}}
	for p := range planted.Report.PerProc {
		planted.Report.PerProc[p][counters.Cycles] = 1000
		planted.Report.PerProc[p][counters.GradInstr] = 500
	}
	planted.Report.PerProc[1][counters.GradInstr] = 0 // proc 1 graduated nothing
	if _, _, err := rn.Cache.GetOrRunKey(ctx, key, func(context.Context) (*sim.Result, error) {
		return planted, nil
	}); err != nil {
		t.Fatal(err)
	}

	res, err := rn.Execute(ctx, app, plan)
	var pe *PanicError
	if !errors.As(err, &pe) || res != nil {
		t.Fatalf("campaign over an implausible report: res=%v err=%v, want a *PanicError", res, err)
	}
	msg := fmt.Sprint(pe.Value)
	if pe.Run != j.id || !strings.Contains(msg, j.id) || !strings.Contains(msg, "instructions") {
		t.Fatalf("panic names run %q with %q; want run %s and the failed check \"instructions\"", pe.Run, msg, j.id)
	}
	if !strings.Contains(string(pe.Stack), dispatcher+"(") || strings.Contains(string(pe.Stack), dispatcher+".func") {
		t.Fatalf("panic was not recovered on the dispatching goroutine:\n%s", pe.Stack)
	}
}
