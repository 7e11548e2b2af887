package campaign

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"scaltool/internal/apps"
	"scaltool/internal/faultinject"
	"scaltool/internal/model"
)

// These are the error round-trip drills: an insufficient-input fit refusal
// produced by the campaign's quarantine path must keep satisfying
// errors.Is(err, model.ErrInsufficientInputs) AND surrender its typed
// Degradation record to errors.As, no matter how many fmt.Errorf("%w")
// layers the CLI or file loaders stack on top. Wrapping must never silently
// break the contract.

// TestInsufficientInputsRoundTrip runs a campaign whose every sync-kernel
// run is poisoned into quarantine. The campaign completes — sync kernels
// are not critical — but the fit must refuse, and the refusal must carry
// exactly the quarantined run identities.
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
	poisoned := make([]string, 0, len(plan.ProcCounts))
	for _, p := range plan.ProcCounts {
		poisoned = append(poisoned, RunID("ksync", p, 0))
	}
	rn := &Runner{
		Cfg:    cfg(),
		Inject: faultinject.New(faultinject.Spec{Seed: 11, PoisonRuns: poisoned}),
	}
	res, err := rn.Execute(context.Background(), app, plan)
	if err != nil {
		t.Fatalf("campaign with quarantined sync kernels must still complete: %v", err)
	}

	_, err = res.Fit(model.DefaultOptions(cfg().L2.SizeBytes))
	if err == nil {
		t.Fatal("fit succeeded without any sync-kernel run")
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
