package faultinject

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"

	"scaltool/internal/counters"
	"scaltool/internal/journal"
)

// sampleReport builds a plausible multi-processor report with counters big
// enough for every fault kind (including 32-bit wraps) to have purchase.
func sampleReport() *counters.RunReport {
	r := &counters.RunReport{
		Machine: "scaled", App: "swim", Procs: 4, DataBytes: 1 << 20,
		PerProc: make([]counters.Set, 4), WallCycles: 6 << 32,
		Barriers: 40, Locks: 3, TouchedPages: 100, PageBytes: 4096,
	}
	for p := range r.PerProc {
		s := &r.PerProc[p]
		s.Add(counters.Cycles, 6<<32)
		s.Add(counters.GradInstr, 5<<32)
		s.Add(counters.GradLoads, 1<<32)
		s.Add(counters.GradStores, 1<<30)
		s.Add(counters.L1DMisses, 90_000_000)
		s.Add(counters.L2Misses, 10_000_000)
		s.Add(counters.StoreShared, 1_000_000+uint64(p))
	}
	return r
}

func reportBytes(t *testing.T, r *counters.RunReport) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestPerturbDeterministic is the robustness contract: same seed + spec ⇒
// byte-identical perturbed reports, independent of injector instance.
func TestPerturbDeterministic(t *testing.T) {
	spec := Spec{Seed: 99, Noise: 0.05, Drop: 0.1, Wrap: 0.3}
	a, _ := New(spec).PerturbReport("base_p04_s1048576", sampleReport())
	b, _ := New(spec).PerturbReport("base_p04_s1048576", sampleReport())
	if !bytes.Equal(reportBytes(t, a), reportBytes(t, b)) {
		t.Fatal("same seed+spec produced different perturbed reports")
	}
	c, _ := New(Spec{Seed: 100, Noise: 0.05, Drop: 0.1, Wrap: 0.3}).PerturbReport("base_p04_s1048576", sampleReport())
	if bytes.Equal(reportBytes(t, a), reportBytes(t, c)) {
		t.Fatal("different seeds produced identical perturbations (degenerate hashing)")
	}
}

func TestPerturbDoesNotMutateInput(t *testing.T) {
	orig := sampleReport()
	want := reportBytes(t, orig)
	New(Spec{Seed: 1, Noise: 0.5, Drop: 0.5, Wrap: 0.5, PoisonRuns: []string{"x"}, SkewRuns: []string{"x"}}).
		PerturbReport("x", orig)
	if !bytes.Equal(want, reportBytes(t, orig)) {
		t.Fatal("PerturbReport mutated its input report")
	}
}

func TestNilInjectorIsInert(t *testing.T) {
	var in *Injector
	if in.Spec().JournalHook() != nil {
		t.Fatal("nil injector hooks the journal")
	}
	out, faults := in.PerturbReport("r", sampleReport())
	if len(faults) != 0 || !bytes.Equal(reportBytes(t, out), reportBytes(t, sampleReport())) {
		t.Fatal("nil injector perturbed a report")
	}
}

// TestNoiseIsMultiplexReport pins the one multiplexing-noise model: the
// noise step is counters.MultiplexReport at Noise × the sampling-share
// scale, and it records exactly one KindNoise fault per counter it changed.
func TestNoiseIsMultiplexReport(t *testing.T) {
	const run = "base_p04_s1048576"
	spec := Spec{Seed: 5, Noise: 0.03}
	in := New(spec)
	got, faults := in.PerturbReport(run, sampleReport())
	want := counters.MultiplexReport(sampleReport(), counters.MuxOptions{
		RelError: spec.Noise * muxShareScale(),
		Seed:     mix(spec.Seed, hashString(run)),
	})
	if !bytes.Equal(reportBytes(t, got), reportBytes(t, want)) {
		t.Fatal("noise step differs from counters.MultiplexReport")
	}
	changed := 0
	orig := sampleReport()
	for p := range orig.PerProc {
		for e := 0; e < counters.NumEvents; e++ {
			if got.PerProc[p][e] != orig.PerProc[p][e] {
				changed++
			}
		}
		if got.PerProc[p][counters.Cycles] != orig.PerProc[p][counters.Cycles] ||
			got.PerProc[p][counters.GradInstr] != orig.PerProc[p][counters.GradInstr] {
			t.Fatalf("proc %d: noise touched a pinned counter", p)
		}
	}
	if changed == 0 || len(faults) != changed {
		t.Fatalf("%d counters changed, %d faults recorded", changed, len(faults))
	}
	for _, f := range faults {
		if f.Kind != KindNoise || f.Run != run {
			t.Fatalf("unexpected fault %+v", f)
		}
	}
	other, _ := in.PerturbReport("base_p08_s1048576", sampleReport())
	if bytes.Equal(reportBytes(t, got), reportBytes(t, other)) {
		t.Fatal("two runs drew identical noise (seed not mixed with the run identity)")
	}
}

func TestPerturbPoisonAndSkew(t *testing.T) {
	in := New(Spec{Seed: 3, PoisonRuns: []string{"p"}, SkewRuns: []string{"s"}})
	poisoned, faults := in.PerturbReport("p", sampleReport())
	if poisoned.PerProc[0][counters.GradInstr] != 0 {
		t.Error("poison did not zero proc 0 grad_instr")
	}
	if len(faults) != 1 || faults[0].Kind != KindPoison {
		t.Errorf("poison faults = %v", faults)
	}
	if err := poisoned.Validate(); err == nil {
		t.Error("poisoned report still validates; quarantine bait is broken")
	}
	skewed, faults := in.PerturbReport("s", sampleReport())
	s := skewed.PerProc[0]
	if s[counters.L2Misses] <= s[counters.L1DMisses] {
		t.Error("skew did not push L2 misses above L1 misses")
	}
	if float64(s[counters.L2Misses]) > 1.1*float64(s[counters.L1DMisses]) {
		t.Error("skew overshot the repairable band")
	}
	if len(faults) != 1 || faults[0].Kind != KindSkew {
		t.Errorf("skew faults = %v", faults)
	}
}

func TestWrapOnlyAffectsWideCounters(t *testing.T) {
	rep := sampleReport()
	for p := range rep.PerProc {
		rep.PerProc[p][counters.Cycles] = 1000 // below 2^32: cannot wrap
	}
	rep.WallCycles = 1000
	out, faults := New(Spec{Seed: 1, Wrap: 1}).PerturbReport("w", rep)
	for _, f := range faults {
		if f.Kind == KindWrap && out.PerProc[0][counters.Cycles] != 1000 {
			t.Fatalf("narrow counter wrapped: %v", f)
		}
	}
	for p := range out.PerProc {
		if got := out.PerProc[p][counters.GradInstr]; got != (5<<32)&(1<<32-1) {
			t.Fatalf("proc %d grad_instr = %d, want wrapped value", p, got)
		}
	}
}

func TestMangleFileDeterministic(t *testing.T) {
	data := bytes.Repeat([]byte(`{"k":"v"}`), 100)
	in := New(Spec{Seed: 11, Truncate: 1})
	a, fa := in.MangleFile("base_p01_s64.json", data)
	b, fb := in.MangleFile("base_p01_s64.json", data)
	if !bytes.Equal(a, b) || !reflect.DeepEqual(fa, fb) {
		t.Fatal("MangleFile not deterministic")
	}
	if len(a) >= len(data) || len(fa) != 1 || fa[0].Kind != KindTruncate {
		t.Fatalf("truncation did not fire: %d bytes, faults %v", len(a), fa)
	}
	c, fc := New(Spec{Seed: 11, Corrupt: 1}).MangleFile("x.json", data)
	if len(c) != len(data) || bytes.Equal(c, data) || len(fc) != 1 || fc[0].Kind != KindCorrupt {
		t.Fatalf("corruption did not fire: faults %v", fc)
	}
	if !bytes.Equal(data, bytes.Repeat([]byte(`{"k":"v"}`), 100)) {
		t.Fatal("MangleFile mutated its input")
	}
}

func TestSpecParseRoundTrip(t *testing.T) {
	text := "seed=42,noise=0.02,drop=0.1,skewrun=base_p04_s1048576,poisonrun=uni_p01_s512"
	spec, err := ParseSpec(text)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Seed != 42 || spec.Noise != 0.02 || spec.Drop != 0.1 {
		t.Fatalf("parsed spec %+v", spec)
	}
	if !reflect.DeepEqual(spec.SkewRuns, []string{"base_p04_s1048576"}) ||
		!reflect.DeepEqual(spec.PoisonRuns, []string{"uni_p01_s512"}) {
		t.Fatalf("targeted runs %+v", spec)
	}
	again, err := ParseSpec(spec.String())
	if err != nil {
		t.Fatalf("re-parsing %q: %v", spec.String(), err)
	}
	if !reflect.DeepEqual(spec, again) {
		t.Fatalf("round trip changed the spec:\n  %+v\n  %+v", spec, again)
	}
	if !spec.Active() {
		t.Error("non-empty spec reported inactive")
	}
	var zero Spec
	if zero.Active() {
		t.Error("zero spec reported active")
	}
}

func TestSpecParseErrors(t *testing.T) {
	for _, bad := range []string{
		"nonsense",
		"noise=2",
		"noise=-0.1",
		"seed=abc",
		"unknown=1",
		"poisonrun=",
	} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("ParseSpec(%q) accepted", bad)
		}
	}
	// Run failures are not injectable: the keys that used to drive the
	// campaign's retry loop are unknown.
	for _, gone := range []string{"transient=0.1", "hang=0.1", "maxfail=2", "failrun=a", "stallrun=b"} {
		if _, err := ParseSpec(gone); err == nil || !strings.Contains(err.Error(), "unknown spec key") {
			t.Errorf("ParseSpec(%q) = %v, want an unknown-key error", gone, err)
		}
	}
	if s, err := ParseSpec("  "); err != nil || s.Active() {
		t.Errorf("blank spec: %+v, %v", s, err)
	}
}

// TestSpecParseJournalKeys covers the durability fault keys: parse, render,
// round-trip, the Active/JournalTargets views the journal hook relies on,
// and the ReportKeys view the CLI uses to refuse report keys outside
// measure.
func TestSpecParseJournalKeys(t *testing.T) {
	spec, err := ParseSpec("seed=9,crashappend=3,tornappend=7,fsyncfail=11,poisonrun=a,skewrun=b")
	if err != nil {
		t.Fatal(err)
	}
	if spec.CrashAppend != 3 || spec.TornAppend != 7 || spec.FsyncFail != 11 {
		t.Fatalf("parsed journal counts %+v", spec)
	}
	if !spec.Active() || !spec.JournalTargets() {
		t.Fatalf("journal-fault spec reported inactive: %+v", spec)
	}
	if keys := spec.ReportKeys(); !reflect.DeepEqual(keys, []string{"poisonrun", "skewrun"}) {
		t.Fatalf("ReportKeys = %v", keys)
	}
	if keys := (Spec{CrashAppend: 1, Noise: 0.1, Corrupt: 0.5}).ReportKeys(); !reflect.DeepEqual(keys, []string{"corrupt", "noise"}) {
		t.Fatalf("ReportKeys = %v", keys)
	}
	again, err := ParseSpec(spec.String())
	if err != nil {
		t.Fatalf("re-parsing %q: %v", spec.String(), err)
	}
	if !reflect.DeepEqual(spec, again) {
		t.Fatalf("journal keys round trip changed the spec:\n  %+v\n  %+v", spec, again)
	}
	for _, one := range []Spec{{CrashAppend: 1}, {TornAppend: 1}, {FsyncFail: 1}} {
		if !one.Active() || !one.JournalTargets() {
			t.Errorf("spec %+v must be active and journal-targeting", one)
		}
	}
	if (Spec{Seed: 1}).JournalTargets() {
		t.Error("seed-only spec claims journal targets")
	}
	if (Spec{Seed: 1, Noise: 0.5}).JournalHook() != nil {
		t.Error("spec without journal faults hooks the journal")
	}
	for _, bad := range []string{"crashappend=-1", "tornappend=x", "fsyncfail=1.5"} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("ParseSpec(%q) accepted", bad)
		}
	}
}

// TestJournalHookFiresAtExactCounts checks the hook fails only the
// operations the spec names: the crash append without a torn frame, the
// torn append with journal.ErrTornWrite, and the fsync.
func TestJournalHookFiresAtExactCounts(t *testing.T) {
	hook := Spec{CrashAppend: 2, TornAppend: 4, FsyncFail: 3}.JournalHook()
	for n := uint64(1); n <= 5; n++ {
		err := hook(journal.OpAppend, n)
		switch n {
		case 2:
			if err == nil || errors.Is(err, journal.ErrTornWrite) {
				t.Errorf("append %d: %v, want a plain crash", n, err)
			}
		case 4:
			if !errors.Is(err, journal.ErrTornWrite) {
				t.Errorf("append %d: %v, want a torn write", n, err)
			}
		default:
			if err != nil {
				t.Errorf("append %d failed: %v", n, err)
			}
		}
		if err := hook(journal.OpSync, n); (err != nil) != (n == 3) {
			t.Errorf("sync %d: %v", n, err)
		}
	}
}
