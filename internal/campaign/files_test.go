package campaign

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"scaltool/internal/apps"
	"scaltool/internal/counters"
	"scaltool/internal/health"
	"scaltool/internal/model"
)

func TestSaveLoadFitRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("full campaign")
	}
	c := cfg()
	app, _ := apps.ByName("swim")
	plan, err := NewPlan(app, c, 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	rn := &Runner{Cfg: c}
	res, err := rn.Run(app, plan)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	nFiles, err := res.SaveReports(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Table 1's file count: base runs + fractional uniproc runs (the s0
	// uniproc run is shared), plus the kernel files.
	appFiles := len(res.BaseRuns) + len(res.UniRuns) - 1
	kernelFiles := len(res.SyncKernels) + 1
	if nFiles != appFiles+kernelFiles {
		t.Fatalf("files = %d, want %d app + %d kernel", nFiles, appFiles, kernelFiles)
	}
	entries, err := os.ReadDir(dir)
	if err != nil || len(entries) != nFiles {
		t.Fatalf("dir has %d entries (%v), want %d", len(entries), err, nFiles)
	}

	// Fit the model from the files alone and compare to the in-memory fit.
	opts := model.DefaultOptions(c.L2.SizeBytes)
	fromFiles, hr, err := FitDirTolerantContext(context.Background(), dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(hr.Quarantined) != 0 {
		t.Fatalf("clean report directory quarantined %v", hr.Quarantined)
	}
	inMem, err := res.Fit(opts)
	if err != nil {
		t.Fatal(err)
	}
	if fromFiles.CPI0 != inMem.CPI0 || fromFiles.Tm1 != inMem.Tm1 || fromFiles.T2 != inMem.T2 {
		t.Fatalf("file fit differs: cpi0 %g vs %g, tm %g vs %g",
			fromFiles.CPI0, inMem.CPI0, fromFiles.Tm1, inMem.Tm1)
	}
	bf, bm := fromFiles.Breakdown(), inMem.Breakdown()
	for i := range bf {
		if bf[i] != bm[i] {
			t.Fatalf("breakdown point %d differs: %+v vs %+v", i, bf[i], bm[i])
		}
	}
}

func TestLoadInputsErrors(t *testing.T) {
	ctx := context.Background()
	if _, _, err := LoadInputsTolerantContext(ctx, filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Error("missing dir accepted")
	}
	dir := t.TempDir()
	if _, _, err := LoadInputsTolerantContext(ctx, dir); err == nil {
		t.Error("empty dir accepted (no spin kernel)")
	}
	// Unrecognized file name.
	if err := os.WriteFile(filepath.Join(dir, "bogus_p01_s1.json"), []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadInputsTolerantContext(ctx, dir); err == nil {
		t.Error("bogus report accepted")
	}
}

func TestLoadInputsTolerant(t *testing.T) {
	if testing.Short() {
		t.Skip("full campaign")
	}
	c := cfg()
	app, _ := apps.ByName("swim")
	plan, err := NewPlan(app, c, 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	rn := &Runner{Cfg: c}
	res, err := rn.Run(app, plan)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, err := res.SaveReports(dir, nil); err != nil {
		t.Fatal(err)
	}

	// Damage the directory the way a flaky measurement farm would: truncate
	// one uniprocessor report mid-write, skew another within the repair
	// band, and drop in a file nothing recognizes.
	base1 := res.BaseRuns[1]
	var uniSizes []uint64
	for s, r := range res.UniRuns {
		if r != base1 {
			uniSizes = append(uniSizes, s)
		}
	}
	sort.Slice(uniSizes, func(i, j int) bool { return uniSizes[i] < uniSizes[j] })
	if len(uniSizes) < 3 {
		t.Fatalf("campaign produced only %d distinct uni files", len(uniSizes))
	}
	truncName := fileName("uni", 1, uniSizes[0])
	data, err := os.ReadFile(filepath.Join(dir, truncName))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, truncName), data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	skewName := fileName("uni", 1, uniSizes[1])
	skewRep := res.UniRuns[uniSizes[1]].Report
	skewRep.PerProc = append([]counters.Set(nil), skewRep.PerProc...)
	ops := skewRep.PerProc[0].MemOps()
	skewRep.PerProc[0][counters.L1DMisses] = ops + ops/30
	f, err := os.Create(filepath.Join(dir, skewName))
	if err != nil {
		t.Fatal(err)
	}
	if err := skewRep.WriteJSON(f); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if err := os.WriteFile(filepath.Join(dir, "junk_p01_s1.json"), []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}

	// The loader quarantines, repairs, and carries on.
	ctx := context.Background()
	in, hr, err := LoadInputsTolerantContext(ctx, dir)
	if err != nil {
		t.Fatalf("tolerant load: %v", err)
	}
	truncID := strings.TrimSuffix(truncName, ".json")
	wantQuarantined := map[string]bool{truncID: true, "junk_p01_s1": true}
	if len(hr.Quarantined) != len(wantQuarantined) {
		t.Fatalf("quarantined %v, want %v", hr.Quarantined, wantQuarantined)
	}
	for _, id := range hr.Quarantined {
		if !wantQuarantined[id] {
			t.Errorf("unexpected quarantine %q", id)
		}
	}
	_, repairs, _ := hr.Counts()
	if repairs != 1 {
		t.Errorf("repairs = %d, want 1 (the skewed L2 counter)", repairs)
	}
	if got, want := in.DroppedRuns, hr.DroppedRuns(); len(got) != len(want) {
		t.Errorf("DroppedRuns %v not propagated (%v)", got, want)
	}

	m, hr2, err := FitDirTolerantContext(ctx, dir, model.DefaultOptions(c.L2.SizeBytes))
	if err != nil {
		t.Fatalf("tolerant fit: %v", err)
	}
	if hr2.Clean() {
		t.Error("health report clean despite quarantines")
	}
	if !m.Degradation.Degraded || len(m.Degradation.DroppedRuns) != 2 {
		t.Errorf("degradation = %+v, want 2 dropped runs", m.Degradation)
	}

	// An empty directory is an insufficiency, stated as one.
	_, _, err = LoadInputsTolerantContext(ctx, t.TempDir())
	if !errors.Is(err, model.ErrInsufficientInputs) {
		t.Errorf("empty dir error %v does not wrap ErrInsufficientInputs", err)
	}
}

// TestTolerantLoadDegenerateDirs drives the tolerant loaders into their two
// degenerate corners — an empty directory, and a directory where every file
// is quarantined — and requires a usable (non-nil, finalized) health report
// and an ErrInsufficientInputs refusal in both, never a nil-map panic.
func TestTolerantLoadDegenerateDirs(t *testing.T) {
	opts := model.DefaultOptions(cfg().L2.SizeBytes)
	ctx := context.Background()

	// Empty directory: nothing to load is an insufficiency, not a crash.
	empty := t.TempDir()
	in, hr, err := LoadInputsTolerantContext(ctx, empty)
	if !errors.Is(err, model.ErrInsufficientInputs) {
		t.Fatalf("empty dir error %v does not wrap ErrInsufficientInputs", err)
	}
	if hr == nil {
		t.Fatal("empty dir returned a nil health report")
	}
	if info, repairs, quarantines := hr.Counts(); info+repairs+quarantines != 0 {
		t.Fatalf("empty dir produced findings: %s", hr.Summary())
	}
	if in.SyncKernel == nil {
		t.Fatal("empty dir left Inputs.SyncKernel nil")
	}
	in.SyncKernel[1] = model.Measurement{} // must not panic
	m, hr, err := FitDirTolerantContext(ctx, empty, opts)
	if !errors.Is(err, model.ErrInsufficientInputs) || m != nil {
		t.Fatalf("tolerant fit of empty dir: m=%v err=%v", m, err)
	}
	if hr == nil || hr.Summary() == "" {
		t.Fatalf("tolerant fit of empty dir returned an unusable health report: %v", hr)
	}

	// Every file quarantined: the report must name each casualty and the
	// load must still end in a stated insufficiency.
	rotten := t.TempDir()
	casualties := []string{"uni_p01_s64", "kspin_p01_s0"}
	for _, id := range casualties {
		if err := os.WriteFile(filepath.Join(rotten, id+".json"), []byte("not json"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	in, hr, err = LoadInputsTolerantContext(ctx, rotten)
	if !errors.Is(err, model.ErrInsufficientInputs) {
		t.Fatalf("all-quarantined dir error %v does not wrap ErrInsufficientInputs", err)
	}
	if len(hr.Quarantined) != len(casualties) {
		t.Fatalf("quarantined %v, want %v", hr.Quarantined, casualties)
	}
	dropped := map[string]bool{}
	for _, id := range in.DroppedRuns {
		dropped[id] = true
	}
	for _, id := range casualties {
		if !dropped[id] {
			t.Fatalf("DroppedRuns %v is missing quarantined file %s", in.DroppedRuns, id)
		}
	}
	m, hr, err = FitDirTolerantContext(ctx, rotten, opts)
	if !errors.Is(err, model.ErrInsufficientInputs) || m != nil {
		t.Fatalf("tolerant fit of all-quarantined dir: m=%v err=%v", m, err)
	}
	if _, _, quarantines := hr.Counts(); quarantines != len(casualties) {
		t.Fatalf("health report lost the quarantines: %s", hr.Summary())
	}
}

// writeL2Report writes a one-processor report file whose L2 misses sit at
// l2PerL1 times its L1 misses, and returns the file's run identity.
func writeL2Report(t *testing.T, dir string, l2PerL1 float64) string {
	t.Helper()
	rep := &counters.RunReport{
		Machine: "m", App: "swim", Procs: 1, DataBytes: 1 << 16,
		PerProc: make([]counters.Set, 1), WallCycles: 1_000_000,
	}
	s := &rep.PerProc[0]
	s[counters.Cycles] = 1_000_000
	s[counters.GradInstr] = 400_000
	s[counters.GradLoads] = 100_000
	s[counters.GradStores] = 20_000
	s[counters.L1DMisses] = 10_000
	s[counters.L2Misses] = uint64(l2PerL1 * 10_000)
	id := RunID("uni", 1, rep.DataBytes)
	f, err := os.Create(filepath.Join(dir, id+".json"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := rep.WriteJSON(f); err != nil {
		t.Fatal(err)
	}
	return id
}

// loadL2Findings loads a directory holding one report and returns the
// health report (the directory has no spin kernel, so the load itself ends
// in an insufficiency).
func loadL2Findings(t *testing.T, dir string) *health.Report {
	t.Helper()
	_, hr, err := LoadInputsTolerantContext(context.Background(), dir)
	if !errors.Is(err, model.ErrInsufficientInputs) {
		t.Fatalf("load without a spin kernel: %v", err)
	}
	return hr
}

// TestLoaderRepairsL2SkewInsideBand: a report file whose L2 misses exceed
// its L1 misses by 5% — what the skewrun fault writes, inside health's 15%
// repair band — is repaired by the sanitizer, not quarantined as unreadable.
func TestLoaderRepairsL2SkewInsideBand(t *testing.T) {
	dir := t.TempDir()
	id := writeL2Report(t, dir, 1.05)
	hr := loadL2Findings(t, dir)
	if len(hr.Quarantined) != 0 {
		t.Fatalf("in-band L2 skew quarantined: %v (%v)", hr.Quarantined, hr.Findings)
	}
	if len(hr.Findings) != 1 || hr.Findings[0].Run != id || hr.Findings[0].Check != "l2-misses" ||
		hr.Findings[0].Severity != health.Repair {
		t.Fatalf("findings %v, want one l2-misses repair of %s", hr.Findings, id)
	}
}

// TestLoaderQuarantinesL2SkewPastBand: L2 misses at 1.5× the L1 misses are
// no multiplexing noise; the sanitizer quarantines the report.
func TestLoaderQuarantinesL2SkewPastBand(t *testing.T) {
	dir := t.TempDir()
	id := writeL2Report(t, dir, 1.5)
	hr := loadL2Findings(t, dir)
	if !reflect.DeepEqual(hr.Quarantined, []string{id}) {
		t.Fatalf("quarantined %v, want [%s]", hr.Quarantined, id)
	}
	if len(hr.Findings) != 1 || hr.Findings[0].Check != "l2-misses" || hr.Findings[0].Severity != health.Quarantine {
		t.Fatalf("findings %v, want one l2-misses quarantine", hr.Findings)
	}
}
