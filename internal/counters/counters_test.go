package counters

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"
)

func sampleSet() Set {
	var s Set
	s.Add(Cycles, 1_000_000)
	s.Add(GradInstr, 800_000)
	s.Add(GradLoads, 200_000)
	s.Add(GradStores, 100_000)
	s.Add(L1DMisses, 30_000)
	s.Add(L2Misses, 10_000)
	s.Add(StoreShared, 50)
	return s
}

func TestDerivedRatios(t *testing.T) {
	s := sampleSet()
	if got, want := s.CPI(), 1.25; got != want {
		t.Errorf("CPI = %g, want %g", got, want)
	}
	if got, want := s.Hm(), 10_000.0/800_000; got != want {
		t.Errorf("Hm = %g, want %g", got, want)
	}
	if got, want := s.H2(), 20_000.0/800_000; got != want {
		t.Errorf("H2 = %g, want %g", got, want)
	}
	if got, want := s.MemFrac(), 300_000.0/800_000; got != want {
		t.Errorf("MemFrac = %g, want %g", got, want)
	}
	if got, want := s.L1HitRate(), 1-30_000.0/300_000; got != want {
		t.Errorf("L1HitRate = %g, want %g", got, want)
	}
	if got, want := s.L2LocalHitRate(), 1-10_000.0/30_000; math.Abs(got-want) > 1e-15 {
		t.Errorf("L2LocalHitRate = %g, want %g", got, want)
	}
}

func TestDerivedRatiosZeroGuards(t *testing.T) {
	var s Set
	if s.CPI() != 0 || s.Hm() != 0 || s.H2() != 0 || s.MemFrac() != 0 {
		t.Error("zero set ratios should be 0")
	}
	if s.L1HitRate() != 0 {
		t.Error("L1HitRate on zero ops should be 0")
	}
	if s.L2LocalHitRate() != 1 {
		t.Error("L2LocalHitRate with no L1 misses should be 1 (nothing missed)")
	}
	// H2 guards against L1 < L2 (possible under multiplex jitter).
	s.Add(GradInstr, 100)
	s.Add(L1DMisses, 5)
	s.Add(L2Misses, 9)
	if s.H2() != 0 {
		t.Error("H2 with L2>L1 should clamp to 0")
	}
}

func TestMerge(t *testing.T) {
	a, b := sampleSet(), sampleSet()
	a.Merge(b)
	if a[Cycles] != 2_000_000 || a[StoreShared] != 100 {
		t.Fatalf("Merge wrong: %v", a)
	}
}

func TestEventString(t *testing.T) {
	if Cycles.String() != "cycles" || StoreShared.String() != "store_shared" {
		t.Error("event names wrong")
	}
	if Event(200).String() == "" {
		t.Error("out-of-range event name empty")
	}
}

func sampleReport() *RunReport {
	return &RunReport{
		Machine: "tiny", App: "demo", Procs: 2, DataBytes: 4096,
		PerProc:    []Set{sampleSet(), sampleSet()},
		WallCycles: 1_000_000,
		Barriers:   40, Locks: 3,
		TouchedPages: 7, PageBytes: 1024,
	}
}

func TestReportTotalsAndValidate(t *testing.T) {
	r := sampleReport()
	if err := r.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if r.TotalCycles() != 2_000_000 {
		t.Fatalf("TotalCycles = %d", r.TotalCycles())
	}
	tot := r.Total()
	if tot[GradInstr] != 1_600_000 {
		t.Fatalf("Total instr = %d", tot[GradInstr])
	}
}

func TestReportValidateRejects(t *testing.T) {
	bad1 := sampleReport()
	bad1.Procs = 3 // mismatch with PerProc
	bad2 := sampleReport()
	bad2.DataBytes = 0
	bad3 := sampleReport()
	bad3.PerProc[1][L2Misses] = bad3.PerProc[1][L1DMisses] + 1
	bad4 := sampleReport()
	bad4.PerProc[0][GradInstr] = 0
	bad5 := sampleReport()
	bad5.Procs = 0
	bad5.PerProc = nil
	for i, r := range []*RunReport{bad1, bad2, bad3, bad4, bad5} {
		if err := r.Validate(); err == nil {
			t.Errorf("case %d: want validation error", i)
		}
	}
}

func TestReportJSONRoundTrip(t *testing.T) {
	r := sampleReport()
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.App != r.App || got.Procs != r.Procs || got.Total() != r.Total() || got.Barriers != r.Barriers {
		t.Fatalf("round trip mismatch: %+v vs %+v", got, r)
	}
}

// TestReadJSONRejectsGarbage: ReadJSON refuses what does not decode, and
// only that. A well-formed but implausible report decodes; Validate (and, at
// the file boundary, health.Sanitize) is what refuses it.
func TestReadJSONRejectsGarbage(t *testing.T) {
	if _, err := ReadJSON(bytes.NewBufferString("{")); err == nil {
		t.Error("truncated JSON accepted")
	}
	rep, err := ReadJSON(bytes.NewBufferString(`{"procs":0}`))
	if err != nil {
		t.Fatalf("well-formed report refused: %v", err)
	}
	if rep.Validate() == nil {
		t.Error("zero-processor report validates")
	}
}

func TestMultiplexExactForTimingPair(t *testing.T) {
	s := sampleSet()
	m := Multiplex(s, DefaultMux(7))
	if m[Cycles] != s[Cycles] || m[GradInstr] != s[GradInstr] {
		t.Fatal("multiplex perturbed the timing pair")
	}
}

func TestMultiplexDeterministic(t *testing.T) {
	s := sampleSet()
	a := Multiplex(s, DefaultMux(42))
	b := Multiplex(s, DefaultMux(42))
	if a != b {
		t.Fatal("multiplex not deterministic for same seed")
	}
	c := Multiplex(s, DefaultMux(43))
	if a == c {
		t.Fatal("different seeds produced identical jitter (suspicious)")
	}
}

func TestMultiplexBounds(t *testing.T) {
	f := func(seed uint64) bool {
		s := sampleSet()
		opt := MuxOptions{RelError: 0.05, Seed: seed}
		m := Multiplex(s, opt)
		for e := 0; e < NumEvents; e++ {
			truth, got := float64(s[e]), float64(m[e])
			if truth == 0 {
				if got != 0 {
					return false
				}
				continue
			}
			if math.Abs(got-truth)/truth > opt.RelError+1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestMultiplexNegativeErrorClamped(t *testing.T) {
	s := sampleSet()
	m := Multiplex(s, MuxOptions{RelError: -1, Seed: 1})
	if m != s {
		t.Fatal("negative RelError should mean exact")
	}
}

func TestMultiplexReportIndependentPerProc(t *testing.T) {
	r := sampleReport()
	m := MultiplexReport(r, DefaultMux(9))
	if len(m.PerProc) != 2 {
		t.Fatal("per-proc count changed")
	}
	if m.PerProc[0] == m.PerProc[1] {
		t.Fatal("identical jitter across processors")
	}
	// Original untouched.
	if r.PerProc[0] != sampleSet() {
		t.Fatal("MultiplexReport mutated input")
	}
}

func TestGetAndMemOps(t *testing.T) {
	s := sampleSet()
	if s.Get(Cycles) != 1_000_000 {
		t.Fatal("Get wrong")
	}
	if s.MemOps() != 300_000 {
		t.Fatal("MemOps wrong")
	}
}
