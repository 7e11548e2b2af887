package model

import (
	"math"
	"testing"

	"scaltool/internal/counters"
)

// --- synthetic input construction -----------------------------------------
//
// The synthetic machine obeys Eq. 1 exactly: cpi = cpi0 + h2·t2 + hm·tm,
// with cpi0* = 1.0, t2* = 8, tm* = 100 on one processor. Rates are chosen
// per data-set size the way a real cache behaves: small sizes have few
// misses, mid sizes miss L1 only, overflowing sizes miss both.

const (
	trueCPI0 = 1.0
	trueT2   = 8.0
	trueTm   = 100.0
	l2Bytes  = 64 << 10
	memFrac  = 0.3
)

// msmt builds an internally consistent Measurement from the model's derived
// quantities.
func msmt(procs int, size uint64, cpi, h2, hm float64, ntsync, barriers uint64) Measurement {
	instr := uint64(10_000_000)
	l1missPerInstr := h2 + hm
	return Measurement{
		Procs:     procs,
		DataBytes: size,
		CPI:       cpi,
		H2:        h2,
		Hm:        hm,
		L1HitRate: 1 - l1missPerInstr/memFrac,
		L2HitRate: 1 - hm/math.Max(l1missPerInstr, 1e-12),
		MemFrac:   memFrac,
		Instr:     instr,
		Cycles:    uint64(cpi * float64(instr)),
		NtSync:    ntsync,
		Barriers:  barriers,
		Wall:      uint64(cpi * float64(instr) / float64(procs)),
	}
}

// uniRun builds a uniprocessor run at a size with Eq.-1-consistent CPI.
func uniRun(size uint64, h2, hm float64) Measurement {
	return msmt(1, size, trueCPI0+h2*trueT2+hm*trueTm, h2, hm, 0, 0)
}

// kernelRun builds a sync-kernel measurement with per-barrier cost ts.
func kernelRun(procs int, ts float64) Measurement {
	const barriers = 100
	const instrPerProc = 50_000
	perProcCycles := trueCPI0*instrPerProc + barriers*ts
	m := Measurement{
		Procs:    procs,
		Instr:    uint64(instrPerProc * procs),
		Cycles:   uint64(perProcCycles * float64(procs)),
		Barriers: barriers,
	}
	m.CPI = float64(m.Cycles) / float64(m.Instr)
	m.DataBytes = 1024
	return m
}

func tsyncAt(n int) float64 { return 50 * float64(n) }

// synthInputs builds a full, consistent input set. The base run at n
// processors behaves exactly like the uniprocessor run at data size s0/n —
// the model's central working-set assumption — and carries no
// multiprocessor effects (ntsync = 0), so frac_sync and frac_imb should
// come out ≈ 0 at every processor count.
func synthInputs() Inputs {
	in := Inputs{SyncKernel: map[int]Measurement{}, SpinCPI: 3.0}
	rates := map[uint64][2]float64{ // size → {h2, hm}
		4 << 10:   {0.001, 0.0001}, // Lubeck point: nearly miss-free
		16 << 10:  {0.02, 0.0005},  // mid: L1 misses, L2 fits (the Fig. 3a peak)
		32 << 10:  {0.021, 0.0006},
		80 << 10:  {0.012, 0.008}, // knee
		160 << 10: {0.004, 0.020}, // overflowing sizes
		320 << 10: {0.005, 0.030},
		640 << 10: {0.005, 0.032},
	}
	for size, r := range rates {
		in.Uniproc = append(in.Uniproc, uniRun(size, r[0], r[1]))
	}
	for _, n := range []int{1, 2, 4, 8} {
		in.SyncKernel[n] = kernelRun(n, tsyncAt(n))
		r := rates[640<<10/uint64(n)]
		base := uniRun(640<<10, r[0], r[1])
		base.Procs = n
		base.Wall = base.Cycles / uint64(n)
		in.Base = append(in.Base, base)
	}
	return in
}

func fitSynth(t *testing.T, opt Options) *Model {
	t.Helper()
	m, err := Fit(synthInputs(), opt)
	if err != nil {
		t.Fatalf("Fit: %v", err)
	}
	return m
}

// --- tests -----------------------------------------------------------------

func TestFromReport(t *testing.T) {
	r := &counters.RunReport{
		Machine: "m", App: "a", Procs: 2, DataBytes: 4096,
		PerProc:    make([]counters.Set, 2),
		WallCycles: 500, Barriers: 7, Locks: 3,
	}
	for p := range r.PerProc {
		r.PerProc[p].Add(counters.Cycles, 1000)
		r.PerProc[p].Add(counters.GradInstr, 800)
		r.PerProc[p].Add(counters.GradLoads, 200)
		r.PerProc[p].Add(counters.GradStores, 40)
		r.PerProc[p].Add(counters.L1DMisses, 30)
		r.PerProc[p].Add(counters.L2Misses, 10)
		r.PerProc[p].Add(counters.StoreShared, 5)
	}
	m := FromReport(r)
	if m.Procs != 2 || m.Instr != 1600 || m.Cycles != 2000 || m.NtSync != 10 {
		t.Fatalf("FromReport = %+v", m)
	}
	if m.CPI != 1.25 || m.Barriers != 7 || m.Locks != 3 || m.Wall != 500 {
		t.Fatalf("FromReport = %+v", m)
	}
	if math.Abs(m.Hm-10.0/800) > 1e-15 || math.Abs(m.H2-20.0/800) > 1e-15 {
		t.Fatalf("miss rates wrong: %+v", m)
	}
}

func TestSpinnerCPI(t *testing.T) {
	r := &counters.RunReport{Procs: 3, PerProc: make([]counters.Set, 3)}
	r.PerProc[0].Add(counters.Cycles, 999)
	r.PerProc[0].Add(counters.GradInstr, 999) // busy proc: ignored
	for p := 1; p < 3; p++ {
		r.PerProc[p].Add(counters.Cycles, 3000)
		r.PerProc[p].Add(counters.GradInstr, 1000)
	}
	cpi, err := SpinnerCPI(r)
	if err != nil || cpi != 3.0 {
		t.Fatalf("SpinnerCPI = %g, %v; want 3.0", cpi, err)
	}
	if _, err := SpinnerCPI(&counters.RunReport{Procs: 1, PerProc: make([]counters.Set, 1)}); err == nil {
		t.Error("1-proc spin kernel accepted")
	}
	bad := &counters.RunReport{Procs: 2, PerProc: make([]counters.Set, 2)}
	if _, err := SpinnerCPI(bad); err == nil {
		t.Error("zero-instruction spinners accepted")
	}
}

func TestFitRecoversParameters(t *testing.T) {
	m := fitSynth(t, Options{L2Bytes: l2Bytes, Refit: true})
	if math.Abs(m.CPI0-trueCPI0) > 0.02*trueCPI0 {
		t.Errorf("cpi0 = %.4f, want ≈ %.2f", m.CPI0, trueCPI0)
	}
	if m.CPI0 >= m.CPI0Initial {
		t.Errorf("Eq. 2 adjustment did not reduce cpi0: %.4f ≥ %.4f", m.CPI0, m.CPI0Initial)
	}
	if math.Abs(m.T2-trueT2) > 0.1*trueT2 {
		t.Errorf("t2 = %.2f, want ≈ %.1f", m.T2, trueT2)
	}
	if math.Abs(m.Tm1-trueTm) > 0.05*trueTm {
		t.Errorf("tm = %.2f, want ≈ %.0f", m.Tm1, trueTm)
	}
}

func TestFitCompulsoryFromScanPeak(t *testing.T) {
	m := fitSynth(t, DefaultOptions(l2Bytes))
	// The local hit-rate curve peaks at the 16 KiB point (Fig. 3a: the
	// smallest size dips again — there the few misses that remain weigh
	// relatively more).
	wantComp := 0.0005 / 0.0205
	if math.Abs(m.Compulsory-wantComp) > 1e-9 {
		t.Errorf("compulsory = %.5f, want %.5f", m.Compulsory, wantComp)
	}
	if m.SMax != 16<<10 {
		t.Errorf("smax = %.0f, want 16384", m.SMax)
	}
}

func TestFitZeroMPForCleanBaseRuns(t *testing.T) {
	m := fitSynth(t, DefaultOptions(l2Bytes))
	for _, pe := range m.Points {
		if pe.FracSync != 0 {
			t.Errorf("n=%d: frac_sync = %g, want 0 (no ntsync events)", pe.Procs, pe.FracSync)
		}
		// Base runs replicate the uniprocessor CPI exactly, so no
		// imbalance should be inferred (small numerical slack).
		if pe.FracImb > 0.02 {
			t.Errorf("n=%d: frac_imb = %g, want ≈ 0", pe.Procs, pe.FracImb)
		}
	}
}

func TestFitTmNPerCount(t *testing.T) {
	m := fitSynth(t, DefaultOptions(l2Bytes))
	for _, pe := range m.Points {
		if math.Abs(pe.TmN-trueTm) > 0.1*trueTm {
			t.Errorf("tm(%d) = %.1f, want ≈ %.0f", pe.Procs, pe.TmN, trueTm)
		}
	}
}

func TestFitSyncKernelCurves(t *testing.T) {
	m := fitSynth(t, DefaultOptions(l2Bytes))
	for _, pe := range m.Points {
		want := tsyncAt(pe.Procs)
		if math.Abs(pe.TSync-want) > 0.15*want+5 {
			t.Errorf("tsync(%d) = %.1f, want ≈ %.0f", pe.Procs, pe.TSync, want)
		}
	}
	if m.CpiImb != 3.0 {
		t.Errorf("cpi_imb = %g, want 3.0", m.CpiImb)
	}
}

func TestFracSyncFollowsEq10(t *testing.T) {
	in := synthInputs()
	// Inject ntsync events into the n=4 base run.
	for i := range in.Base {
		if in.Base[i].Procs == 4 {
			in.Base[i].NtSync = 4000
			in.Base[i].Barriers = 100
		}
	}
	m, err := Fit(in, DefaultOptions(l2Bytes))
	if err != nil {
		t.Fatal(err)
	}
	pe, ok := m.Point(4)
	if !ok {
		t.Fatal("no point for n=4")
	}
	wantOst := 4000 * (m.CPI0 + pe.TSync)
	gotOst := pe.FracSync * pe.CpiSync * float64(pe.Meas.Instr)
	if math.Abs(gotOst-wantOst) > 1e-6*wantOst {
		t.Errorf("ostsync = %.0f, want %.0f (Eq. 10)", gotOst, wantOst)
	}
}

func TestFitValidation(t *testing.T) {
	good := synthInputs()

	noBase := good
	noBase.Base = nil

	fewUni := good
	fewUni.Uniproc = good.Uniproc[:2]

	badProc := good
	badProc.Uniproc = append([]Measurement{}, good.Uniproc...)
	badProc.Uniproc[1].Procs = 2

	noSpin := good
	noSpin.SpinCPI = 0

	noKernel := good
	noKernel.SyncKernel = nil

	cases := map[string]Inputs{
		"no base": noBase, "few uniproc": fewUni, "multi-proc in uniproc": badProc,
		"no spin": noSpin, "no kernel": noKernel,
	}
	for name, in := range cases {
		if _, err := Fit(in, DefaultOptions(l2Bytes)); err == nil {
			t.Errorf("%s: want error", name)
		}
	}
	if _, err := Fit(good, Options{L2Bytes: 0}); err == nil {
		t.Error("L2Bytes=0 accepted")
	}
	// Overflow threshold above every size: t2/tm unfittable.
	if _, err := Fit(good, Options{L2Bytes: 64 << 20}); err == nil {
		t.Error("no overflowing sizes accepted")
	}
}

func TestFitRequiresUniprocessorBaseRun(t *testing.T) {
	in := synthInputs()
	var base []Measurement
	for _, b := range in.Base {
		if b.Procs != 1 {
			base = append(base, b)
		}
	}
	in.Base = base
	if _, err := Fit(in, DefaultOptions(l2Bytes)); err == nil {
		t.Error("base set without n=1 accepted")
	}
}

func TestBreakdownIdentities(t *testing.T) {
	m := fitSynth(t, DefaultOptions(l2Bytes))
	bps := m.Breakdown()
	if len(bps) != len(m.Points) {
		t.Fatalf("breakdown has %d points", len(bps))
	}
	for i, bp := range bps {
		pe := m.Points[i]
		if bp.Procs != pe.Procs {
			t.Fatalf("order mismatch")
		}
		if bp.Base != float64(pe.Meas.Cycles) {
			t.Errorf("n=%d: Base = %g, want measured %d", bp.Procs, bp.Base, pe.Meas.Cycles)
		}
		if bp.MP() != bp.Sync+bp.Imb {
			t.Errorf("MP != Sync+Imb")
		}
		if math.Abs(bp.L2Lim()-(bp.Base-bp.NoL2)) > 1e-9 {
			t.Errorf("L2Lim identity broken")
		}
		// The Eq. 9 consistency: NoL2 ≈ NoMP + Sync + Imb (the joint solve
		// minimizes this residual; clean synthetic data should close it).
		res := bp.NoL2 - (bp.NoMP + bp.Sync + bp.Imb)
		if math.Abs(res) > 0.03*bp.Base {
			t.Errorf("n=%d: Eq. 9 residual %.3g vs base %.3g", bp.Procs, res, bp.Base)
		}
		if bp.Procs == 1 && (bp.Sync != 0 || bp.Imb != 0) {
			t.Error("MP effects nonzero on the uniprocessor")
		}
	}
}

func TestSpeedups(t *testing.T) {
	m := fitSynth(t, DefaultOptions(l2Bytes))
	sps := m.Speedups()
	var wall1 float64
	for _, sp := range sps {
		if sp.Procs == 1 {
			wall1 = sp.Wall
		}
	}
	for _, sp := range sps {
		want := wall1 / sp.Wall
		if math.Abs(sp.Speedup-want) > 1e-9 {
			t.Errorf("speedup(%d) = %.3f, want %.3f", sp.Procs, sp.Speedup, want)
		}
		// The synthetic base runs get superlinear speedups (smaller
		// per-processor working sets miss less), like T3dheat.
		if sp.Procs > 1 && sp.Speedup < float64(sp.Procs) {
			t.Errorf("speedup(%d) = %.2f, want superlinear", sp.Procs, sp.Speedup)
		}
	}
}

func TestInfiniteHitRates(t *testing.T) {
	m := fitSynth(t, DefaultOptions(l2Bytes))
	pts := m.InfiniteHitRates()
	for _, p := range pts {
		if p.Infinite < p.Measured-1e-9 && p.Procs == 1 {
			t.Errorf("n=1: infinite hit rate %.4f below measured %.4f", p.Infinite, p.Measured)
		}
		if p.Infinite < 0 || p.Infinite > 1 {
			t.Errorf("infinite hit rate out of range: %+v", p)
		}
	}
}

func TestCPIInfInfCurveAndHitRateAt(t *testing.T) {
	m := fitSynth(t, DefaultOptions(l2Bytes))
	if len(m.HitRateScan()) != 7 {
		t.Fatalf("scan points = %d, want 7", len(m.HitRateScan()))
	}
	// Evaluated curves behave as interpolants of the inputs.
	if got := m.HitRateAt(4 << 10); math.Abs(got-(1-0.0001/0.0011)) > 1e-9 {
		t.Errorf("HitRateAt(small) = %g", got)
	}
	if _, ok := m.Point(3); ok {
		t.Error("Point(3) should not exist")
	}
}

func TestRawTmNMode(t *testing.T) {
	// Paper-faithful mode must still fit and produce finite estimates.
	m, err := Fit(synthInputs(), Options{L2Bytes: l2Bytes, RawTmN: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, pe := range m.Points {
		if math.IsNaN(pe.TmN) || math.IsInf(pe.TmN, 0) || pe.TmN <= 0 {
			t.Errorf("raw tm(%d) = %g", pe.Procs, pe.TmN)
		}
	}
}

func TestFitImbalanceInjection(t *testing.T) {
	// Give the n=8 base run extra cycles and spin-like instructions and
	// verify the model attributes them to imbalance, not caching.
	in := synthInputs()
	for i := range in.Base {
		if in.Base[i].Procs == 8 {
			b := &in.Base[i]
			extraCycles := uint64(float64(b.Cycles) * 0.5)
			extraInstr := uint64(float64(extraCycles) / 3.0) // spin CPI = 3
			b.Cycles += extraCycles
			b.Instr += extraInstr
			b.CPI = float64(b.Cycles) / float64(b.Instr)
			// Re-derive per-instruction rates (misses unchanged).
			scale := float64(b.Instr-extraInstr) / float64(b.Instr)
			b.H2 *= scale
			b.Hm *= scale
			b.MemFrac = (b.MemFrac*float64(b.Instr-extraInstr) + 0.25*float64(extraInstr)) / float64(b.Instr)
			b.L1HitRate = 1 - (b.H2+b.Hm)/b.MemFrac
		}
	}
	m, err := Fit(in, DefaultOptions(l2Bytes))
	if err != nil {
		t.Fatal(err)
	}
	pe, _ := m.Point(8)
	imbCycles := m.CpiImb * pe.FracImb * float64(pe.Meas.Instr)
	wantImb := float64(pe.Meas.Cycles) / 3 // the injected 50% extra = 1/3 of new total
	if imbCycles < 0.6*wantImb || imbCycles > 1.4*wantImb {
		t.Errorf("imbalance cycles = %.3g, want ≈ %.3g", imbCycles, wantImb)
	}
}

func TestFitQualityDiagnostics(t *testing.T) {
	m := fitSynth(t, Options{L2Bytes: l2Bytes, Refit: true})
	// Noise-free synthetic data: the fit explains (nearly) all variance.
	if m.FitR2 < 0.99 {
		t.Errorf("R2 = %.4f, want ≈ 1 for exact data", m.FitR2)
	}
	if m.FitSizes < 2 {
		t.Errorf("FitSizes = %d", m.FitSizes)
	}
	if m.FitRMSE > 0.05 {
		t.Errorf("RMSE = %.4f, want small", m.FitRMSE)
	}
}
