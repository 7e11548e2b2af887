package model

import (
	"math"
	"testing"
)

func TestFracSyncFromBarriers(t *testing.T) {
	in := synthInputs()
	for i := range in.Base {
		if in.Base[i].Procs == 4 {
			in.Base[i].Barriers = 50
			in.Base[i].NtSync = 50 * 4 // pure barrier events
		}
	}
	m, err := Fit(in, DefaultOptions(l2Bytes))
	if err != nil {
		t.Fatal(err)
	}
	fBar, ok := m.FracSyncFromBarriers(4)
	if !ok {
		t.Fatal("no estimate at n=4")
	}
	pe, _ := m.Point(4)
	// With ntsync = barriers × procs and no locks, the two §2.4.2 methods
	// must agree exactly.
	if math.Abs(fBar-pe.FracSync) > 1e-12 {
		t.Fatalf("barrier method %.6g vs ntsync method %.6g", fBar, pe.FracSync)
	}
	// Uniprocessor: zero.
	if f, ok := m.FracSyncFromBarriers(1); !ok || f != 0 {
		t.Fatalf("n=1 frac = %g, %v", f, ok)
	}
	if _, ok := m.FracSyncFromBarriers(64); ok {
		t.Fatal("unmeasured count accepted")
	}
}

// TestFracSyncFromBarriersPricesLocks is method 1's known answer with
// locks: a lock acquire/release costs one barrier participation, so with
// ntsync = barriers·procs + locks the two §2.4.2 methods must agree, and
// the estimate must be exactly that many events at cpi0 + tsync(n).
func TestFracSyncFromBarriersPricesLocks(t *testing.T) {
	in := synthInputs()
	for i := range in.Base {
		if in.Base[i].Procs == 4 {
			in.Base[i].Barriers = 20
			in.Base[i].Locks = 50
			in.Base[i].NtSync = 20*4 + 50
		}
	}
	m, err := Fit(in, DefaultOptions(l2Bytes))
	if err != nil {
		t.Fatal(err)
	}
	fBar, ok := m.FracSyncFromBarriers(4)
	if !ok {
		t.Fatal("no estimate at n=4")
	}
	pe, _ := m.Point(4)
	if math.Abs(fBar-pe.FracSync) > 1e-12 {
		t.Fatalf("barrier method %.6g vs ntsync method %.6g", fBar, pe.FracSync)
	}
	want := (20*4 + 50) * (m.CPI0 + pe.TSync) / (pe.CpiSync * float64(pe.Meas.Instr))
	if !(want > 0 && want < 0.95) || math.Abs(fBar-want) > 1e-12 {
		t.Fatalf("frac_sync = %.6g, want %.6g (130 events at cpi0 + tsync)", fBar, want)
	}
}

func TestSharingEstimate(t *testing.T) {
	in := synthInputs()
	for i := range in.Base {
		b := &in.Base[i]
		if b.Procs != 8 {
			continue
		}
		// Inject coherence: the measured multiprocessor hit rate drops
		// below the uniprocessor s0/n curve, and ntsync grows beyond the
		// barrier events.
		b.Barriers = 40
		b.NtSync = 40*8 + 1000 // 1000 sharing upgrades
		b.L2HitRate -= 0.05    // Coh(s0,8) ≈ 0.05
		// Keep Hm consistent with the lower hit rate.
		l1miss := b.H2 + b.Hm
		b.Hm = l1miss * (1 - b.L2HitRate)
		b.H2 = l1miss - b.Hm
		b.CPI = trueCPI0 + b.H2*trueT2 + b.Hm*trueTm
		b.Cycles = uint64(b.CPI * float64(b.Instr))
	}
	m, err := Fit(in, DefaultOptions(l2Bytes))
	if err != nil {
		t.Fatal(err)
	}
	est, ok := m.Sharing(8)
	if !ok {
		t.Fatal("no estimate")
	}
	if est.NtSyncPollution != 1000 {
		t.Errorf("pollution = %d, want 1000", est.NtSyncPollution)
	}
	pe, _ := m.Point(8)
	wantCoh := pe.Coh * (pe.Meas.H2 + pe.Meas.Hm) * float64(pe.Meas.Instr)
	if math.Abs(est.CoherenceMisses-wantCoh) > 1e-6*wantCoh {
		t.Errorf("coherence misses = %g, want %g", est.CoherenceMisses, wantCoh)
	}
	if est.SyncInduced != 40*8 {
		t.Errorf("sync-induced = %g", est.SyncInduced)
	}
	if est.DataMisses != est.CoherenceMisses-est.SyncInduced {
		t.Errorf("data misses = %g", est.DataMisses)
	}
	if est.Cycles <= 0 {
		t.Error("sharing cycles should be positive")
	}
	// The ntsync method must exceed the barrier method when polluted.
	if est.FracSyncNtSync <= est.FracSyncBarriers {
		t.Errorf("pollution not visible: ntsync %.4g ≤ barriers %.4g",
			est.FracSyncNtSync, est.FracSyncBarriers)
	}
}

func TestSharingUniprocessorAndMissing(t *testing.T) {
	m := fitSynth(t, DefaultOptions(l2Bytes))
	est, ok := m.Sharing(1)
	if !ok || est.Cycles != 0 || est.DataMisses != 0 {
		t.Fatalf("n=1 sharing = %+v, %v", est, ok)
	}
	if _, ok := m.Sharing(999); ok {
		t.Fatal("unmeasured count accepted")
	}
}
