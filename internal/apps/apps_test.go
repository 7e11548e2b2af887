package apps

import (
	"testing"
	"testing/quick"

	"scaltool/internal/machine"
	"scaltool/internal/sim"
)

func cfg() machine.Config { return machine.ScaledOrigin() }

func TestRegistry(t *testing.T) {
	names := Names()
	want := []string{"hydro2d", "matmul", "spmv", "swim", "t3dheat"}
	if len(names) != len(want) {
		t.Fatalf("Names = %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("Names = %v, want %v", names, want)
		}
	}
	for _, n := range want {
		a, err := ByName(n)
		if err != nil || a.Name() != n {
			t.Fatalf("ByName(%q) = %v, %v", n, a, err)
		}
		if a.Description() == "" || a.ParallelModel() == "" {
			t.Errorf("%s: empty metadata", n)
		}
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("unknown app accepted")
	}
}

func TestRegisterDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	register(NewSwim())
}

func TestBlockPartitionCoversExactly(t *testing.T) {
	f := func(total uint32, procs8 uint8) bool {
		procs := int(procs8%32) + 1
		tot := uint64(total % 100000)
		parts := BlockPartition(tot, procs)
		if len(parts) != procs {
			return false
		}
		var sum, next uint64
		for _, r := range parts {
			if r.Start != next {
				return false
			}
			next = r.End()
			sum += r.Count
		}
		// Near-equal: max-min ≤ 1.
		minC, maxC := parts[0].Count, parts[0].Count
		for _, r := range parts {
			if r.Count < minC {
				minC = r.Count
			}
			if r.Count > maxC {
				maxC = r.Count
			}
		}
		return sum == tot && maxC-minC <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestBlockPartitionAlignedProperties(t *testing.T) {
	f := func(total uint32, procs8, align8 uint8) bool {
		procs := int(procs8%32) + 1
		align := uint64(1) << (align8 % 5) // 1..16
		tot := uint64(total%100000) + uint64(procs)*align
		parts := BlockPartitionAligned(tot, procs, align)
		var next uint64
		for i, r := range parts {
			if r.Start != next {
				return false
			}
			// All boundaries except the final end are aligned.
			if i < len(parts)-1 && r.End()%align != 0 {
				return false
			}
			next = r.End()
		}
		return next == tot
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestClampRange(t *testing.T) {
	cases := []struct {
		start int64
		count uint64
		total uint64
		want  Range
	}{
		{-5, 3, 100, Range{}},
		{-2, 5, 100, Range{Start: 0, Count: 3}},
		{98, 5, 100, Range{Start: 98, Count: 2}},
		{100, 5, 100, Range{}},
		{10, 5, 100, Range{Start: 10, Count: 5}},
	}
	for _, c := range cases {
		if got := clampRange(c.start, c.count, c.total); got != c.want {
			t.Errorf("clampRange(%d,%d,%d) = %+v, want %+v", c.start, c.count, c.total, got, c.want)
		}
	}
}

func TestRoots(t *testing.T) {
	for _, c := range []struct{ v, want uint64 }{{1, 1}, {7, 1}, {8, 2}, {26, 2}, {27, 3}, {1000, 10}} {
		if got := icbrt(c.v); got != c.want {
			t.Errorf("icbrt(%d) = %d, want %d", c.v, got, c.want)
		}
	}
	for _, c := range []struct{ v, want uint64 }{{1, 1}, {3, 1}, {4, 2}, {80, 8}, {81, 9}} {
		if got := isqrt(c.v); got != c.want {
			t.Errorf("isqrt(%d) = %d, want %d", c.v, got, c.want)
		}
	}
}

// Every registered app must build valid, runnable programs across processor
// counts, quantize sizes sensibly, and run deterministically.
func TestAppsBuildAndRun(t *testing.T) {
	c := cfg()
	for _, name := range Names() {
		app, _ := ByName(name)
		s0 := app.DefaultBytes(c)
		if s0 == 0 {
			t.Fatalf("%s: zero default size", name)
		}
		for _, procs := range []int{1, 4} {
			prog, err := app.Build(c, procs, s0)
			if err != nil {
				t.Fatalf("%s Build(%d): %v", name, procs, err)
			}
			if err := prog.Validate(); err != nil {
				t.Fatalf("%s: invalid program: %v", name, err)
			}
			if prog.Procs != procs {
				t.Fatalf("%s: procs = %d", name, prog.Procs)
			}
			// Quantized size within 25% of the request.
			ratio := float64(prog.DataBytes) / float64(s0)
			if ratio < 0.75 || ratio > 1.25 {
				t.Errorf("%s: achieved size %d far from request %d", name, prog.DataBytes, s0)
			}
			res, err := sim.Run(c, prog)
			if err != nil {
				t.Fatalf("%s run: %v", name, err)
			}
			if err := res.Report.Validate(); err != nil {
				t.Fatalf("%s report: %v", name, err)
			}
			if res.Report.Barriers == 0 {
				t.Errorf("%s: no barriers recorded", name)
			}
		}
	}
}

func TestAppsRejectTinySizes(t *testing.T) {
	c := cfg()
	for _, name := range Names() {
		app, _ := ByName(name)
		if _, err := app.Build(c, 1, 64); err == nil {
			t.Errorf("%s accepted a 64-byte data set", name)
		}
	}
}

func TestT3dheatScalesSuperlinearlyThenSaturates(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign-scale simulation")
	}
	c := cfg()
	app := NewT3dheat()
	s0 := app.DefaultBytes(c)
	wall := map[int]float64{}
	for _, n := range []int{1, 2, 8, 16, 32} {
		prog, err := app.Build(c, n, s0)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.Run(c, prog)
		if err != nil {
			t.Fatal(err)
		}
		wall[n] = res.WallCycles
	}
	// Superlinear at 2 and 8 (insufficient caching space at low counts).
	if sp := wall[1] / wall[2]; sp < 2.0 {
		t.Errorf("speedup(2) = %.2f, want ≥ 2 (superlinear)", sp)
	}
	if sp := wall[1] / wall[8]; sp < 8.5 {
		t.Errorf("speedup(8) = %.2f, want clearly superlinear", sp)
	}
	// Saturation past 16: the 32-processor run gains little or loses.
	sp16, sp32 := wall[1]/wall[16], wall[1]/wall[32]
	if sp32 > 1.25*sp16 {
		t.Errorf("speedup does not saturate: sp16=%.1f sp32=%.1f", sp16, sp32)
	}
}

func TestHydro2dSerialSectionLimitsSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign-scale simulation")
	}
	c := cfg()
	app := NewHydro2d()
	s0 := app.DefaultBytes(c)
	run := func(n int) *sim.Result {
		prog, err := app.Build(c, n, s0)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.Run(c, prog)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	r1, r32 := run(1), run(32)
	sp := r1.WallCycles / r32.WallCycles
	if sp < 6 || sp > 16 {
		t.Errorf("speedup(32) = %.1f, want modest (paper: ~9)", sp)
	}
	// Imbalance must dominate the multiprocessor cost (Figure 9).
	if r32.Ground.ImbCycles < 2*r32.Ground.SyncCycles {
		t.Errorf("imb = %.3g, sync = %.3g: imbalance should dominate", r32.Ground.ImbCycles, r32.Ground.SyncCycles)
	}
}

func TestSwimNearLinearImbalanceDominated(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign-scale simulation")
	}
	c := cfg()
	app := NewSwim()
	s0 := app.DefaultBytes(c)
	run := func(n int) *sim.Result {
		prog, err := app.Build(c, n, s0)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.Run(c, prog)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	r1, r32 := run(1), run(32)
	sp := r1.WallCycles / r32.WallCycles
	if sp < 18 {
		t.Errorf("speedup(32) = %.1f, want near-linear (paper: ~24)", sp)
	}
	if r32.Ground.ImbCycles <= r32.Ground.SyncCycles {
		t.Errorf("imb = %.3g ≤ sync = %.3g: imbalance should dominate (Figure 12)", r32.Ground.ImbCycles, r32.Ground.SyncCycles)
	}
	// The genuine data sharing behind the paper's §4.3 divergence.
	if r32.Ground.SharingLines == 0 {
		t.Error("no sharing events; Swim needs boundary sharing")
	}
}

func TestKernels(t *testing.T) {
	c := cfg()
	syncK, err := BuildSyncKernel(c, 4, 50)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(c, syncK)
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.Barriers != 50 {
		t.Fatalf("sync kernel barriers = %d", res.Report.Barriers)
	}
	// The kernel is spin-free by design: imbalance ≈ 0 (all arrivals equal).
	if res.Ground.ImbCycles > 0.05*res.Ground.SyncCycles {
		t.Errorf("sync kernel has imbalance %.3g vs sync %.3g", res.Ground.ImbCycles, res.Ground.SyncCycles)
	}

	spinK, err := BuildSpinKernel(c, 4, 5, 10_000)
	if err != nil {
		t.Fatal(err)
	}
	res, err = sim.Run(c, spinK)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ground.ImbCycles == 0 {
		t.Error("spin kernel produced no imbalance")
	}
}

func TestKernelValidation(t *testing.T) {
	c := cfg()
	if _, err := BuildSyncKernel(c, 2, 0); err == nil {
		t.Error("sync kernel with 0 barriers accepted")
	}
	if _, err := BuildSpinKernel(c, 1, 5, 10); err == nil {
		t.Error("spin kernel with 1 proc accepted")
	}
	if _, err := BuildSpinKernel(c, 2, 0, 10); err == nil {
		t.Error("spin kernel with 0 phases accepted")
	}
}

func TestSyncKernelBarrierCostGrowsWithN(t *testing.T) {
	c := cfg()
	per := func(n int) float64 {
		k, err := BuildSyncKernel(c, n, 40)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.Run(c, k)
		if err != nil {
			t.Fatal(err)
		}
		return res.WallCycles / 40
	}
	if !(per(2) < per(8) && per(8) < per(32)) {
		t.Fatalf("per-barrier cost not increasing: %g %g %g", per(2), per(8), per(32))
	}
}
