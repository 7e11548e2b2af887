package sim

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"scaltool/internal/counters"
	"scaltool/internal/machine"
)

func cfg() machine.Config { return machine.TinyTest() }

// buildSweep makes a program of `regions` regions in which each of n
// processors sweeps its own slice of an array of dataBytes.
func buildSweep(t *testing.T, n int, dataBytes uint64, regions int, write bool) *Program {
	t.Helper()
	c := cfg()
	p, err := NewProgram("sweep", n, dataBytes, c.PageBytes)
	if err != nil {
		t.Fatal(err)
	}
	arr := p.MustAlloc("a", dataBytes)
	per := dataBytes / uint64(n)
	for r := 0; r < regions; r++ {
		reg := p.AddRegion("sweep")
		for pr := 0; pr < n; pr++ {
			base := arr.Base + uint64(pr)*per
			reg.Proc(pr).Seq(base, per/8, 8, write, 2)
		}
	}
	return p
}

func run(t *testing.T, p *Program) *Result {
	t.Helper()
	res, err := Run(cfg(), p)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestUniprocessorComputeOnly(t *testing.T) {
	c := cfg()
	p, err := NewProgram("compute", 1, 1024, c.PageBytes)
	if err != nil {
		t.Fatal(err)
	}
	p.AddRegion("calc").Proc(0).Compute(1000)
	res := run(t, p)

	// Wall = compute + barrier entry + fetchop (no spin, no release miss).
	wantBusy := 1000 * c.Cost.ComputeCPI
	wantSync := float64(c.Sync.BarrierInstr)*c.Cost.ComputeCPI + float64(c.Lat.SyncAcquire)
	if math.Abs(res.Ground.BusyCycles-wantBusy) > 1e-9 {
		t.Errorf("busy = %g, want %g", res.Ground.BusyCycles, wantBusy)
	}
	if math.Abs(res.Ground.SyncCycles-wantSync) > 1e-9 {
		t.Errorf("sync = %g, want %g", res.Ground.SyncCycles, wantSync)
	}
	if res.Ground.ImbCycles != 0 {
		t.Errorf("imb = %g, want 0", res.Ground.ImbCycles)
	}
	if math.Abs(res.WallCycles-(wantBusy+wantSync)) > 1e-9 {
		t.Errorf("wall = %g, want %g", res.WallCycles, wantBusy+wantSync)
	}
	tot := res.Report.Total()
	if got := tot[counters.GradInstr]; got != 1000+uint64(c.Sync.BarrierInstr) {
		t.Errorf("instr = %d", got)
	}
	if tot[counters.StoreShared] != 0 {
		t.Error("uniprocessor run recorded store-shared events")
	}
	if res.Report.Barriers != 1 {
		t.Errorf("barriers = %d, want 1", res.Report.Barriers)
	}
	if err := res.Report.Validate(); err != nil {
		t.Errorf("report invalid: %v", err)
	}
}

func TestAttributionSumsToWall(t *testing.T) {
	// Invariant: per processor, busy+sync+imb == wall.
	for _, n := range []int{1, 2, 4, 8} {
		p := buildSweep(t, n, 16<<10, 3, false)
		res := run(t, p)
		for pr := 0; pr < n; pr++ {
			sum := res.Ground.PerProcBusy[pr] + res.Ground.PerProcSync[pr] + res.Ground.PerProcImb[pr]
			if math.Abs(sum-res.WallCycles) > 1e-6*res.WallCycles {
				t.Errorf("n=%d proc %d: busy+sync+imb = %g, wall = %g", n, pr, sum, res.WallCycles)
			}
		}
	}
}

func TestDeterminism(t *testing.T) {
	a := run(t, buildSweep(t, 4, 8<<10, 4, true))
	b := run(t, buildSweep(t, 4, 8<<10, 4, true))
	if !reflect.DeepEqual(a.Report, b.Report) {
		t.Fatal("reports differ between identical runs")
	}
	if a.WallCycles != b.WallCycles || !reflect.DeepEqual(a.Ground, b.Ground) {
		t.Fatal("ground truth differs between identical runs")
	}
}

func TestSecondSweepHitsCache(t *testing.T) {
	c := cfg()
	// Data fits in L2 (1 KiB L2, use 512 B): second region re-reads and
	// must not miss L2.
	p, _ := NewProgram("fit", 1, 512, c.PageBytes)
	arr := p.MustAlloc("a", 512)
	for r := 0; r < 2; r++ {
		p.AddRegion("sweep").Proc(0).Read(arr.Base, 512/8, 8, 1)
	}
	res := run(t, p)
	tot := res.Report.Total()
	wantMisses := uint64(512 / c.L2.LineBytes) // compulsory only
	if got := tot[counters.L2Misses]; got != wantMisses {
		t.Errorf("L2 misses = %d, want %d (compulsory only)", got, wantMisses)
	}
	if res.Ground.Conflict != 0 || res.Ground.Coherence != 0 {
		t.Errorf("unexpected conflict/coherence misses: %+v", res.Ground)
	}
}

func TestOverflowCausesConflictMisses(t *testing.T) {
	c := cfg()
	// 4 KiB data through a 1 KiB L2, swept twice: second sweep conflicts.
	size := uint64(4 * c.L2.SizeBytes)
	p, _ := NewProgram("overflow", 1, size, c.PageBytes)
	arr := p.MustAlloc("a", size)
	for r := 0; r < 2; r++ {
		p.AddRegion("sweep").Proc(0).Read(arr.Base, size/8, 8, 1)
	}
	res := run(t, p)
	if res.Ground.Conflict == 0 {
		t.Fatal("no conflict misses despite 4x L2 overflow")
	}
	lines := size / uint64(c.L2.LineBytes)
	if res.Ground.Compulsory != uint64(lines) {
		t.Errorf("compulsory = %d, want %d", res.Ground.Compulsory, lines)
	}
}

func TestCrossRegionCoherenceMisses(t *testing.T) {
	c := cfg()
	// Proc 0 writes a block in region 1; proc 1 reads it in region 2 and
	// proc 0 rewrites it in region 3 after proc 1's read made it Shared.
	p, _ := NewProgram("share", 2, 1024, c.PageBytes)
	arr := p.MustAlloc("a", 256)
	count := uint64(256 / 8)
	p.AddRegion("w0").Proc(0).Write(arr.Base, count, 8, 1)
	p.AddRegion("r1").Proc(1).Read(arr.Base, count, 8, 1)
	p.AddRegion("w0b").Proc(0).Write(arr.Base, count, 8, 1)
	p.AddRegion("r1b").Proc(1).Read(arr.Base, count, 8, 1)
	res := run(t, p)

	// Proc 1's second read must be coherence misses (its copy was
	// invalidated by proc 0's rewrite). Count: lines in the block.
	lines := uint64(256 / c.L2.LineBytes)
	// Barrier release misses also count as coherence (4 barriers × 2 procs
	// where n>1 → 8). Data coherence misses are separate.
	dataCoh := res.Ground.Coherence - 8
	if dataCoh != lines {
		t.Errorf("data coherence misses = %d, want %d", dataCoh, lines)
	}
	if res.Ground.Invalidations == 0 {
		t.Error("no invalidations sent")
	}
	// Proc 0's rewrite of the Shared lines must raise store-to-shared
	// events beyond the barrier ones (4 barriers/proc = 8 total).
	tot := res.Report.Total()
	if got := tot[counters.StoreShared]; got <= 8 {
		t.Errorf("store-shared = %d, want > 8 (upgrades)", got)
	}
}

func TestSerialSectionCausesImbalance(t *testing.T) {
	c := cfg()
	p, _ := NewProgram("serial", 4, 1024, c.PageBytes)
	p.AddRegion("serial").Proc(0).Compute(100_000)
	res := run(t, p)
	if res.Ground.ImbCycles < 3*0.9*100_000*c.Cost.ComputeCPI {
		t.Errorf("imbalance = %g, want ≈ 3 × serial work", res.Ground.ImbCycles)
	}
	// Spinners execute instructions.
	spinInstr := res.Report.PerProc[1][counters.GradInstr]
	if spinInstr <= uint64(c.Sync.BarrierInstr) {
		t.Errorf("idle proc executed %d instructions, want spin work", spinInstr)
	}
}

func TestBarrierCostGrowsWithProcs(t *testing.T) {
	// A sync kernel: empty regions. Per-barrier wall cost must grow with n
	// (fetchop serialization at the barrier home).
	per := func(n int) float64 {
		c := cfg()
		p, _ := NewProgram("synck", n, 1024, c.PageBytes)
		for r := 0; r < 10; r++ {
			reg := p.AddRegion("barrier")
			for pr := 0; pr < n; pr++ {
				reg.Proc(pr).Compute(10)
			}
		}
		res := run(t, p)
		return res.WallCycles / 10
	}
	c2, c8, c32 := per(2), per(8), per(32)
	if !(c2 < c8 && c8 < c32) {
		t.Fatalf("barrier cost not increasing: %g, %g, %g", c2, c8, c32)
	}
}

func TestLockSerialization(t *testing.T) {
	c := cfg()
	n := 4
	p, _ := NewProgram("locks", n, 1024, c.PageBytes)
	reg := p.AddRegion("cs")
	for pr := 0; pr < n; pr++ {
		reg.Proc(pr).Critical(1000)
	}
	res := run(t, p)
	if res.Report.Locks != uint64(n) {
		t.Errorf("locks = %d, want %d", res.Report.Locks, n)
	}
	// All critical sections serialize: wall ≥ n × one CS duration.
	oneCS := float64(c.Sync.LockInstr+1000) * c.Cost.ComputeCPI
	if res.WallCycles < float64(n)*oneCS {
		t.Errorf("wall = %g, want ≥ %g (serialized)", res.WallCycles, float64(n)*oneCS)
	}
	// Lock waiting is attributed to sync, and the last processor waits the
	// most.
	if res.Ground.PerProcSync[n-1] <= res.Ground.PerProcSync[0] {
		t.Error("lock wait not increasing with processor ID (FIFO model)")
	}
}

func TestFirstTouchDistributesHomes(t *testing.T) {
	p := buildSweep(t, 4, 16<<10, 1, false)
	res := run(t, p)
	// With block-distributed first touch, remote misses are rare in the
	// first sweep — every processor's pages are local. Verify via wall
	// time: compare with AllOnZero placement, which must be slower.
	p2 := buildSweep(t, 4, 16<<10, 1, false)
	p2.Placement = 2 // memdsm.AllOnZero
	res2 := run(t, p2)
	if res2.WallCycles <= res.WallCycles {
		t.Errorf("centralized placement (%g) not slower than first-touch (%g)", res2.WallCycles, res.WallCycles)
	}
}

func TestReportConsistency(t *testing.T) {
	res := run(t, buildSweep(t, 8, 32<<10, 3, true))
	if err := res.Report.Validate(); err != nil {
		t.Fatalf("report: %v", err)
	}
	tot := res.Report.Total()
	if tot[counters.L1DMisses] < tot[counters.L2Misses] {
		t.Error("more L2 than L1 misses")
	}
	// Cycles counter per proc equals wall (every processor runs the whole
	// time), up to per-region rounding.
	for pr, s := range res.Report.PerProc {
		if math.Abs(float64(s[counters.Cycles])-res.WallCycles) > 4 {
			t.Errorf("proc %d cycles = %d, wall = %g", pr, s[counters.Cycles], res.WallCycles)
		}
	}
	if res.Report.TouchedPages == 0 {
		t.Error("no pages touched")
	}
	// Ground-truth miss classes must sum to the measured L2 misses.
	g := res.Ground
	if g.Compulsory+g.Coherence+g.Conflict != tot[counters.L2Misses] {
		t.Errorf("miss classes %d+%d+%d != total %d", g.Compulsory, g.Coherence, g.Conflict, tot[counters.L2Misses])
	}
}

func TestRegionAttributionRecorded(t *testing.T) {
	res := run(t, buildSweep(t, 2, 4<<10, 5, false))
	if len(res.Ground.Regions) != 5 {
		t.Fatalf("regions = %d, want 5", len(res.Ground.Regions))
	}
	var sum float64
	for _, r := range res.Ground.Regions {
		if r.Name != "sweep" {
			t.Errorf("region name %q", r.Name)
		}
		sum += r.Busy + r.Sync + r.Imb
	}
	want := res.Ground.BusyCycles + res.Ground.SyncCycles + res.Ground.ImbCycles
	if math.Abs(sum-want) > 1e-6*want {
		t.Errorf("region attributions sum %g != totals %g", sum, want)
	}
}

func TestProgramValidation(t *testing.T) {
	c := cfg()
	if _, err := NewProgram("x", 0, 1, c.PageBytes); err == nil {
		t.Error("procs=0 accepted")
	}
	if _, err := NewProgram("x", 1, 0, c.PageBytes); err == nil {
		t.Error("size=0 accepted")
	}
	p, _ := NewProgram("x", 1, 1024, c.PageBytes)
	if _, err := Run(cfg(), p); err == nil {
		t.Error("empty program accepted")
	}
	bad := machine.Config{}
	p.AddRegion("r")
	if _, err := Run(bad, p); err == nil {
		t.Error("invalid machine accepted")
	}
}

func TestNegativeStrideSweep(t *testing.T) {
	c := cfg()
	p, _ := NewProgram("rev", 1, 1024, c.PageBytes)
	arr := p.MustAlloc("a", 1024)
	p.AddRegion("rev").Proc(0).Seq(arr.Base+1016, 128, -8, false, 1)
	res := run(t, p)
	lines := uint64(1024 / c.L2.LineBytes)
	if res.Ground.Compulsory != lines {
		t.Errorf("compulsory = %d, want %d", res.Ground.Compulsory, lines)
	}
}

func TestGatherAccesses(t *testing.T) {
	c := cfg()
	p, _ := NewProgram("gather", 1, 1024, c.PageBytes)
	arr := p.MustAlloc("a", 1024)
	addrs := []uint64{arr.Addr(0), arr.Addr(512), arr.Addr(16), arr.Addr(900)}
	p.AddRegion("g").Proc(0).Gather(addrs, false, 3)
	res := run(t, p)
	tot := res.Report.Total()
	wantLoads := uint64(len(addrs))
	if got := tot[counters.GradLoads]; got != wantLoads {
		t.Errorf("loads = %d, want %d", got, wantLoads)
	}
}

func TestStreamBuilderNoOps(t *testing.T) {
	var s Stream
	s.Compute(0)
	s.Seq(0, 0, 8, false, 1)
	s.Gather(nil, false, 1)
	if !s.Empty() {
		t.Fatal("zero-size ops were appended")
	}
}

func TestWallCyclesPositiveAndScales(t *testing.T) {
	// More data → more cycles, single proc.
	small := run(t, buildSweep(t, 1, 4<<10, 2, false))
	large := run(t, buildSweep(t, 1, 16<<10, 2, false))
	if large.WallCycles <= small.WallCycles {
		t.Error("larger dataset not slower")
	}
}

func TestTLBMissesCountedAndCharged(t *testing.T) {
	c := cfg()
	c.TLBEntries = 2
	c.Lat.TLBMiss = 50
	// Stream across many pages: every page transition misses the tiny TLB.
	size := uint64(16 * c.PageBytes)
	p, _ := NewProgram("tlb", 1, size, c.PageBytes)
	arr := p.MustAlloc("a", size)
	p.AddRegion("sweep").Proc(0).Read(arr.Base, size/8, 8, 1)
	res := run2(t, c, p)
	tot := res.Report.Total()
	if got := tot[counters.TLBMisses]; got != 16 {
		t.Fatalf("TLB misses = %d, want 16 (one per page)", got)
	}

	// Disabled TLB: zero misses, and the run is cheaper by misses × penalty.
	c2 := cfg()
	c2.TLBEntries = 0
	c2.Lat.TLBMiss = 50
	p2, _ := NewProgram("tlb", 1, size, c2.PageBytes)
	arr2 := p2.MustAlloc("a", size)
	p2.AddRegion("sweep").Proc(0).Read(arr2.Base, size/8, 8, 1)
	res2 := run2(t, c2, p2)
	if res2.Report.Total()[counters.TLBMisses] != 0 {
		t.Fatal("disabled TLB counted misses")
	}
	if diff := res.WallCycles - res2.WallCycles; math.Abs(diff-16*50) > 1e-6 {
		t.Fatalf("TLB cost = %g cycles, want %d", diff, 16*50)
	}
}

// run2 is run with an explicit machine configuration.
func run2(t *testing.T, c machine.Config, p *Program) *Result {
	t.Helper()
	res, err := Run(c, p)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestCoherenceInvariantAfterMerges checks the cross-cache invariant the
// directory must maintain: after every region, a line written by one
// processor is cached by no other processor.
func TestCoherenceInvariantAfterMerges(t *testing.T) {
	c := cfg()
	n := 4
	p, _ := NewProgram("coh", n, 4096, c.PageBytes)
	arr := p.MustAlloc("a", 1024)
	// Everyone reads everything; then each processor in turn rewrites the
	// whole block; interleave reads to create stale copies.
	all := p.AddRegion("read_all")
	for pr := 0; pr < n; pr++ {
		all.Proc(pr).Read(arr.Base, 128, 8, 1)
	}
	for w := 0; w < n; w++ {
		reg := p.AddRegion("rewrite")
		reg.Proc(w).Write(arr.Base, 128, 8, 1)
		reg.Proc((w+1)%n).Read(arr.Base+512, 64, 8, 1)
	}
	res := run(t, p)
	// The last writer is processor n-1 for the first 512 bytes; all other
	// caches must have been invalidated at the merges. We can't reach the
	// hierarchies from here, but the counters prove it: every reader after
	// a rewrite must re-miss, so coherence misses are substantial.
	if res.Ground.Coherence < 8 {
		t.Fatalf("coherence misses = %d; invalidations not flowing", res.Ground.Coherence)
	}
	if res.Ground.Invalidations < 8 {
		t.Fatalf("invalidations = %d", res.Ground.Invalidations)
	}
}

func TestRegionTraceAndSummary(t *testing.T) {
	res := run(t, buildSweep(t, 2, 4<<10, 3, false))
	var sb strings.Builder
	if err := res.WriteRegionTrace(&sb); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 1+3 { // header + 3 regions
		t.Fatalf("trace lines = %d:\n%s", len(lines), sb.String())
	}
	if !strings.HasPrefix(lines[0], "index,region,busy_cycles") {
		t.Fatalf("header = %q", lines[0])
	}
	sum := res.AggregateRegions()
	if len(sum) != 1 || sum[0].Name != "sweep" {
		t.Fatalf("summary = %+v", sum)
	}
	wantBusy := res.Ground.BusyCycles
	if math.Abs(sum[0].Busy-wantBusy) > 1e-6*wantBusy {
		t.Fatalf("summary busy %g != total %g", sum[0].Busy, wantBusy)
	}
}

func TestMSIProtocolFiresStoreSharedOnPrivateData(t *testing.T) {
	c := cfg()
	c.Protocol = machine.MSI
	p, _ := NewProgram("msi", 1, 512, c.PageBytes)
	arr := p.MustAlloc("a", 512)
	reg := p.AddRegion("rw")
	reg.Proc(0).Read(arr.Base, 64, 8, 1)
	reg.Proc(0).Write(arr.Base, 64, 8, 1) // write-after-read on private data
	res := run2(t, c, p)
	tot := res.Report.Total()
	// Under MSI every first write to a read line upgrades: one event per
	// line. Under Illinois (the default) the same program fires none.
	wantLines := uint64(512 / c.L2.LineBytes)
	if got := tot[counters.StoreShared]; got != wantLines {
		t.Fatalf("MSI store-shared = %d, want %d", got, wantLines)
	}

	c2 := cfg()
	p2, _ := NewProgram("mesi", 1, 512, c2.PageBytes)
	arr2 := p2.MustAlloc("a", 512)
	reg2 := p2.AddRegion("rw")
	reg2.Proc(0).Read(arr2.Base, 64, 8, 1)
	reg2.Proc(0).Write(arr2.Base, 64, 8, 1)
	res2 := run2(t, c2, p2)
	if got := res2.Report.Total()[counters.StoreShared]; got != 0 {
		t.Fatalf("Illinois store-shared = %d, want 0 (silent E->M)", got)
	}
}

func TestSyncAddressesDistinct(t *testing.T) {
	c := cfg()
	p, _ := NewProgram("addr", 2, 1024, c.PageBytes)
	if p.BarrierAddr() == p.LockAddr() {
		t.Fatal("barrier and lock variables share an address")
	}
	// Both live in the reserved sync page, before any app allocation.
	arr := p.MustAlloc("a", 128)
	if arr.Base <= p.LockAddr() {
		t.Fatal("app allocation overlaps the sync page")
	}
}

func TestUniprocessorLockNoContention(t *testing.T) {
	c := cfg()
	p, _ := NewProgram("lock1", 1, 1024, c.PageBytes)
	p.AddRegion("cs").Proc(0).Critical(100)
	res := run(t, p)
	// One processor: lock cost but no queueing wait beyond it.
	wantCS := float64(c.Sync.LockInstr+100)*c.Cost.ComputeCPI + float64(c.Lat.SyncAcquire)
	if math.Abs(res.Ground.BusyCycles-wantCS) > 1e-9 {
		t.Fatalf("busy = %g, want %g", res.Ground.BusyCycles, wantCS)
	}
	if res.Report.Locks != 1 {
		t.Fatalf("locks = %d", res.Report.Locks)
	}
}

func TestSegmentReportUnknownAndKnown(t *testing.T) {
	res := run(t, buildSweep(t, 2, 4<<10, 3, false))
	if _, err := res.SegmentReport("nothing"); err == nil {
		t.Fatal("unknown segment accepted")
	}
	rep, err := res.SegmentReport("sweep")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Barriers != 3 {
		t.Fatalf("segment barriers = %d, want 3", rep.Barriers)
	}
	// The sweep segment is the whole program here: totals match.
	if rep.Total() != res.Report.Total() {
		t.Fatal("whole-program segment differs from the report")
	}
	if got := res.Segments(); len(got) != 1 || got[0] != "sweep" {
		t.Fatalf("Segments = %v", got)
	}
}
