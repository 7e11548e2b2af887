package scaltool_test

// One benchmark per table and figure of the paper's evaluation section.
// Each benchmark regenerates its table/figure through the same code path as
// cmd/experiments and prints the rows once (run with -v to see them):
//
//	go test -bench 'BenchmarkTable|BenchmarkFig|BenchmarkSec' -benchmem
//
// The timings measure the cost of reproducing each experiment end to end —
// campaigns included (campaign results are cached across benchmarks within
// a run, exactly as the Scal-Tool methodology reuses its 2n−1 run files).
// Substrate microbenchmarks (cache, directory, campaign) follow; the
// simulator run benchmark is BenchmarkSimRun (bench_sim_test.go).

import (
	"fmt"
	"os"
	"sync"
	"testing"

	"scaltool/internal/apps"
	"scaltool/internal/cache"
	"scaltool/internal/campaign"
	"scaltool/internal/directory"
	"scaltool/internal/experiments"
	"scaltool/internal/machine"
)

var (
	suiteOnce sync.Once
	suite     *experiments.Suite
	printed   sync.Map
)

func getSuite() *experiments.Suite {
	suiteOnce.Do(func() { suite = experiments.NewSuite(machine.ScaledOrigin(), 32) })
	return suite
}

// benchExperiment runs one experiment per iteration and prints its output
// the first time.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	s := getSuite()
	e, err := s.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	var out string
	for i := 0; i < b.N; i++ {
		out, err = e.Run()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if _, dup := printed.LoadOrStore(id, true); !dup && os.Getenv("SCALTOOL_QUIET") == "" {
		fmt.Printf("\n## %s\n\n%s\n", e.Name, out)
	}
}

func BenchmarkTable1ResourceCosts(b *testing.B)      { benchExperiment(b, "table1") }
func BenchmarkTable2BottleneckEffects(b *testing.B)  { benchExperiment(b, "table2") }
func BenchmarkTable3RunMatrix(b *testing.B)          { benchExperiment(b, "table3") }
func BenchmarkTable4AppCharacteristics(b *testing.B) { benchExperiment(b, "table4") }

func BenchmarkFig2BreakdownConcept(b *testing.B)  { benchExperiment(b, "fig2") }
func BenchmarkFig3aHitRateVsSize(b *testing.B)    { benchExperiment(b, "fig3a") }
func BenchmarkFig3bInfiniteHitRate(b *testing.B)  { benchExperiment(b, "fig3b") }
func BenchmarkFig4CpiInfInf(b *testing.B)         { benchExperiment(b, "fig4") }
func BenchmarkFig5T3dheatSpeedup(b *testing.B)    { benchExperiment(b, "fig5") }
func BenchmarkFig6T3dheatBreakdown(b *testing.B)  { benchExperiment(b, "fig6") }
func BenchmarkFig7T3dheatValidation(b *testing.B) { benchExperiment(b, "fig7") }
func BenchmarkFig8Hydro2dSpeedup(b *testing.B)    { benchExperiment(b, "fig8") }
func BenchmarkFig9Hydro2dBreakdown(b *testing.B)  { benchExperiment(b, "fig9") }
func BenchmarkFig10Hydro2dValidation(b *testing.B) {
	benchExperiment(b, "fig10")
}
func BenchmarkFig11SwimSpeedup(b *testing.B)    { benchExperiment(b, "fig11") }
func BenchmarkFig12SwimBreakdown(b *testing.B)  { benchExperiment(b, "fig12") }
func BenchmarkFig13SwimValidation(b *testing.B) { benchExperiment(b, "fig13") }

func BenchmarkSec26WhatIf(b *testing.B) { benchExperiment(b, "sec26") }

// Extension and ablation experiments (DESIGN.md §6–7).

func BenchmarkExtSharingEstimate(b *testing.B)    { benchExperiment(b, "ext-sharing") }
func BenchmarkExtSegmentAnalysis(b *testing.B)    { benchExperiment(b, "ext-segment") }
func BenchmarkAblationRawTmN(b *testing.B)        { benchExperiment(b, "abl-rawtm") }
func BenchmarkAblationPagePlacement(b *testing.B) { benchExperiment(b, "abl-placement") }
func BenchmarkAblationMuxCounters(b *testing.B)   { benchExperiment(b, "abl-mux") }
func BenchmarkAblationProtocolMSI(b *testing.B)   { benchExperiment(b, "abl-protocol") }

// --- substrate microbenchmarks ---------------------------------------------

// BenchmarkCacheHierarchyAccess measures one access through the steps the
// simulator's lane calls — MemoHit, then Lookup, then on a miss in both
// levels Fill with the state the directory would grant — on a working set
// half the L2's size, swept in 8-byte words with every eighth access a
// store. Most accesses are memo hits; every L1 line's first access runs
// Lookup and, after the first sweep, hits L2. It times the hierarchy alone:
// no TLB, no directory, no cycle costs.
func BenchmarkCacheHierarchyAccess(b *testing.B) {
	cfg := machine.ScaledOrigin()
	h := cache.NewHierarchy(cfg)
	span := uint64(cfg.L2.SizeBytes / 2)
	b.ReportAllocs()
	b.ResetTimer()
	var addr uint64
	for i := 0; i < b.N; i++ {
		write := i&7 == 0
		if !h.MemoHit(addr, write) {
			if lvl, _ := h.Lookup(addr, write); lvl == cache.MissAll {
				st := cache.Exclusive
				if write {
					st = cache.Modified
				}
				h.Fill(addr, write, st)
			}
		}
		addr = (addr + 8) % span
	}
	h.AddAccesses(uint64(b.N))
}

// BenchmarkDirectoryMerge measures region-merge throughput with 32
// processors touching disjoint line sets plus a shared boundary.
func BenchmarkDirectoryMerge(b *testing.B) {
	const procs = 32
	d := directory.New(procs)
	accesses := make([]directory.RegionAccess, procs)
	for p := 0; p < procs; p++ {
		lines := make([]uint64, 64)
		for i := range lines {
			lines[i] = uint64(p*64 + i)
		}
		accesses[p] = directory.RegionAccess{Proc: p, Writes: lines}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Merge(accesses)
	}
}

// BenchmarkCampaign measures a complete Table 3 campaign (Hydro2d, up to 8
// processors) including the estimation kernels.
func BenchmarkCampaign(b *testing.B) {
	cfg := machine.ScaledOrigin()
	app, err := apps.ByName("hydro2d")
	if err != nil {
		b.Fatal(err)
	}
	plan, err := campaign.NewPlan(app, cfg, 8, 0)
	if err != nil {
		b.Fatal(err)
	}
	rn := &campaign.Runner{Cfg: cfg}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rn.Run(app, plan); err != nil {
			b.Fatal(err)
		}
	}
}
