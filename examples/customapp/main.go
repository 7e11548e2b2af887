// Customapp: write your own application against the public API and analyze
// it with Scal-Tool. The app is a parallel histogram: every processor scans
// its block of samples (streaming reads) and scatters increments into a
// shared bin array protected by a lock — a workload with both caching
// pressure and lock-serialization cost.
package main

import (
	"fmt"
	"log"

	"scaltool"
)

// histogram implements scaltool.App.
type histogram struct {
	binsBytes uint64
}

func (h *histogram) Name() string          { return "histogram" }
func (h *histogram) Description() string   { return "parallel histogram with a lock-protected bin array" }
func (h *histogram) ParallelModel() string { return "MP" }

func (h *histogram) DefaultBytes(cfg scaltool.MachineConfig) uint64 {
	return 3 * uint64(cfg.L2.SizeBytes)
}

func (h *histogram) Build(cfg scaltool.MachineConfig, procs int, dataBytes uint64) (*scaltool.Program, error) {
	const elem = 8
	samples := dataBytes / elem
	if samples < uint64(procs)*64 {
		return nil, fmt.Errorf("histogram: %d bytes too small for %d processors", dataBytes, procs)
	}
	prog, err := scaltool.NewProgram(h.Name(), procs, samples*elem, cfg.PageBytes)
	if err != nil {
		return nil, err
	}
	data, err := prog.Alloc("samples", samples*elem)
	if err != nil {
		return nil, err
	}
	bins, err := prog.Alloc("bins", h.binsBytes)
	if err != nil {
		return nil, err
	}

	per := samples / uint64(procs)
	// First-touch init: block-distribute the samples; processor 0 owns the
	// bins.
	init := prog.AddRegion("init")
	for p := 0; p < procs; p++ {
		init.Proc(p).Write(data.Base+uint64(p)*per*elem, per, elem, 1)
	}
	init.Proc(0).Write(bins.Base, h.binsBytes/elem, elem, 1)

	// Each pass: stream the local block, then merge local counts into the
	// shared bins under the global lock (the serialization bottleneck).
	for pass := 0; pass < 4; pass++ {
		reg := prog.AddRegion("count")
		for p := 0; p < procs; p++ {
			st := reg.Proc(p)
			st.Read(data.Base+uint64(p)*per*elem, per, elem, 3)
			st.Critical(400) // merge into shared bins
		}
	}
	return prog, nil
}

func main() {
	cfg := scaltool.ScaledOrigin()
	app := &histogram{binsBytes: 4096}

	// A single run first: what do the counters say?
	prog, err := app.Build(cfg, 8, app.DefaultBytes(cfg))
	if err != nil {
		log.Fatal(err)
	}
	res, err := scaltool.Simulate(cfg, prog)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("single run at 8 processors: %.0f cycles, %d locks, %d barriers\n\n",
		res.WallCycles, res.Report.Locks, res.Report.Barriers)

	// The full Scal-Tool analysis, exactly as for the built-in apps.
	a, err := scaltool.Analyze(cfg, app, 16)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("procs  speedup   L2Lim%   Sync%    Imb%")
	sps := map[int]float64{}
	for _, sp := range a.Speedups() {
		sps[sp.Procs] = sp.Speedup
	}
	for _, bp := range a.Breakdown() {
		fmt.Printf("%5d  %7.2f  %6.1f%%  %5.1f%%  %5.1f%%\n",
			bp.Procs, sps[bp.Procs],
			100*bp.L2Lim()/bp.Base, 100*bp.Sync/bp.Base, 100*bp.Imb/bp.Base)
	}
	fmt.Println("\nThe lock is the story: every pass serializes the merge, so its cost")
	fmt.Println("grows with the processor count. Scal-Tool's ntsync method is tuned to")
	fmt.Println("barriers, so most of the lock-queue waiting surfaces in the Imb bar.")
	fmt.Println("The paper's §2.4.2 footnote prescribes a separate lock-kernel cpi_sync")
	fmt.Println("for lock-heavy codes; that kernel is not implemented here.")
}
