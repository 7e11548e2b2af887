package apps

import (
	"fmt"

	"scaltool/internal/machine"
	"scaltool/internal/sim"
)

// The estimation kernels of §2.4.2. They are not registered applications;
// the model runs them directly to estimate cpi_sync(n), cpi_imb and tsync.

// Kernel shapes the campaign runs: the sync kernel's barrier count, and the
// spin kernel's phases and busy processor's work per phase.
const (
	SyncKernelBarriers = 200
	SpinKernelPhases   = 20
	SpinKernelWork     = 50_000
)

// BuildSyncKernel returns the paper's synchronization kernel: "simply a
// loop where processors come in and out of barriers" with no spinning
// beyond the barrier mechanism itself (all processors arrive together).
func BuildSyncKernel(cfg machine.Config, procs, barriers int) (*sim.Program, error) {
	if barriers <= 0 {
		return nil, fmt.Errorf("apps: sync kernel needs barriers > 0, got %d", barriers)
	}
	prog, err := sim.NewProgram("kernel_sync", procs, uint64(cfg.PageBytes), cfg.PageBytes)
	if err != nil {
		return nil, err
	}
	for b := 0; b < barriers; b++ {
		reg := prog.AddRegion("barrier_loop")
		for p := 0; p < procs; p++ {
			reg.Proc(p).Compute(4) // the loop increment/test between barriers
		}
	}
	return prog, nil
}

// BuildSpinKernel returns the paper's idle-spin kernel: one processor works
// while the others spin, so the spinners' counters reveal cpi_imb. workInstr
// is the busy processor's work per phase.
func BuildSpinKernel(cfg machine.Config, procs int, phases int, workInstr uint64) (*sim.Program, error) {
	if procs < 2 {
		return nil, fmt.Errorf("apps: spin kernel needs ≥ 2 processors, got %d", procs)
	}
	if phases <= 0 || workInstr == 0 {
		return nil, fmt.Errorf("apps: spin kernel needs positive phases/work")
	}
	prog, err := sim.NewProgram("kernel_spin", procs, uint64(cfg.PageBytes), cfg.PageBytes)
	if err != nil {
		return nil, err
	}
	for ph := 0; ph < phases; ph++ {
		reg := prog.AddRegion("spin_phase")
		reg.Proc(0).Compute(workInstr)
	}
	return prog, nil
}
