package apps

import (
	"fmt"

	"scaltool/internal/machine"
	"scaltool/internal/sim"
)

// Hydro2dParams tunes the Hydro2d analogue.
type Hydro2dParams struct {
	Steps      int     // hydrodynamic time steps
	FlopsSweep uint64  // compute instructions per point per sweep
	Sweeps     int     // parallel sweeps per step
	SerialFrac float64 // serial-section work per step, as a fraction of one grid sweep
}

// DefaultHydro2dParams targets the paper's observed behaviour: large serial
// sections capping the speedup near 9–10 at 32 processors.
func DefaultHydro2dParams() Hydro2dParams {
	return Hydro2dParams{Steps: 6, FlopsSweep: 10, Sweeps: 6, SerialFrac: 0.80}
}

// Hydro2d is the SPECFP95 shallow-water analogue: six N² field arrays swept
// by MP DOACROSS loops, with a serial section each step (the galactic-jet
// code's boundary and filtering work that SGI's compiler leaves
// unparallelized). The serial sections are what the paper's Figure 9
// identifies: imbalance dominates, speedup is modest.
type Hydro2d struct {
	Params Hydro2dParams
}

// NewHydro2d returns the app with default parameters.
func NewHydro2d() *Hydro2d { return &Hydro2d{Params: DefaultHydro2dParams()} }

// Name implements App.
func (a *Hydro2d) Name() string { return "hydro2d" }

// Description implements App.
func (a *Hydro2d) Description() string {
	return "shallow-water / hydrodynamical jet simulation (SPECFP95 Hydro2d analogue)"
}

// ParallelModel implements App.
func (a *Hydro2d) ParallelModel() string { return "MP" }

// DefaultBytes implements App: ≈2.6× the L2, the paper's 10.3 MB / 4 MB
// ratio (its L2Lim effect vanishes at 2–3 processors).
func (a *Hydro2d) DefaultBytes(cfg machine.Config) uint64 {
	return uint64(2.575 * float64(cfg.L2.SizeBytes))
}

const hydroArrays = 6

// Identity is the app value, parameters included: what its recipes key on.
func (a *Hydro2d) Identity() any { return *a }

// hydroGrid is the grid edge Build lays out for a requested size.
func hydroGrid(dataBytes uint64) uint64 { return isqrt(dataBytes / (hydroArrays * ElemBytes)) }

// AchievedBytes is the size Build achieves for a requested size, or 0
// below the grid.
func (a *Hydro2d) AchievedBytes(_ machine.Config, dataBytes uint64) uint64 {
	if n := hydroGrid(dataBytes); n >= 4 {
		return hydroArrays * n * n * ElemBytes
	}
	return 0
}

// Build implements App.
func (a *Hydro2d) Build(cfg machine.Config, procs int, dataBytes uint64) (*sim.Program, error) {
	n := hydroGrid(dataBytes)
	if n < 4 {
		return nil, fmt.Errorf("hydro2d: data size %d too small (grid %d²)", dataBytes, n)
	}
	elems := n * n
	actual := hydroArrays * elems * ElemBytes
	prog, err := sim.NewProgram("hydro2d", procs, actual, cfg.PageBytes)
	if err != nil {
		return nil, err
	}
	arrs := make([]uint64, hydroArrays)
	for i := range arrs {
		arrs[i] = prog.MustAlloc(fmt.Sprintf("f%d", i), elems*ElemBytes).Base
	}
	// The serial sections work on processor 0's private boundary state —
	// they serialize the machine (imbalance) without writing the
	// block-distributed fields (which would add sharing the paper's
	// Hydro2d does not exhibit).
	serialElems := uint64(a.Params.SerialFrac * float64(elems))
	var bnd uint64
	if serialElems > 0 {
		bnd = prog.MustAlloc("bnd", serialElems*ElemBytes).Base
	}
	parts := BlockPartitionAligned(elems, procs, uint64(cfg.L2.LineBytes)/ElemBytes)

	// First-touch initialization, block-distributed.
	init := prog.AddRegion("init")
	for pr := 0; pr < procs; pr++ {
		st := init.Proc(pr)
		for _, arr := range arrs {
			sweep(st, arr, parts[pr], true, 1)
		}
	}
	if serialElems > 0 {
		init.Proc(0).Write(bnd, serialElems, ElemBytes, 1)
	}

	pm := a.Params
	for step := 0; step < pm.Steps; step++ {
		// The serial section: processor 0 alone filters/advances the
		// boundary state while every other processor spins (MP slaves in
		// mp_slave_wait_for_work).
		if serialElems > 0 {
			ser := prog.AddRegion("serial_filter")
			st := ser.Proc(0)
			sweep(st, bnd, Range{Start: 0, Count: serialElems}, false, pm.FlopsSweep)
			sweep(st, bnd, Range{Start: 0, Count: serialElems}, true, 2)
		}

		// The DOACROSS sweeps: read one field (own block plus one ghost
		// row each side), write the next field.
		for sw := 0; sw < pm.Sweeps; sw++ {
			src := arrs[sw%hydroArrays]
			dst := arrs[(sw+1)%hydroArrays]
			reg := prog.AddRegion("doacross_sweep")
			// Block-interior sweeps only: the inter-block boundary work is
			// what the serial filter section performs, so the DOACROSS
			// bodies share essentially no data (the paper's Hydro2d has
			// negligible true/false sharing).
			for pr := 0; pr < procs; pr++ {
				st := reg.Proc(pr)
				own := parts[pr]
				sweep(st, src, own, false, pm.FlopsSweep)
				sweep(st, dst, own, true, 2)
			}
		}
	}
	return prog, nil
}

func init() { register(NewHydro2d()) }
