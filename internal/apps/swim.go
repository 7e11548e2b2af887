package apps

import (
	"fmt"

	"scaltool/internal/machine"
	"scaltool/internal/sim"
)

// SwimParams tunes the Swim analogue.
type SwimParams struct {
	Steps      int    // time steps
	FlopsSweep uint64 // compute instructions per point per sweep (shallow water is flop-heavy)
	// BoundaryRows is the number of periodic-boundary rows the edge
	// processors copy each step — both a (mild) load imbalance and the
	// non-synchronization data sharing that makes the paper's Swim
	// validation diverge at 32 processors (§4.3).
	BoundaryRows uint64
}

// DefaultSwimParams mirrors the paper's 512×512, 100-iteration run at the
// simulated scale.
func DefaultSwimParams() SwimParams {
	return SwimParams{Steps: 8, FlopsSweep: 26, BoundaryRows: 4}
}

// Swim is the SPECFP95 shallow-water-equations analogue: finite-difference
// sweeps (CALC1/CALC2/CALC3) over N² velocity/pressure fields, MP DOACROSS,
// coarse-grained and flop-rich — hence its near-linear speedup. Its MP cost
// is mostly mild load imbalance (periodic-boundary work on the edge
// processors and memory-latency skew), with genuine producer/consumer row
// sharing between neighbours.
type Swim struct {
	Params SwimParams
}

// NewSwim returns the app with default parameters.
func NewSwim() *Swim { return &Swim{Params: DefaultSwimParams()} }

// Name implements App.
func (a *Swim) Name() string { return "swim" }

// Description implements App.
func (a *Swim) Description() string {
	return "shallow-water equations finite-difference kernel (SPECFP95 Swim analogue)"
}

// ParallelModel implements App.
func (a *Swim) ParallelModel() string { return "MP" }

// DefaultBytes implements App: ≈4× the L2, the paper's 16.2 MB / 4 MB ratio.
func (a *Swim) DefaultBytes(cfg machine.Config) uint64 {
	return uint64(4.05 * float64(cfg.L2.SizeBytes))
}

const swimArrays = 4 // u, v, p, z (stream/vorticity working set)

// Identity is the app value, parameters included: what its recipes key on.
func (a *Swim) Identity() any { return *a }

// swimGrid is the grid edge Build lays out for a requested size.
func swimGrid(dataBytes uint64) uint64 { return isqrt(dataBytes / (swimArrays * ElemBytes)) }

// AchievedBytes is the size Build achieves for a requested size, or 0
// below the grid.
func (a *Swim) AchievedBytes(_ machine.Config, dataBytes uint64) uint64 {
	if n := swimGrid(dataBytes); n >= 4 {
		return swimArrays * n * n * ElemBytes
	}
	return 0
}

// Build implements App.
func (a *Swim) Build(cfg machine.Config, procs int, dataBytes uint64) (*sim.Program, error) {
	n := swimGrid(dataBytes)
	if n < 4 {
		return nil, fmt.Errorf("swim: data size %d too small (grid %d²)", dataBytes, n)
	}
	elems := n * n
	actual := swimArrays * elems * ElemBytes
	prog, err := sim.NewProgram("swim", procs, actual, cfg.PageBytes)
	if err != nil {
		return nil, err
	}
	u := prog.MustAlloc("u", elems*ElemBytes).Base
	v := prog.MustAlloc("v", elems*ElemBytes).Base
	p := prog.MustAlloc("p", elems*ElemBytes).Base
	z := prog.MustAlloc("z", elems*ElemBytes).Base
	parts := BlockPartitionAligned(elems, procs, uint64(cfg.L2.LineBytes)/ElemBytes)

	init := prog.AddRegion("init")
	for pr := 0; pr < procs; pr++ {
		st := init.Proc(pr)
		for _, arr := range []uint64{u, v, p, z} {
			sweep(st, arr, parts[pr], true, 1)
		}
	}

	pm := a.Params
	bRows := pm.BoundaryRows * n // elements in the periodic-boundary strip
	calc := func(name string, src1, src2, dst uint64) {
		reg := prog.AddRegion(name)
		for pr := 0; pr < procs; pr++ {
			st := reg.Proc(pr)
			own := parts[pr]
			sweep(st, src1, own, false, pm.FlopsSweep)
			sweep(st, src2, own, false, 2)
			// 5-point stencil halo from the neighbour blocks (one cache
			// line each side — the tuned exchange width).
			ghost := uint64(cfg.L2.LineBytes) / ElemBytes
			if procs > 1 && pr > 0 {
				sweep(st, src1, clampRange(int64(own.Start)-int64(ghost), ghost, elems), false, 1)
			}
			if procs > 1 && pr < procs-1 {
				sweep(st, src1, clampRange(int64(own.End()), ghost, elems), false, 1)
			}
			sweep(st, dst, own, true, 2)
			// Periodic boundary: the first and last processors copy the
			// opposite edge's rows — extra work for them (imbalance) and
			// remote-written data (sharing).
			if procs > 1 && bRows > 0 {
				if pr == 0 {
					sweep(st, src1, clampRange(int64(elems-bRows), bRows, elems), false, 2)
					sweep(st, dst, Range{Start: 0, Count: min(bRows, own.Count)}, true, 2)
				}
				if pr == procs-1 {
					sweep(st, src1, Range{Start: 0, Count: bRows}, false, 2)
					sweep(st, dst, clampRange(int64(elems-bRows), bRows, elems), true, 2)
				}
			}
		}
	}

	for step := 0; step < pm.Steps; step++ {
		calc("calc1", p, u, z) // CALC1: pressure/velocity → intermediate
		calc("calc2", z, v, u) // CALC2: new velocities
		calc("calc3", u, p, v) // CALC3/time smoothing
	}
	return prog, nil
}

func init() { register(NewSwim()) }
