package apps

import (
	"fmt"

	"scaltool/internal/machine"
	"scaltool/internal/sim"
)

// T3dheatParams tunes the T3dheat analogue.
type T3dheatParams struct {
	Iters        int    // conjugate-gradient iterations (paper: 5)
	FlopsStencil uint64 // compute instructions per point in the matvec
	FlopsAxpy    uint64 // per point in vector updates
	FlopsDot     uint64 // per point in dot products
	// ExtraBarriers is the number of additional explicit PCF barrier
	// directives executed per iteration (T3dheat is written in PCF "with
	// explicit barriers", Table 4 — such codes synchronize around every
	// small phase, which is precisely what makes synchronization its
	// dominant multiprocessor cost in Figure 6).
	ExtraBarriers int
}

// DefaultT3dheatParams mirrors the paper's run (imax=jmax=kmax=50, 5 iters)
// with a 7-point-stencil instruction mix.
func DefaultT3dheatParams() T3dheatParams {
	return T3dheatParams{Iters: 5, FlopsStencil: 14, FlopsAxpy: 4, FlopsDot: 4, ExtraBarriers: 90}
}

// T3dheat is the PDE conjugate-gradient solver analogue: five N³ arrays
// (b, x, r, p, q), barrier-heavy PCF parallelism with explicit tree
// reductions, excellent static load balance. Its data set defaults to 10×
// the L2 capacity (the paper's 40 MB against a 4 MB L2), which is what makes
// its low-processor-count behaviour conflict-miss dominated.
type T3dheat struct {
	Params T3dheatParams
}

// NewT3dheat returns the app with default parameters.
func NewT3dheat() *T3dheat { return &T3dheat{Params: DefaultT3dheatParams()} }

// Name implements App.
func (a *T3dheat) Name() string { return "t3dheat" }

// Description implements App.
func (a *T3dheat) Description() string {
	return "PDE solver using conjugate gradient (Los Alamos T3dheat analogue)"
}

// ParallelModel implements App.
func (a *T3dheat) ParallelModel() string { return "PCF" }

// DefaultBytes implements App: 10× the L2, the paper's 40 MB / 4 MB ratio.
func (a *T3dheat) DefaultBytes(cfg machine.Config) uint64 {
	return 10 * uint64(cfg.L2.SizeBytes)
}

const t3dArrays = 5 // b, x, r, p, q

// Identity is the app value, parameters included: what its recipes key on.
func (a *T3dheat) Identity() any { return *a }

// t3dGrid is the grid edge Build lays out for a requested size.
func t3dGrid(dataBytes uint64) uint64 { return icbrt(dataBytes / (t3dArrays * ElemBytes)) }

// AchievedBytes is the size Build achieves for a requested size, or 0
// below the grid.
func (a *T3dheat) AchievedBytes(_ machine.Config, dataBytes uint64) uint64 {
	if n := t3dGrid(dataBytes); n >= 4 {
		return t3dArrays * n * n * n * ElemBytes
	}
	return 0
}

// Build implements App.
func (a *T3dheat) Build(cfg machine.Config, procs int, dataBytes uint64) (*sim.Program, error) {
	n := t3dGrid(dataBytes)
	if n < 4 {
		return nil, fmt.Errorf("t3dheat: data size %d too small (grid %d³)", dataBytes, n)
	}
	elems := n * n * n
	actual := t3dArrays * elems * ElemBytes
	prog, err := sim.NewProgram("t3dheat", procs, actual, cfg.PageBytes)
	if err != nil {
		return nil, err
	}
	b := prog.MustAlloc("b", elems*ElemBytes)
	x := prog.MustAlloc("x", elems*ElemBytes)
	r := prog.MustAlloc("r", elems*ElemBytes)
	p := prog.MustAlloc("p", elems*ElemBytes)
	q := prog.MustAlloc("q", elems*ElemBytes)
	partials := prog.MustAlloc("partials", uint64(procs*cfg.L2.LineBytes))
	slot := uint64(cfg.L2.LineBytes)

	parts := BlockPartitionAligned(elems, procs, uint64(cfg.L2.LineBytes)/ElemBytes)
	// Ghost exchange width: one cache line of halo elements. The
	// production code exchanges only a tuned halo, keeping inter-processor
	// sharing negligible — the property the paper relies on for T3dheat
	// (§2.4: "the effects of true and false sharing are largely
	// negligible").
	ghost := uint64(cfg.L2.LineBytes) / ElemBytes

	// Initialization: every processor first-touches its block of every
	// array (the MP-library block distribution the paper's default policy
	// produces).
	init := prog.AddRegion("init")
	for pr := 0; pr < procs; pr++ {
		st := init.Proc(pr)
		for _, arr := range []uint64{b.Base, x.Base, r.Base, p.Base, q.Base} {
			sweep(st, arr, parts[pr], true, 1)
		}
		st.Gather([]uint64{partials.Base + uint64(pr)*slot}, true, 1)
	}

	pm := a.Params
	for it := 0; it < pm.Iters; it++ {
		// q = A·p — 7-point stencil matvec; reads own block of p plus one
		// ghost plane from each neighbour block, writes own block of q.
		mv := prog.AddRegion("matvec")
		for pr := 0; pr < procs; pr++ {
			st := mv.Proc(pr)
			own := parts[pr]
			sweep(st, p.Base, own, false, pm.FlopsStencil)
			if lo := clampRange(int64(own.Start)-int64(ghost), ghost, elems); procs > 1 && pr > 0 {
				sweep(st, p.Base, lo, false, 1)
			}
			if hi := clampRange(int64(own.End()), ghost, elems); procs > 1 && pr < procs-1 {
				sweep(st, p.Base, hi, false, 1)
			}
			sweep(st, q.Base, own, true, 2)
		}

		// α = (r·r)/(p·q): two dot products, each a local pass plus a
		// log₂(procs) barrier tree.
		dot1 := prog.AddRegion("dot_pq")
		for pr := 0; pr < procs; pr++ {
			st := dot1.Proc(pr)
			sweep(st, p.Base, parts[pr], false, pm.FlopsDot)
			sweep(st, q.Base, parts[pr], false, 1)
			st.Gather([]uint64{partials.Base + uint64(pr)*slot}, true, 2)
		}
		treeReduce(prog, "reduce_pq", partials.Base, slot, procs, 2)

		// x += α·p and r −= α·q.
		ax := prog.AddRegion("axpy_x")
		for pr := 0; pr < procs; pr++ {
			st := ax.Proc(pr)
			sweep(st, p.Base, parts[pr], false, pm.FlopsAxpy)
			sweep(st, x.Base, parts[pr], true, 1)
		}
		ar := prog.AddRegion("axpy_r")
		for pr := 0; pr < procs; pr++ {
			st := ar.Proc(pr)
			sweep(st, q.Base, parts[pr], false, pm.FlopsAxpy)
			sweep(st, r.Base, parts[pr], true, 1)
		}

		// ρ = r·r and its reduction.
		dot2 := prog.AddRegion("dot_rr")
		for pr := 0; pr < procs; pr++ {
			st := dot2.Proc(pr)
			sweep(st, r.Base, parts[pr], false, pm.FlopsDot)
			st.Gather([]uint64{partials.Base + uint64(pr)*slot}, true, 2)
		}
		treeReduce(prog, "reduce_rr", partials.Base, slot, procs, 2)

		// p = r + β·p.
		up := prog.AddRegion("update_p")
		for pr := 0; pr < procs; pr++ {
			st := up.Proc(pr)
			sweep(st, r.Base, parts[pr], false, pm.FlopsAxpy)
			sweep(st, p.Base, parts[pr], true, 1)
		}

		// Explicit PCF barrier directives around the small bookkeeping
		// phases (convergence test, scalar broadcasts, ...).
		for eb := 0; eb < pm.ExtraBarriers; eb++ {
			reg := prog.AddRegion("pcf_barrier")
			for pr := 0; pr < procs; pr++ {
				reg.Proc(pr).Compute(8)
			}
		}
		_ = b // b participates only in the initial residual; init touched it
	}
	return prog, nil
}

func init() { register(NewT3dheat()) }
