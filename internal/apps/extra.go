package apps

import (
	"fmt"

	"scaltool/internal/machine"
	"scaltool/internal/sim"
)

// The extra demo applications used by the examples — not part of the
// paper's evaluation, but registered so the tool and the custom-app example
// have realistic material beyond the three paper workloads.

// Matmul is a blocked dense matrix multiply C = A·B with rows of C block-
// distributed: every processor reads all of B (read-shared), its rows of A,
// and writes its rows of C.
type Matmul struct {
	// Block is the tile edge in elements.
	Block uint64
}

// NewMatmul returns the app with a 16-element tile.
func NewMatmul() *Matmul { return &Matmul{Block: 16} }

// Name implements App.
func (a *Matmul) Name() string { return "matmul" }

// Description implements App.
func (a *Matmul) Description() string { return "blocked dense matrix multiply (demo app)" }

// ParallelModel implements App.
func (a *Matmul) ParallelModel() string { return "MP" }

// DefaultBytes implements App.
func (a *Matmul) DefaultBytes(cfg machine.Config) uint64 {
	return 3 * uint64(cfg.L2.SizeBytes)
}

// Identity is the app value, parameters included: what its recipes key on.
func (a *Matmul) Identity() any { return *a }

// edge is the matrix edge Build lays out for a requested size: whole tiles,
// or 0 below one tile.
func (a *Matmul) edge(dataBytes uint64) uint64 {
	n := isqrt(dataBytes / (3 * ElemBytes))
	if n < a.Block {
		return 0
	}
	return n - n%a.Block
}

// AchievedBytes is the size Build achieves for a requested size, or 0
// below the grid.
func (a *Matmul) AchievedBytes(_ machine.Config, dataBytes uint64) uint64 {
	n := a.edge(dataBytes)
	return 3 * n * n * ElemBytes
}

// Build implements App.
func (a *Matmul) Build(cfg machine.Config, procs int, dataBytes uint64) (*sim.Program, error) {
	n := a.edge(dataBytes)
	if n == 0 {
		return nil, fmt.Errorf("matmul: size %d too small for %d-wide tiles", dataBytes, a.Block)
	}
	elems := n * n
	prog, err := sim.NewProgram("matmul", procs, 3*elems*ElemBytes, cfg.PageBytes)
	if err != nil {
		return nil, err
	}
	am := prog.MustAlloc("A", elems*ElemBytes).Base
	bm := prog.MustAlloc("B", elems*ElemBytes).Base
	cm := prog.MustAlloc("C", elems*ElemBytes).Base

	rows := BlockPartition(n, procs)
	init := prog.AddRegion("init")
	for pr := 0; pr < procs; pr++ {
		st := init.Proc(pr)
		rowRange := Range{Start: rows[pr].Start * n, Count: rows[pr].Count * n}
		sweep(st, am, rowRange, true, 1)
		sweep(st, bm, rowRange, true, 1)
		sweep(st, cm, rowRange, true, 1)
	}

	// One region per block-column pass: each processor multiplies its row
	// band of A by a tile column of B into C — B tiles are read-shared.
	for jb := uint64(0); jb < n; jb += a.Block {
		reg := prog.AddRegion("gemm_pass")
		for pr := 0; pr < procs; pr++ {
			st := reg.Proc(pr)
			band := Range{Start: rows[pr].Start * n, Count: rows[pr].Count * n}
			sweep(st, am, band, false, 2)
			sweep(st, bm, Range{Start: jb * n, Count: a.Block * n}, false, 2)
			sweep(st, cm, Range{Start: rows[pr].Start*n + jb, Count: rows[pr].Count * a.Block}, true, 2)
		}
	}
	return prog, nil
}

// Spmv is a sparse matrix-vector product with an irregular column pattern —
// gather-dominated, cache-unfriendly, included to exercise OpGather.
type Spmv struct {
	// NnzPerRow is the average nonzeros per row.
	NnzPerRow uint64
	// Iters is the number of y = A·x products.
	Iters int
}

// NewSpmv returns the app with 8 nonzeros/row and 4 iterations.
func NewSpmv() *Spmv { return &Spmv{NnzPerRow: 8, Iters: 4} }

// Name implements App.
func (a *Spmv) Name() string { return "spmv" }

// Description implements App.
func (a *Spmv) Description() string {
	return "sparse matrix-vector product, irregular gathers (demo app)"
}

// ParallelModel implements App.
func (a *Spmv) ParallelModel() string { return "MP" }

// DefaultBytes implements App.
func (a *Spmv) DefaultBytes(cfg machine.Config) uint64 {
	return 4 * uint64(cfg.L2.SizeBytes)
}

// Identity is the app value, parameters included: what its recipes key on.
func (a *Spmv) Identity() any { return *a }

// AchievedBytes is the size Build achieves for a requested size, or 0
// below the smallest matrix. That limit also depends on the processor
// count (one row each); this is the uniprocessor answer.
func (a *Spmv) AchievedBytes(_ machine.Config, dataBytes uint64) uint64 {
	rows := dataBytes / (ElemBytes * (a.NnzPerRow + 2))
	if rows < 16 {
		return 0
	}
	return (rows*a.NnzPerRow + 2*rows) * ElemBytes
}

// Build implements App.
func (a *Spmv) Build(cfg machine.Config, procs int, dataBytes uint64) (*sim.Program, error) {
	// Layout: values (nnz), x (rows), y (rows); nnz = NnzPerRow × rows.
	perRow := a.NnzPerRow
	rowsTotal := dataBytes / (ElemBytes * (perRow + 2))
	if rowsTotal < uint64(procs) || rowsTotal < 16 {
		return nil, fmt.Errorf("spmv: size %d too small", dataBytes)
	}
	nnz := rowsTotal * perRow
	prog, err := sim.NewProgram("spmv", procs, (nnz+2*rowsTotal)*ElemBytes, cfg.PageBytes)
	if err != nil {
		return nil, err
	}
	vals := prog.MustAlloc("vals", nnz*ElemBytes).Base
	x := prog.MustAlloc("x", rowsTotal*ElemBytes).Base
	y := prog.MustAlloc("y", rowsTotal*ElemBytes).Base

	parts := BlockPartitionAligned(rowsTotal, procs, uint64(cfg.L2.LineBytes)/ElemBytes)
	init := prog.AddRegion("init")
	for pr := 0; pr < procs; pr++ {
		st := init.Proc(pr)
		sweep(st, vals, Range{Start: parts[pr].Start * perRow, Count: parts[pr].Count * perRow}, true, 1)
		sweep(st, x, parts[pr], true, 1)
		sweep(st, y, parts[pr], true, 1)
	}

	for it := 0; it < a.Iters; it++ {
		reg := prog.AddRegion("spmv_pass")
		for pr := 0; pr < procs; pr++ {
			st := reg.Proc(pr)
			own := parts[pr]
			sweep(st, vals, Range{Start: own.Start * perRow, Count: own.Count * perRow}, false, 2)
			// Gather x at a deterministic pseudo-random column per nonzero.
			gathers := make([]uint64, 0, own.Count*perRow)
			h := own.Start*2654435761 + uint64(it)*40503
			for i := uint64(0); i < own.Count*perRow; i++ {
				h = h*6364136223846793005 + 1442695040888963407
				col := (h >> 33) % rowsTotal
				gathers = append(gathers, x+col*ElemBytes)
			}
			st.Gather(gathers, false, 2)
			sweep(st, y, own, true, 2)
		}
	}
	return prog, nil
}

func init() {
	register(NewMatmul())
	register(NewSpmv())
}
