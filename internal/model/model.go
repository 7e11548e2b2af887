// Package model implements Scal-Tool's empirical scalability model — the
// paper's contribution (§2). The model consumes only hardware event-counter
// measurements (via counters.RunReport) gathered by the Table 3 campaign:
//
//   - the application at the base data-set size s0 for each processor count
//     1, 2, 4, …, 2^(n−1);
//   - the application on a uniprocessor at fractional data-set sizes
//     s0/2, s0/4, …;
//   - the small synthetic kernels (barrier loop, idle spin) of §2.4.2.
//
// From these it estimates cpi0 (the compute CPI, with the paper's unbiased
// compulsory-miss adjustment, Eq. 2), the per-miss penalties t2 and tm(n)
// (least squares over Eq. 3), the compulsory and coherence miss rates
// (Fig. 3), the infinite-cache CPIs cpi∞ and cpi∞,∞ (Eq. 8), the
// synchronization and load-imbalance instruction fractions (Eqs. 9–10), and
// finally the cycle breakdown curves of Figures 1/2/6/9/12: Base, L2Lim
// (insufficient caching space), Sync, Imb and MP = Sync + Imb.
package model

import (
	"errors"
	"fmt"
	"sort"

	"scaltool/internal/counters"
)

// Measurement is the model's view of one run: the derived counter ratios of
// the paper, aggregated over all processors of the run.
type Measurement struct {
	Procs     int
	DataBytes uint64

	CPI       float64 // cycles per graduated instruction
	H2        float64 // (L1 misses − L2 misses) / instructions
	Hm        float64 // L2 misses / instructions
	L1HitRate float64 // 1 − L1 misses / (loads+stores)
	L2HitRate float64 // local: 1 − L2 misses / L1 misses
	MemFrac   float64 // (loads+stores) / instructions

	Instr    uint64 // total graduated instructions, all processors
	Cycles   uint64 // total cycles, all processors
	NtSync   uint64 // store-to-shared events, all processors (ntsync)
	Barriers uint64 // instrumented barrier count
	Locks    uint64 // instrumented lock count
	Wall     uint64 // elapsed cycles
}

// FromReport derives a Measurement from a run's counter file.
func FromReport(r *counters.RunReport) Measurement {
	t := r.Total()
	return Measurement{
		Procs:     r.Procs,
		DataBytes: r.DataBytes,
		CPI:       t.CPI(),
		H2:        t.H2(),
		Hm:        t.Hm(),
		L1HitRate: t.L1HitRate(),
		L2HitRate: t.L2LocalHitRate(),
		MemFrac:   t.MemFrac(),
		Instr:     t[counters.GradInstr],
		Cycles:    t[counters.Cycles],
		NtSync:    t[counters.StoreShared],
		Barriers:  r.Barriers,
		Locks:     r.Locks,
		Wall:      r.WallCycles,
	}
}

// SpinnerCPI extracts cpi_imb from a spin-kernel report: the CPI of the
// processors that only spin (everyone except processor 0). The paper reads
// this straight off the kernel's counters (§2.4.2).
func SpinnerCPI(r *counters.RunReport) (float64, error) {
	if r.Procs < 2 {
		return 0, errors.New("model: spin kernel needs ≥ 2 processors")
	}
	var cyc, instr uint64
	for p := 1; p < r.Procs; p++ {
		cyc += r.PerProc[p][counters.Cycles]
		instr += r.PerProc[p][counters.GradInstr]
	}
	if instr == 0 {
		return 0, errors.New("model: spin kernel spinners graduated no instructions")
	}
	return float64(cyc) / float64(instr), nil
}

// Inputs is the complete measurement set of one campaign for one
// application.
type Inputs struct {
	// Base holds the s0 runs at each processor count (must include
	// Procs=1; sorted or not — Fit sorts).
	Base []Measurement
	// Uniproc holds single-processor runs at varying data-set sizes, from
	// sizes small enough to sit in the caches (the Lubeck/compulsory scan
	// of Fig. 3a) up to s0 and the fractional sizes s0/2 … s0/2^(n−1). A
	// run may serve several roles; Fit classifies by size.
	Uniproc []Measurement
	// SyncKernel maps processor count → the barrier-loop kernel run.
	SyncKernel map[int]Measurement
	// SpinCPI is cpi_imb measured from the spin kernel (SpinnerCPI).
	SpinCPI float64

	// The fields below describe what the campaign *planned* to measure, so
	// Fit can record how degraded the achieved input set is. All optional:
	// empty means "no expectation", and the fit reports no degradation
	// beyond what it detects itself (interpolated coherence points).

	// ExpectedUniSizes lists the planned uniprocessor data-set sizes
	// (requested, pre-grid-quantization), excluding sizes the application
	// legitimately cannot build.
	ExpectedUniSizes []uint64
	// ExpectedProcs lists the planned base-run processor counts.
	ExpectedProcs []int
	// DroppedRuns lists run identities the campaign quarantined or
	// permanently failed, carried into the degradation record.
	DroppedRuns []string
}

// Options configures Fit.
type Options struct {
	// L2Bytes is the machine's L2 capacity; only uniprocessor runs whose
	// data sets overflow it contribute to the t2/tm least squares ("we use
	// only data set sizes that overflow the L2 cache", §2.3).
	L2Bytes int
	// Refit, when true, re-estimates t2/tm once with the adjusted cpi0.
	// The paper performs a single pass; Refit is an extension that removes
	// the residual bias the initial (biased) cpi0 leaves in t2/tm.
	Refit bool
	// RawTmN keeps the paper's single-pass tm(n) estimate (Eq. 1 applied
	// directly to the base runs). By default the model iteratively removes
	// the estimated synchronization/imbalance cycles before re-solving
	// Eq. 1 — without this, spin cycles inflate tm(n) at high processor
	// counts and leak multiprocessor effects into the cpi∞,∞ floor.
	RawTmN bool
}

// DefaultOptions returns the paper-faithful settings for a machine.
func DefaultOptions(l2Bytes int) Options {
	return Options{L2Bytes: l2Bytes}
}

// OverflowThreshold is the smallest data-set size that counts as overflowing
// an L2 of l2Bytes: 1.5× the capacity, safely past the knee. The campaign
// plans its t2/tm sizes against it and the fit selects them by it.
func OverflowThreshold(l2Bytes int) uint64 { return uint64(1.5 * float64(l2Bytes)) }

// sortedByProcs returns a copy sorted ascending by processor count.
func sortedByProcs(ms []Measurement) []Measurement {
	out := make([]Measurement, len(ms))
	copy(out, ms)
	sort.Slice(out, func(i, j int) bool { return out[i].Procs < out[j].Procs })
	return out
}

// sortedBySize returns a copy sorted ascending by data-set size.
func sortedBySize(ms []Measurement) []Measurement {
	out := make([]Measurement, len(ms))
	copy(out, ms)
	sort.Slice(out, func(i, j int) bool { return out[i].DataBytes < out[j].DataBytes })
	return out
}

// validate checks the inputs are sufficient for fitting.
func (in *Inputs) validate(opt Options) error {
	if opt.L2Bytes <= 0 {
		return errors.New("model: Options.L2Bytes must be positive")
	}
	if len(in.Base) == 0 {
		return in.insufficient("model: no base-size runs")
	}
	if len(in.Uniproc) < 3 {
		return in.insufficient("model: %d uniprocessor runs; need ≥ 3 (a small run plus ≥ 2 L2-overflowing sizes)", len(in.Uniproc))
	}
	for i, m := range in.Base {
		if m.Procs <= 0 || m.Instr == 0 {
			return fmt.Errorf("model: base run %d malformed (procs=%d instr=%d)", i, m.Procs, m.Instr)
		}
	}
	haveUni := false
	for i, m := range in.Uniproc {
		if m.Procs != 1 {
			return fmt.Errorf("model: uniproc run %d has %d processors", i, m.Procs)
		}
		haveUni = true
	}
	if !haveUni {
		return in.insufficient("model: no uniprocessor runs")
	}
	if in.Base[0].DataBytes == 0 {
		return errors.New("model: base runs lack data sizes")
	}
	if in.SpinCPI <= 0 {
		return in.insufficient("model: SpinCPI missing (run the spin kernel)")
	}
	if len(in.SyncKernel) == 0 {
		return in.insufficient("model: sync kernel runs missing")
	}
	return nil
}
