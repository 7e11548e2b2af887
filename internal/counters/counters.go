// Package counters models the hardware event counters of the MIPS R10000,
// which are the *only* inputs Scal-Tool consumes ("It uses as inputs the
// measurements from hardware event counters in the processor", §1). The
// R10000 exposes 32 countable events through two physical counters; SGI's
// perfex tool reads them. This package provides:
//
//   - the event set the model needs (cycles, graduated instructions,
//     graduated loads/stores, L1 data misses, L2 misses, and the
//     store-to-shared-block event behind ntsync),
//   - per-processor counter sets and whole-run reports — the "single output
//     file" each Scal-Tool run generates (Table 1),
//   - the derived ratios of the model (cpi, h2, hm, hit rates, m),
//   - an optional two-counter multiplexed sampling mode that injects the
//     deterministic estimation error real perfex multiplexing has.
package counters

import (
	"encoding/json"
	"fmt"
	"io"
)

// Event identifies one hardware event.
type Event uint8

// The events Scal-Tool reads. The comments give the closest R10000 event.
const (
	Cycles      Event = iota // event 0: cycles
	GradInstr                // event 17: graduated instructions (excludes wrong-path work)
	GradLoads                // event 18: graduated loads
	GradStores               // event 19: graduated stores
	L1DMisses                // event 25: primary data cache misses
	L2Misses                 // event 26: secondary cache misses
	StoreShared              // event 31: store/prefetch exclusive to shared block (ntsync source)
	TLBMisses                // event 23: TLB misses (reported by perfex; deliberately unused by the model, as in the paper)
	numEvents
)

// NumEvents is the number of distinct events.
const NumEvents = int(numEvents)

var eventNames = [NumEvents]string{
	"cycles", "grad_instr", "grad_loads", "grad_stores",
	"l1d_misses", "l2_misses", "store_shared", "tlb_misses",
}

func (e Event) String() string {
	if int(e) < NumEvents {
		return eventNames[e]
	}
	return fmt.Sprintf("Event(%d)", uint8(e))
}

// Set is one processor's counter values.
type Set [NumEvents]uint64

// Add increments an event.
func (s *Set) Add(e Event, v uint64) { s[e] += v }

// Get reads an event.
func (s *Set) Get(e Event) uint64 { return s[e] }

// Merge accumulates another set into this one.
func (s *Set) Merge(o Set) {
	for i := range s {
		s[i] += o[i]
	}
}

// MemOps returns graduated loads + stores.
func (s *Set) MemOps() uint64 { return s[GradLoads] + s[GradStores] }

// Derived ratios. All guard against zero denominators by returning 0 — the
// model layers validate inputs before use.

// CPI returns cycles per graduated instruction.
func (s *Set) CPI() float64 { return ratio(s[Cycles], s[GradInstr]) }

// Hm returns L2 misses per instruction (the model's hm).
func (s *Set) Hm() float64 { return ratio(s[L2Misses], s[GradInstr]) }

// H2 returns (L1 misses − L2 misses) per instruction (the model's h2): the
// frequency of accesses that miss L1 but hit L2.
func (s *Set) H2() float64 {
	if s[L1DMisses] < s[L2Misses] {
		return 0
	}
	return ratio(s[L1DMisses]-s[L2Misses], s[GradInstr])
}

// MemFrac returns m = (loads+stores)/instructions.
func (s *Set) MemFrac() float64 { return ratio(s.MemOps(), s[GradInstr]) }

// L1HitRate returns 1 − L1misses/(loads+stores).
func (s *Set) L1HitRate() float64 {
	ops := s.MemOps()
	if ops == 0 {
		return 0
	}
	return 1 - ratio(s[L1DMisses], ops)
}

// L2LocalHitRate returns the fraction of L1 misses that hit in L2 — the
// paper's L2hitr, a *local* hit rate.
func (s *Set) L2LocalHitRate() float64 {
	if s[L1DMisses] == 0 {
		return 1
	}
	return 1 - ratio(s[L2Misses], s[L1DMisses])
}

func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// RunReport is the single per-run "output file" Scal-Tool needs: the raw
// counter values of one application execution at one (processor count,
// data-set size) point, plus the run-time instrumentation counts the paper's
// §2.4.2 barrier-counting method uses.
type RunReport struct {
	Machine   string `json:"machine"`
	App       string `json:"app"`
	Procs     int    `json:"procs"`
	DataBytes uint64 `json:"data_bytes"`

	PerProc []Set `json:"per_proc"`

	// WallCycles is the run's elapsed cycles (all processors run for the
	// whole execution, spinning when idle, so each processor's Cycles
	// counter equals this; the figures accumulate Cycles over processors).
	WallCycles uint64 `json:"wall_cycles"`

	// Barriers and Locks are run-time instrumentation counts (explicit +
	// implicit barriers; lock acquire/release pairs), per the paper's first
	// frac_sync method.
	Barriers uint64 `json:"barriers"`
	Locks    uint64 `json:"locks"`

	// TouchedPages is what the ssusage analogue reports (resident size).
	TouchedPages int `json:"touched_pages"`
	PageBytes    int `json:"page_bytes"`
}

// Total returns the sum of all processors' counters.
func (r *RunReport) Total() Set {
	var t Set
	for _, s := range r.PerProc {
		t.Merge(s)
	}
	return t
}

// TotalCycles returns cycles accumulated over all processors (the y-axis of
// the paper's Figures 6/9/12).
func (r *RunReport) TotalCycles() uint64 { return r.Total()[Cycles] }

// Ident names the report in error messages: which app on which machine at
// which (processor count, size) point — enough to find the offending run.
func (r *RunReport) Ident() string {
	return fmt.Sprintf("%s/%s p%d s%d", r.Machine, r.App, r.Procs, r.DataBytes)
}

// Validate checks internal consistency: the strict form of the invariants
// the simulator's own reports satisfy. Reports read from files are checked
// by health.Sanitize instead, which repairs small violations.
func (r *RunReport) Validate() error {
	if r.Procs <= 0 {
		return fmt.Errorf("counters: report %s: bad processor count %d", r.Ident(), r.Procs)
	}
	if len(r.PerProc) != r.Procs {
		return fmt.Errorf("counters: report %s: %d per-proc sets for %d processors", r.Ident(), len(r.PerProc), r.Procs)
	}
	if r.DataBytes == 0 {
		return fmt.Errorf("counters: report %s: zero data size", r.Ident())
	}
	for p, s := range r.PerProc {
		if s[L2Misses] > s[L1DMisses] {
			return fmt.Errorf("counters: report %s: proc %d has more L2 misses (%d) than L1 misses (%d)", r.Ident(), p, s[L2Misses], s[L1DMisses])
		}
		if s[GradInstr] == 0 {
			return fmt.Errorf("counters: report %s: proc %d graduated no instructions", r.Ident(), p)
		}
	}
	return nil
}

// WriteJSON serializes the report — one file per run, as Table 1 counts.
func (r *RunReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// ReadJSON decodes a report written by WriteJSON. It checks nothing but
// the encoding: whether the counters are plausible is health.Sanitize's
// call, the one check at the file boundary.
func ReadJSON(rd io.Reader) (*RunReport, error) {
	var r RunReport
	if err := json.NewDecoder(rd).Decode(&r); err != nil {
		return nil, fmt.Errorf("counters: decoding report: %w", err)
	}
	return &r, nil
}
