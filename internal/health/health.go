// Package health validates the measurement data Scal-Tool's model consumes.
// The model is only as trustworthy as its counter inputs, and real counters
// are noisy, multiplexed, saturating, and occasionally missing — so a
// RunReport read from a report file passes through Sanitize before it
// reaches model.Fit. (Reports straight from the simulator must pass it
// untouched; the campaign asserts so.) Sanitize checks the physical
// invariants a plausible report must satisfy:
//
//   - L1 data misses ≤ graduated loads + stores (a miss needs an access);
//   - L2 misses ≤ L1 misses (the hierarchy is inclusive on the miss path);
//   - cycles ≥ instructions · minCPI (the core cannot beat its issue width);
//   - every processor graduated instructions and the report's shape matches
//     its processor count.
//
// Small violations with a known physical cause are repaired in place and
// recorded (a clamped counter from multiplexing noise, a 32-bit wraparound
// un-wrapped against the wall clock); implausible reports are quarantined.
// Everything — repairs, quarantines, permanent failures — lands in
// a machine-readable Report so a campaign's operator can audit exactly what
// the fault-tolerance layer did.
package health

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"

	"scaltool/internal/counters"
)

// Severity classifies a finding.
type Severity string

// Finding severities, from benign to fatal-for-the-run.
const (
	// Info findings note structural oddities that need no action.
	Info Severity = "info"
	// Repair findings record a counter value the validator corrected.
	Repair Severity = "repair"
	// Quarantine findings make the run's report unusable.
	Quarantine Severity = "quarantine"
)

// Finding is one validator observation about one run.
type Finding struct {
	Run      string   `json:"run"`
	Check    string   `json:"check"`
	Severity Severity `json:"severity"`
	Detail   string   `json:"detail"`
}

func (f Finding) String() string {
	return fmt.Sprintf("[%s] %s: %s: %s", f.Severity, f.Run, f.Check, f.Detail)
}

// FailureEvent records a run that failed permanently: its simulation
// returned an error or its program could not be built.
type FailureEvent struct {
	Run    string `json:"run"`
	Reason string `json:"reason"`
}

// Report is the machine-readable health record of one campaign. All methods
// are safe for concurrent use; Finalize sorts every list into a
// deterministic order.
type Report struct {
	mu          sync.Mutex
	Findings    []Finding      `json:"findings"`
	Quarantined []string       `json:"quarantined"`
	Failed      []FailureEvent `json:"failed"`
}

// NewReport returns an empty report.
func NewReport() *Report { return &Report{} }

// Add appends findings.
func (r *Report) Add(fs ...Finding) {
	if len(fs) == 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.Findings = append(r.Findings, fs...)
}

// AddQuarantine records that a run's report was discarded.
func (r *Report) AddQuarantine(run string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.Quarantined = append(r.Quarantined, run)
}

// AddFailure records a permanently failed run.
func (r *Report) AddFailure(run string, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.Failed = append(r.Failed, FailureEvent{Run: run, Reason: errString(err)})
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// Finalize sorts every list into a deterministic order (by run identity).
// Call it once the campaign's workers have stopped.
func (r *Report) Finalize() {
	r.mu.Lock()
	defer r.mu.Unlock()
	sort.Slice(r.Findings, func(i, j int) bool {
		a, b := r.Findings[i], r.Findings[j]
		if a.Run != b.Run {
			return a.Run < b.Run
		}
		if a.Check != b.Check {
			return a.Check < b.Check
		}
		return a.Detail < b.Detail
	})
	sort.Strings(r.Quarantined)
	sort.Slice(r.Failed, func(i, j int) bool { return r.Failed[i].Run < r.Failed[j].Run })
}

// Counts returns how many findings of each severity the report holds.
func (r *Report) Counts() (info, repairs, quarantines int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, f := range r.Findings {
		switch f.Severity {
		case Repair:
			repairs++
		case Quarantine:
			quarantines++
		default:
			info++
		}
	}
	return info, repairs, quarantines
}

// Clean reports whether the campaign ran with no repairs, quarantines, or
// failures (info findings are allowed).
func (r *Report) Clean() bool {
	_, repairs, quarantines := r.Counts()
	r.mu.Lock()
	defer r.mu.Unlock()
	return repairs == 0 && quarantines == 0 && len(r.Failed) == 0
}

// DroppedRuns lists the run identities whose measurements never made it
// into the model's inputs (quarantined or permanently failed).
func (r *Report) DroppedRuns() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := append([]string(nil), r.Quarantined...)
	for _, f := range r.Failed {
		out = append(out, f.Run)
	}
	sort.Strings(out)
	return out
}

// Summary renders a one-paragraph human summary.
func (r *Report) Summary() string {
	info, repairs, quarantines := r.Counts()
	r.mu.Lock()
	defer r.mu.Unlock()
	return fmt.Sprintf("health: %d repair(s), %d quarantined run(s), %d permanent failure(s), %d note(s) [%d quarantine finding(s)]",
		repairs, len(r.Quarantined), len(r.Failed), info, quarantines)
}

// WriteJSON emits the machine-readable report. Slices are never null so
// downstream tooling can index unconditionally.
func (r *Report) WriteJSON(w io.Writer) error {
	r.mu.Lock()
	shadow := struct {
		Findings    []Finding      `json:"findings"`
		Quarantined []string       `json:"quarantined"`
		Failed      []FailureEvent `json:"failed"`
	}{
		Findings:    emptyNotNil(r.Findings),
		Quarantined: emptyNotNil(r.Quarantined),
		Failed:      emptyNotNil(r.Failed),
	}
	r.mu.Unlock()
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(shadow)
}

func emptyNotNil[T any](s []T) []T {
	if s == nil {
		return []T{}
	}
	return s
}

// ShouldQuarantine reports whether any finding is quarantine-severity.
func ShouldQuarantine(fs []Finding) bool {
	for _, f := range fs {
		if f.Severity == Quarantine {
			return true
		}
	}
	return false
}

// repairBand is how far past an invariant a counter may sit and still be
// attributed to multiplexing estimation noise (and clamped) rather than a
// broken measurement (and quarantined).
const repairBand = 1.15

// counterWidth is the wraparound modulus of the hardware counters.
const counterWidth = uint64(1) << 32

// Sanitize checks one run's counter report against the physical invariants,
// repairing what has a known benign cause and flagging the rest for
// quarantine. It never modifies rep; the returned report carries the
// repairs. minCPI is the lowest cycles-per-instruction the machine's core
// can sustain (0 disables the bound, for callers that don't know the
// machine).
func Sanitize(run string, rep *counters.RunReport, minCPI float64) (*counters.RunReport, []Finding) {
	var fs []Finding
	add := func(check string, sev Severity, format string, args ...any) {
		fs = append(fs, Finding{Run: run, Check: check, Severity: sev, Detail: fmt.Sprintf(format, args...)})
	}

	if rep.Procs <= 0 || len(rep.PerProc) != rep.Procs {
		add("shape", Quarantine, "report has %d per-proc sets for %d processors", len(rep.PerProc), rep.Procs)
		return rep, fs
	}
	if rep.DataBytes == 0 {
		add("shape", Quarantine, "report has zero data size")
		return rep, fs
	}
	if rep.WallCycles > counters.MaxExact {
		add("range", Quarantine, "wall cycles %d exceed float64's exact range (2^53)", rep.WallCycles)
		return rep, fs
	}

	out := *rep
	out.PerProc = append([]counters.Set(nil), rep.PerProc...)
perProc:
	for p := range out.PerProc {
		s := &out.PerProc[p]

		// Untrusted inputs (tolerant file loading) can hold arbitrary
		// values; anything past float64's exact integer range would poison
		// the least-squares fits silently, so it quarantines the run.
		for e := 0; e < counters.NumEvents; e++ {
			if v := s.Get(counters.Event(e)); v > counters.MaxExact {
				add("range", Quarantine, "proc %d %s = %d exceeds float64's exact range (2^53)", p, counters.Event(e), v)
				continue perProc
			}
		}

		// 32-bit wraparound. In this machine every processor runs for the
		// whole execution (spinning when idle), so its cycles counter must
		// equal the wall clock; a value sitting 2^32-periodically below it
		// is a wrapped counter, and adding back whole wraps restores it.
		if wall := rep.WallCycles; wall > 0 && s.Get(counters.Cycles) < wall {
			orig := s.Get(counters.Cycles)
			v := orig
			for v+counterWidth <= wall {
				v += counterWidth
			}
			if v != orig && v == wall {
				s[counters.Cycles] = v
				add("wraparound", Repair, "proc %d cycles %d un-wrapped to %d (+%d wraps of 2^32)",
					p, orig, v, (v-orig)/counterWidth)
			}
		}

		if s.Get(counters.GradInstr) == 0 {
			add("instructions", Quarantine, "proc %d graduated no instructions", p)
			continue
		}
		if minCPI > 0 {
			cyc, instr := counters.ToFloat(s.Get(counters.Cycles)), counters.ToFloat(s.Get(counters.GradInstr))
			if cyc < minCPI*instr {
				add("min-cpi", Quarantine, "proc %d has %.0f cycles for %.0f instructions (CPI %.3f < machine floor %.3f)",
					p, cyc, instr, cyc/instr, minCPI)
				continue
			}
		}

		// L1 misses cannot exceed the memory accesses that caused them.
		if ops, l1 := s.MemOps(), s.Get(counters.L1DMisses); l1 > ops {
			if ops > 0 && float64(l1) <= repairBand*float64(ops) {
				s[counters.L1DMisses] = ops
				add("l1-misses", Repair, "proc %d l1d_misses %d clamped to %d loads+stores (multiplexing noise)", p, l1, ops)
			} else {
				add("l1-misses", Quarantine, "proc %d has %d L1 misses for %d loads+stores", p, l1, ops)
				continue
			}
		}
		// L2 misses are a subset of L1 misses.
		if l1, l2 := s.Get(counters.L1DMisses), s.Get(counters.L2Misses); l2 > l1 {
			if l1 > 0 && float64(l2) <= repairBand*float64(l1) {
				s[counters.L2Misses] = l1
				add("l2-misses", Repair, "proc %d l2_misses %d clamped to %d l1d_misses (multiplexing noise)", p, l2, l1)
			} else {
				add("l2-misses", Quarantine, "proc %d has %d L2 misses for %d L1 misses", p, l2, l1)
			}
		}
	}
	return &out, fs
}

// CheckStructure audits the campaign-level Table 3 shape: the base runs
// should cover a doubling chain of processor counts starting at 1, and the
// uniprocessor scan should span enough dynamic range to anchor both the
// compulsory-miss peak and the L2-overflow fit. Violations are Info
// findings — the model can often still fit, degraded.
func CheckStructure(baseProcs []int, uniSizes []uint64) []Finding {
	var fs []Finding
	add := func(check, format string, args ...any) {
		fs = append(fs, Finding{Run: "campaign", Check: check, Severity: Info, Detail: fmt.Sprintf(format, args...)})
	}
	procs := append([]int(nil), baseProcs...)
	sort.Ints(procs)
	if len(procs) == 0 || procs[0] != 1 {
		add("table3-base", "base runs lack the uniprocessor point (have %v)", procs)
	}
	for i := 1; i < len(procs); i++ {
		if procs[i] != 2*procs[i-1] {
			add("table3-base", "base processor counts %v break the doubling chain at %d", procs, procs[i])
		}
	}
	sizes := append([]uint64(nil), uniSizes...)
	sort.Slice(sizes, func(i, j int) bool { return sizes[i] < sizes[j] })
	for i := 1; i < len(sizes); i++ {
		if sizes[i] == sizes[i-1] {
			add("table3-uni", "duplicate uniprocessor size %d", sizes[i])
		}
	}
	if len(sizes) >= 2 {
		if span := float64(sizes[len(sizes)-1]) / float64(sizes[0]); span < 4 {
			add("table3-uni", "uniprocessor sizes span only %.1f× (%d … %d); the hit-rate scan needs ≥ 4× to see the L2 knee",
				span, sizes[0], sizes[len(sizes)-1])
		}
	}
	return fs
}
