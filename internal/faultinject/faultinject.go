// Package faultinject deterministically injects realistic measurement
// faults into Scal-Tool's pipeline. Real hardware event counters are noisy
// (multiplexed sampling extrapolates), saturating (32-bit counters wrap),
// and occasionally absent (a counter slot never scheduled); real report
// files arrive truncated or corrupt; a real process dies before or halfway
// through a journal write, or its fsync fails. A production campaign has to
// survive all of that, and a reproducible chaos test has to inject it on
// demand.
//
// Each fault is injected where its real counterpart arises. Report faults
// (PerturbReport, MangleFile) apply where report files are written, the
// boundary at which untrusted measurements enter the model; MangleFile
// also damages run-cache spill files; journal faults (Spec.JournalHook)
// apply to the campaign's write-ahead journal.
//
// Run failures are not injected: runs come from a deterministic simulator,
// so the transient crashes and hangs of a real machine cannot happen, and a
// campaign executes each run once.
//
// Every decision the injector makes is a pure function of (Spec.Seed, run
// identity, processor, event): the same seed and spec produce byte-identical
// perturbed reports regardless of worker count or scheduling.
package faultinject

import (
	"fmt"
	"math"

	"scaltool/internal/counters"
	"scaltool/internal/journal"
)

// Kind names one fault class.
type Kind string

// The fault kinds the injector can produce.
const (
	KindNoise    Kind = "noise"    // multiplexing estimation noise on a counter
	KindDrop     Kind = "drop"     // counter never scheduled: reads zero
	KindWrap     Kind = "wrap"     // 32-bit counter wraparound
	KindTruncate Kind = "truncate" // report file truncated mid-write
	KindCorrupt  Kind = "corrupt"  // report file byte-corrupted
	KindPoison   Kind = "poison"   // report made internally inconsistent (quarantine bait)
	KindSkew     Kind = "skew"     // mildly inconsistent counters (repairable)
)

// Fault records one injected fault, for tests that cross-check the health
// report against what was actually injected.
type Fault struct {
	Kind   Kind
	Run    string
	Detail string
}

// Injector applies a Spec deterministically.
type Injector struct {
	spec   Spec
	poison map[string]bool
	skew   map[string]bool
}

// New builds an injector for a spec. A nil *Injector is valid and injects
// nothing.
func New(spec Spec) *Injector {
	return &Injector{
		spec:   spec,
		poison: toSet(spec.PoisonRuns),
		skew:   toSet(spec.SkewRuns),
	}
}

// Spec returns the injector's spec; a nil injector's is the zero Spec.
func (in *Injector) Spec() Spec {
	if in == nil {
		return Spec{}
	}
	return in.spec
}

func toSet(ids []string) map[string]bool {
	m := make(map[string]bool, len(ids))
	for _, id := range ids {
		m[id] = true
	}
	return m
}

// JournalHook translates the spec's journal-fault counts into a
// journal.Hook: the CrashAppend-th append fails outright, the
// TornAppend-th writes half its frame first, and the FsyncFail-th fsync
// fails. Counts are exact, not probabilities, so a test can sweep every
// journal operation of a campaign deterministically. A spec with no
// journal fault returns nil.
func (s Spec) JournalHook() journal.Hook {
	if !s.JournalTargets() {
		return nil
	}
	return func(op journal.Op, n uint64) error {
		switch {
		case op == journal.OpAppend && n == s.CrashAppend:
			return fmt.Errorf("faultinject: injected crash before journal append %d", n)
		case op == journal.OpAppend && n == s.TornAppend:
			return fmt.Errorf("faultinject: injected crash during journal append %d: %w", n, journal.ErrTornWrite)
		case op == journal.OpSync && n == s.FsyncFail:
			return fmt.Errorf("faultinject: injected fsync failure at journal sync %d", n)
		}
		return nil
	}
}

// JournalTargets reports whether the spec injects any journal-level fault.
func (s Spec) JournalTargets() bool {
	return s.CrashAppend > 0 || s.TornAppend > 0 || s.FsyncFail > 0
}

// muxShareScale is the noise amplification of two-counter multiplexing: the
// R10000 exposes two physical counters, so each of the muxed events (all but
// cycles and graduated instructions, which perfex pins) is live for a 2/muxed
// share of the run and its extrapolation noise grows like sqrt(muxed/2).
func muxShareScale() float64 {
	muxed := float64(counters.NumEvents - 2)
	return math.Sqrt(muxed / 2)
}

// PerturbReport returns a perturbed copy of a run's counter report, plus
// the list of faults injected. The input report is never modified.
// Multiplexing noise is counters.MultiplexReport's, scaled by the
// two-counter sampling share and seeded per run.
func (in *Injector) PerturbReport(run string, rep *counters.RunReport) (*counters.RunReport, []Fault) {
	out := *rep
	out.PerProc = append([]counters.Set(nil), rep.PerProc...)
	if in == nil {
		return &out, nil
	}
	var faults []Fault
	add := func(kind Kind, detail string) {
		faults = append(faults, Fault{Kind: kind, Run: run, Detail: detail})
	}

	if relErr := in.spec.Noise * muxShareScale(); relErr > 0 {
		out = *counters.MultiplexReport(rep, counters.MuxOptions{RelError: relErr, Seed: mix(in.spec.Seed, hashString(run))})
		for p := range out.PerProc {
			for e := 0; e < counters.NumEvents; e++ {
				if v, nv := rep.PerProc[p][e], out.PerProc[p][e]; nv != v {
					add(KindNoise, fmt.Sprintf("proc %d %s: %d → %d", p, counters.Event(e), v, nv))
				}
			}
		}
	}
	for p := range out.PerProc {
		s := &out.PerProc[p]
		for e := 0; e < counters.NumEvents; e++ {
			ev := counters.Event(e)
			v := s.Get(ev)
			// 32-bit wraparound: only values that actually exceed the
			// counter width can wrap.
			if v >= 1<<32 && in.prob(in.spec.Wrap, hashString(run), uint64(p), uint64(e), 0x22) {
				s[ev] = v & (1<<32 - 1)
				add(KindWrap, fmt.Sprintf("proc %d %s: %d wrapped to %d", p, ev, v, s[ev]))
				v = s[ev]
			}
			// Dropped counter: the event's slot never got scheduled.
			if v != 0 && in.prob(in.spec.Drop, hashString(run), uint64(p), uint64(e), 0x33) {
				s[ev] = 0
				add(KindDrop, fmt.Sprintf("proc %d %s: dropped (was %d)", p, ev, v))
			}
		}
	}
	if in.skew[run] && len(out.PerProc) > 0 {
		s := &out.PerProc[0]
		l1 := s.Get(counters.L1DMisses)
		skewed := l1 + l1/20 + 1 // ~5% over the L1 misses: repairable
		s[counters.L2Misses] = skewed
		add(KindSkew, fmt.Sprintf("proc 0 l2_misses skewed above l1d_misses (%d > %d)", skewed, l1))
	}
	if in.poison[run] && len(out.PerProc) > 0 {
		out.PerProc[0][counters.GradInstr] = 0
		add(KindPoison, "proc 0 grad_instr zeroed: report made implausible")
	}
	return &out, faults
}

// MangleFile applies file-level faults (truncation, byte corruption) to a
// serialized report, keyed by the file name. The returned slice is a copy
// when a fault fires, the original otherwise.
func (in *Injector) MangleFile(name string, data []byte) ([]byte, []Fault) {
	if in == nil || len(data) < 2 {
		return data, nil
	}
	var faults []Fault
	if in.prob(in.spec.Truncate, hashString(name), 0x44) {
		full := len(data)
		cut := 1 + int(mix(in.spec.Seed, hashString(name), 0x45)%uint64(full-1))
		data = append([]byte(nil), data[:cut]...)
		faults = append(faults, Fault{Kind: KindTruncate, Run: name,
			Detail: fmt.Sprintf("truncated to %d of %d bytes", cut, full)}) //scalvet:ignore fires only with fault injection active, never in production
		return data, faults
	}
	if in.prob(in.spec.Corrupt, hashString(name), 0x46) {
		out := append([]byte(nil), data...)
		pos := int(mix(in.spec.Seed, hashString(name), 0x47) % uint64(len(out)))
		out[pos] = 0xFF // never valid in a JSON document
		faults = append(faults, Fault{Kind: KindCorrupt, Run: name,
			Detail: fmt.Sprintf("byte %d overwritten", pos)}) //scalvet:ignore fires only with fault injection active, never in production
		return out, faults
	}
	return data, nil
}

// prob draws a deterministic Bernoulli sample for a decision site.
func (in *Injector) prob(p float64, parts ...uint64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	h := mix(append([]uint64{in.spec.Seed}, parts...)...)
	return float64(h%1_000_000_007)/1_000_000_007 < p
}

// mix chains splitmix64 over the parts — the same construction the counters
// package uses for multiplexing jitter.
func mix(parts ...uint64) uint64 {
	x := uint64(0x9e3779b97f4a7c15)
	for _, p := range parts {
		x ^= p + 0x9e3779b97f4a7c15 + (x << 6) + (x >> 2)
		x = splitmix64(x)
	}
	return x
}

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// hashString is FNV-1a, fixing the run-identity hash independent of Go's
// randomized map hashing.
func hashString(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}
