package model

import (
	"errors"
	"fmt"
	"sort"

	"scaltool/internal/counters"
)

// This file is the model's degraded-input contract. A fault-tolerant
// campaign can lose runs — quarantined reports, permanently failed runs,
// sizes the application's grid cannot realize — and the fit must
// either proceed on what remains (recording exactly how far it ran from the
// full Table 3 input set) or refuse with an error callers can test for.

// ErrInsufficientInputs marks a fit refusal caused by too few usable
// measurements — below the least-squares minimum, missing the uniprocessor
// anchor, or missing a kernel. Test with errors.Is.
var ErrInsufficientInputs = errors.New("model: insufficient inputs")

// InsufficientInputsError is the typed form of an ErrInsufficientInputs
// refusal: the reason, plus the Degradation record of the input set at the
// moment the fit gave up — so a campaign caller can see exactly which
// dropped or quarantined runs starved the fit. Unwrap yields
// ErrInsufficientInputs, so errors.Is keeps working through any wrapping;
// extract the record with errors.As.
type InsufficientInputsError struct {
	Reason      string
	Degradation Degradation
}

func (e *InsufficientInputsError) Error() string {
	return e.Reason + ": " + ErrInsufficientInputs.Error()
}

// Unwrap ties the typed error to the ErrInsufficientInputs sentinel.
func (e *InsufficientInputsError) Unwrap() error { return ErrInsufficientInputs }

// insufficient builds the typed refusal, capturing the inputs' dropped-run
// record so the error is self-explanatory after any amount of wrapping.
func (in *Inputs) insufficient(format string, args ...any) error {
	d := Degradation{DroppedRuns: append([]string(nil), in.DroppedRuns...)}
	sort.Strings(d.DroppedRuns)
	d.Degraded = len(d.DroppedRuns) > 0
	return &InsufficientInputsError{Reason: fmt.Sprintf(format, args...), Degradation: d}
}

// Degradation is the typed record of everything a fit had to do without.
// The zero value means the fit ran on the full expected input set.
type Degradation struct {
	// Degraded is true when any field below is non-empty.
	Degraded bool

	// MissingUniSizes lists expected uniprocessor data-set sizes (from the
	// campaign plan) with no achieved sample anywhere near them; the
	// uniprocessor curves interpolate across those gaps.
	MissingUniSizes []uint64
	// MissingProcs lists expected base processor counts with no base run;
	// the model simply has no point there.
	MissingProcs []int
	// InterpolatedCoh lists processor counts whose Coh(s0, n) estimate
	// read the hit-rate curve at an s0/n with no measured sample nearby,
	// so the coherence miss rate rests on interpolation.
	InterpolatedCoh []int
	// DroppedRuns carries the campaign's quarantined/failed run
	// identities, so the record is self-contained.
	DroppedRuns []string
	// Notes holds further free-form degradations (e.g. missing sync-kernel
	// counts whose tsync(n) was interpolated).
	Notes []string
}

// Summary renders a one-line human summary ("" when not degraded).
func (d Degradation) Summary() string {
	if !d.Degraded {
		return ""
	}
	return fmt.Sprintf("degraded fit: %d missing uniproc size(s) %v, %d missing proc count(s) %v, coh interpolated at %v, %d dropped run(s), %d note(s)",
		len(d.MissingUniSizes), d.MissingUniSizes, len(d.MissingProcs), d.MissingProcs,
		d.InterpolatedCoh, len(d.DroppedRuns), len(d.Notes))
}

// sampleRatioTolerance bounds how far (as a size ratio) an achieved sample
// may sit from an expected size and still count as covering it. The Table 3
// grid is spaced 2× apart, and applications quantize requested sizes to
// their grids, so anything under ~√2·(quantization slack) of the expected
// size is the expected point; 1.45 keeps a quantized neighbor while
// rejecting the next grid point.
const sampleRatioTolerance = 1.45

// near reports whether two sizes are within the sample ratio tolerance.
func near(a, b uint64) bool {
	if a == 0 || b == 0 {
		return a == b
	}
	r := counters.ToFloat(a) / counters.ToFloat(b)
	if r < 1 {
		r = 1 / r
	}
	return r <= sampleRatioTolerance
}

// hasSampleNear reports whether any measurement's size is near s.
func hasSampleNear(ms []Measurement, s float64) bool {
	for _, m := range ms {
		r := counters.ToFloat(m.DataBytes) / s
		if r < 1 {
			r = 1 / r
		}
		if r <= sampleRatioTolerance {
			return true
		}
	}
	return false
}

// degradationOf assembles the fit's degradation record. uni and base are the
// sorted achieved measurements; points carries the per-count coherence
// interpolation flags set during fitting.
func degradationOf(in *Inputs, uni, base []Measurement, points []PointEstimate) Degradation {
	var d Degradation
	for _, want := range in.ExpectedUniSizes {
		covered := false
		for _, u := range uni {
			if near(u.DataBytes, want) {
				covered = true
				break
			}
		}
		if !covered {
			d.MissingUniSizes = append(d.MissingUniSizes, want)
		}
	}
	sort.Slice(d.MissingUniSizes, func(i, j int) bool { return d.MissingUniSizes[i] < d.MissingUniSizes[j] })
	for _, want := range in.ExpectedProcs {
		found := false
		for _, b := range base {
			if b.Procs == want {
				found = true
				break
			}
		}
		if !found {
			d.MissingProcs = append(d.MissingProcs, want)
		}
	}
	sort.Ints(d.MissingProcs)
	for _, pe := range points {
		if pe.CohInterpolated {
			d.InterpolatedCoh = append(d.InterpolatedCoh, pe.Procs)
		}
		if _, ok := in.SyncKernel[pe.Procs]; !ok {
			d.Notes = append(d.Notes, fmt.Sprintf("sync kernel missing at %d procs; tsync interpolated", pe.Procs))
		}
	}
	d.DroppedRuns = append([]string(nil), in.DroppedRuns...)
	sort.Strings(d.DroppedRuns)
	d.Degraded = len(d.MissingUniSizes)+len(d.MissingProcs)+len(d.InterpolatedCoh)+len(d.DroppedRuns)+len(d.Notes) > 0
	return d
}
