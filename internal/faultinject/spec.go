package faultinject

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Spec declares which faults to inject and at what rates. The zero Spec
// injects nothing. Probabilistic fields are per-decision-site probabilities
// in [0, 1]; targeted fields name exact run identities (campaign.RunID
// strings) and fire deterministically on that run.
type Spec struct {
	// Seed drives every random decision; same seed + spec → identical
	// faults, byte for byte.
	Seed uint64

	// Noise is the relative multiplexing-estimation error applied to each
	// muxed counter (everything but cycles and graduated instructions),
	// before scaling by the two-counter sampling share.
	Noise float64
	// Drop is the per-counter probability that an event's slot was never
	// scheduled and the counter reads zero.
	Drop float64
	// Wrap is the per-counter probability that a value ≥ 2^32 is reported
	// modulo 2^32 (a saturated 32-bit hardware counter).
	Wrap float64
	// Truncate and Corrupt are per-file probabilities for report files.
	Truncate float64
	Corrupt  float64

	// Durability faults, for the write-ahead journal (internal/journal).
	// Append and sync counts are 1-based and campaign-wide, so a sweep over
	// CrashAppend = 1..N kills the campaign at every journal write — the
	// crash-recovery invariant test. 0 disables each.

	// CrashAppend kills the process model cleanly before the Nth journal
	// append: the record never reaches the file.
	CrashAppend uint64
	// TornAppend kills it midway through the Nth append: half the record's
	// frame lands on disk (a torn write the journal must truncate on open).
	TornAppend uint64
	// FsyncFail makes the Nth journal fsync report failure: the record is
	// in the page cache but has no durability guarantee.
	FsyncFail uint64

	// Targeted faults, by run identity.
	PoisonRuns []string // report made implausible (forces quarantine)
	SkewRuns   []string // counters mildly inconsistent (repairable)
}

// specFloatKeys maps spec-string keys to Spec float fields.
func (s *Spec) floatFields() map[string]*float64 {
	return map[string]*float64{
		"noise": &s.Noise, "drop": &s.Drop, "wrap": &s.Wrap,
		"truncate": &s.Truncate, "corrupt": &s.Corrupt,
	}
}

func (s *Spec) listFields() map[string]*[]string {
	return map[string]*[]string{
		"poisonrun": &s.PoisonRuns, "skewrun": &s.SkewRuns,
	}
}

// ParseSpec parses the -fault-spec flag syntax: comma-separated key=value
// pairs, e.g.
//
//	seed=42,noise=0.02,poisonrun=base_p04_s1048576
//
// Keys: seed (integer); noise, drop, wrap, truncate, corrupt (probabilities
// in [0,1]); crashappend, tornappend, fsyncfail (1-based journal operation
// counts); poisonrun, skewrun (run identities, repeatable).
func ParseSpec(text string) (Spec, error) {
	var s Spec
	text = strings.TrimSpace(text)
	if text == "" {
		return s, nil
	}
	for _, part := range strings.Split(text, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		k, v, ok := strings.Cut(part, "=")
		if !ok {
			return s, fmt.Errorf("faultinject: spec entry %q is not key=value", part)
		}
		k, v = strings.TrimSpace(k), strings.TrimSpace(v)
		switch k {
		case "seed":
			n, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				return s, fmt.Errorf("faultinject: seed %q: %w", v, err)
			}
			s.Seed = n
		case "crashappend", "tornappend", "fsyncfail":
			n, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				return s, fmt.Errorf("faultinject: %s %q must be a non-negative integer", k, v)
			}
			switch k {
			case "crashappend":
				s.CrashAppend = n
			case "tornappend":
				s.TornAppend = n
			case "fsyncfail":
				s.FsyncFail = n
			}
		default:
			if fp, ok := s.floatFields()[k]; ok {
				f, err := strconv.ParseFloat(v, 64)
				if err != nil || f < 0 || f > 1 {
					return s, fmt.Errorf("faultinject: %s %q must be a probability in [0,1]", k, v)
				}
				*fp = f
				continue
			}
			if lp, ok := s.listFields()[k]; ok {
				if v == "" {
					return s, fmt.Errorf("faultinject: %s needs a run identity", k)
				}
				*lp = append(*lp, v)
				continue
			}
			return s, fmt.Errorf("faultinject: unknown spec key %q", k)
		}
	}
	return s, nil
}

// String renders the spec back into ParseSpec syntax (canonical order, so
// two equal specs print identically).
func (s Spec) String() string {
	var parts []string
	if s.Seed != 0 {
		parts = append(parts, fmt.Sprintf("seed=%d", s.Seed))
	}
	floats := s.floatFields()
	keys := make([]string, 0, len(floats))
	for k := range floats {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if v := *floats[k]; v > 0 {
			parts = append(parts, fmt.Sprintf("%s=%g", k, v))
		}
	}
	for _, c := range []struct {
		key string
		n   uint64
	}{{"crashappend", s.CrashAppend}, {"tornappend", s.TornAppend}, {"fsyncfail", s.FsyncFail}} {
		if c.n > 0 {
			parts = append(parts, fmt.Sprintf("%s=%d", c.key, c.n))
		}
	}
	lists := s.listFields()
	lkeys := make([]string, 0, len(lists))
	for k := range lists {
		lkeys = append(lkeys, k)
	}
	sort.Strings(lkeys)
	for _, k := range lkeys {
		for _, id := range *lists[k] {
			parts = append(parts, fmt.Sprintf("%s=%s", k, id))
		}
	}
	return strings.Join(parts, ",")
}

// ReportKeys lists, sorted, the keys the spec sets that perturb report
// files: every probability and run-list key. Only the command that writes
// report files can honour them.
func (s Spec) ReportKeys() []string {
	var keys []string
	for k, f := range s.floatFields() {
		if *f > 0 {
			keys = append(keys, k)
		}
	}
	for k, l := range s.listFields() {
		if len(*l) > 0 {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return keys
}

// Active reports whether the spec injects anything at all.
func (s Spec) Active() bool {
	return s.JournalTargets() || len(s.ReportKeys()) > 0
}
