package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
)

// minTail is the fewest samples a reported percentile must leave beyond
// it; a percentile resting on fewer is noise, and the run is refused.
const minTail = 10

// quantile returns the nearest-rank p-quantile of sorted samples (the
// smallest sample with at least p·n samples at or below it) and how many
// samples lie strictly beyond that rank.
func quantile(sorted []float64, p float64) (value float64, beyond int) {
	n := len(sorted)
	if n == 0 {
		return math.NaN(), 0
	}
	rank := int(math.Ceil(p * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1], n - rank
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count). xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// latencySummary is the timing part of an end-to-end run.
type latencySummary struct {
	P50, P90 float64 // ms
	Samples  int
	Beyond90 int // samples strictly beyond the p90 rank
}

// summarize selects p50 and p90 from latencies in milliseconds, refusing a
// p90 with fewer than minTail samples beyond it.
func summarize(latMS []float64) (latencySummary, error) {
	s := append([]float64(nil), latMS...)
	sort.Float64s(s)
	var out latencySummary
	out.Samples = len(s)
	out.P50, _ = quantile(s, 0.50)
	out.P90, out.Beyond90 = quantile(s, 0.90)
	if out.Beyond90 < minTail {
		return out, fmt.Errorf("p90 rests on %d samples beyond it (need %d): %d samples in the run", out.Beyond90, minTail, len(s))
	}
	return out, nil
}

// tally counts a run's requests. Refused (429) and failed (any other
// non-200, or a transport error) both count against the run; a 200 whose
// body differs from the document's expected body is a correctness failure
// that invalidates the whole run.
type tally struct {
	Attempted  int
	Succeeded  int
	Refused    int
	Failed     int
	Mismatches []string // one line per wrong 200 body
}

// failures is what the result line reports as failed: failed plus refused.
func (t tally) failures() int { return t.Failed + t.Refused }

// successRatio is (attempted − failed − refused) / attempted, the
// complement of the fail ratio, so that it is never zero on a healthy run.
func (t tally) successRatio() float64 {
	if t.Attempted == 0 {
		return 0
	}
	return float64(t.Attempted-t.failures()) / float64(t.Attempted)
}

// add merges another client's counts into t.
func (t *tally) add(o tally) {
	t.Attempted += o.Attempted
	t.Succeeded += o.Succeeded
	t.Refused += o.Refused
	t.Failed += o.Failed
	t.Mismatches = append(t.Mismatches, o.Mismatches...)
}

// metric is one reported figure with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runInfo is the context printed on the line before the result: what a
// reader needs to judge a figure but that is not itself a metric.
type runInfo struct {
	Workload  string  `json:"workload"`
	Seed      int64   `json:"seed"`
	Trace     bool    `json:"trace"`
	HostCPUs  int     `json:"host_cpus"`
	GoVersion string  `json:"go_version"`
	Clients   int     `json:"clients"`
	Samples   int     `json:"samples"`
	Beyond90  int     `json:"samples_beyond_p90,omitempty"`
	WindowS   float64 `json:"window_s"`
	// FirstError says why the first failed request failed.
	FirstError string `json:"first_error,omitempty"`
	// RunCache is the daemon's run-cache traffic over its whole life,
	// set-up included.
	RunCache map[string]float64 `json:"runcache,omitempty"`
	// GoldenChecks counts the traced run's simulations checked against
	// the committed golden digests.
	GoldenChecks int `json:"golden_checks,omitempty"`
	// UnattributedBoundMS is the bound the traced run held
	// serve.unattributed_ms to.
	UnattributedBoundMS float64 `json:"unattributed_bound_ms,omitempty"`
}

// outcome is everything a run produced, before validation.
type outcome struct {
	Info    runInfo
	Tally   tally
	Metrics map[string]metric
	// Errs are reasons the run is invalid, found while it ran: a wrong
	// body, a golden mismatch, a layer residual out of bounds.
	Errs []error
}

// refusal lists every reason o must not be recorded.
func (o *outcome) refusal(want []string) error {
	var reasons []string
	if o.Info.Clients > o.Info.HostCPUs {
		reasons = append(reasons, fmt.Sprintf("%d clients exceed the host's %d CPUs", o.Info.Clients, o.Info.HostCPUs))
	}
	if o.Tally.Attempted < 1 {
		reasons = append(reasons, "no request was attempted")
	}
	for _, m := range o.Tally.Mismatches {
		reasons = append(reasons, "wrong body: "+m)
	}
	for _, err := range o.Errs {
		reasons = append(reasons, err.Error())
	}
	for _, name := range want {
		m, ok := o.Metrics[name]
		if !ok {
			reasons = append(reasons, "metric "+name+" was not measured")
			continue
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			reasons = append(reasons, fmt.Sprintf("metric %s is %v", name, m.Value))
		}
	}
	if len(o.Metrics) != len(want) {
		reasons = append(reasons, fmt.Sprintf("%d metrics measured, %d declared", len(o.Metrics), len(want)))
	}
	if len(reasons) == 0 {
		return nil
	}
	msg := "run refused:"
	for _, r := range reasons {
		msg += "\n  " + r
	}
	return fmt.Errorf("%s", msg)
}

// record validates o and, only if it is valid, writes the info line and the
// result line to w. An invalid run writes nothing and returns the reasons.
func record(w io.Writer, o *outcome, want []string) error {
	if err := o.refusal(want); err != nil {
		return err
	}
	info, err := json.Marshal(o.Info)
	if err != nil {
		return err
	}
	line, err := json.Marshal(result{
		Correct:   true,
		Attempted: o.Tally.Attempted,
		Failed:    o.Tally.failures(),
		Metrics:   o.Metrics,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n%s\n", info, line)
	return err
}
