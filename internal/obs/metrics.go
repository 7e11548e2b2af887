package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Metric naming convention (DESIGN.md §9): scaltool_<subsystem>_<what>_<unit>,
// counters suffixed _total, histograms named for their unit (…_seconds,
// …_cycles). Labels are constant per series and registered up front; there is
// no dynamic label cardinality.

// CycleBuckets are the fixed histogram bounds for simulated-cycle
// distributions (1e4 … 3e9 cycles, log-spaced ×~3).
var CycleBuckets = []float64{1e4, 3e4, 1e5, 3e5, 1e6, 3e6, 1e7, 3e7, 1e8, 3e8, 1e9, 3e9}

// LatencyBuckets are the fixed histogram bounds for wall-clock latencies in
// seconds (1 ms … 60 s).
var LatencyBuckets = []float64{0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60}

// Metrics is a registry of counters, gauges, and histograms. Registration
// takes a lock; the instruments themselves are lock-free atomics. A nil
// *Metrics is valid: every method is a no-op returning nil instruments,
// whose methods are in turn no-ops.
type Metrics struct {
	mu       sync.Mutex
	families map[string]*family
}

// family is every series sharing one metric name (they differ by labels).
type family struct {
	name, help, typ string
	series          map[string]any // label rendering → *Counter | *Gauge | *Histogram
}

// NewMetrics returns an empty registry.
func NewMetrics() *Metrics {
	return &Metrics{families: map[string]*family{}}
}

// Counter registers (or returns the existing) counter. labels are key, value
// pairs rendered into the series as name{k="v",…}.
func (m *Metrics) Counter(name, help string, labels ...string) *Counter {
	if m == nil {
		return nil
	}
	v := m.lookup("counter", name, help, labels, func() any { return &Counter{} })
	return v.(*Counter)
}

// Gauge registers (or returns the existing) gauge.
func (m *Metrics) Gauge(name, help string, labels ...string) *Gauge {
	if m == nil {
		return nil
	}
	v := m.lookup("gauge", name, help, labels, func() any { return &Gauge{} })
	return v.(*Gauge)
}

// Histogram registers (or returns the existing) histogram with fixed bucket
// upper bounds (ascending; +Inf is implicit).
func (m *Metrics) Histogram(name, help string, buckets []float64, labels ...string) *Histogram {
	if m == nil {
		return nil
	}
	v := m.lookup("histogram", name, help, labels, func() any { return newHistogram(buckets) })
	return v.(*Histogram)
}

func (m *Metrics) lookup(typ, name, help string, labels []string, mk func() any) any {
	// Rendered on the stack: indexing the map with string(key) does not
	// allocate, so only a series' first registration copies the key.
	var buf [128]byte
	key := appendLabels(buf[:0], labels)
	m.mu.Lock()
	defer m.mu.Unlock()
	fam, ok := m.families[name]
	if !ok {
		fam = &family{name: name, help: help, typ: typ, series: map[string]any{}}
		m.families[name] = fam
	}
	if fam.typ != typ {
		panic(fmt.Sprintf("obs: metric %q re-registered as %s (was %s)", name, typ, fam.typ))
	}
	s, ok := fam.series[string(key)]
	if !ok {
		s = mk()
		fam.series[string(key)] = s
	}
	return s
}

// appendLabels appends key,value pairs to dst as a deterministic
// {k="v",…} suffix: keys sorted, values Go-quoted. Label sets are a pair or
// two, so an insertion sort over pair indices on the stack orders them.
func appendLabels(dst []byte, labels []string) []byte {
	if len(labels) == 0 {
		return dst
	}
	if len(labels)%2 != 0 {
		panic("obs: labels must be key, value pairs")
	}
	var idxBuf [8]int
	order := idxBuf[:0]
	for i := 0; i < len(labels); i += 2 {
		order = append(order, i)
		for k := len(order) - 1; k > 0 && labels[order[k-1]] > labels[i]; k-- {
			order[k], order[k-1] = order[k-1], order[k]
		}
	}
	dst = append(dst, '{')
	for n, i := range order {
		if n > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, labels[i]...)
		dst = append(dst, '=')
		dst = strconv.AppendQuote(dst, labels[i+1])
	}
	return append(dst, '}')
}

// Counter is a monotonically increasing uint64.
type Counter struct{ v atomic.Uint64 }

// Inc adds one. Safe on nil.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n. Safe on nil.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a settable float64.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v. Safe on nil.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Add moves the gauge by d (negative to decrease) — the up/down counter use
// (in-flight requests, pool occupancy). Lock-free via CAS. Safe on nil.
func (g *Gauge) Add(d float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		v := math.Float64frombits(old) + d
		if g.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Value returns the current value (0 on nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram counts observations into fixed buckets (Prometheus semantics:
// bounds are inclusive upper edges; +Inf is implicit).
type Histogram struct {
	bounds  []float64
	counts  []atomic.Uint64 // len(bounds)+1; last = +Inf
	sumBits atomic.Uint64
}

func newHistogram(bounds []float64) *Histogram {
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	return &Histogram{bounds: b, counts: make([]atomic.Uint64, len(b)+1)}
}

// Observe records one value. Safe on nil.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound ≥ v
	h.counts[i].Add(1)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Count returns the number of observations (0 on nil).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	var n uint64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Quantile estimates the q-th quantile (0 ≤ q ≤ 1) of the observed
// distribution by linear interpolation inside the containing bucket —
// Prometheus histogram_quantile semantics, so /metrics consumers and
// in-process callers agree. Observations above the last finite bound clamp
// to it. Returns NaN on a nil or empty histogram or q outside [0, 1].
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil || q < 0 || q > 1 || len(h.bounds) == 0 {
		return math.NaN()
	}
	total := h.Count()
	if total == 0 {
		return math.NaN()
	}
	rank := q * float64(total)
	var cum float64
	for i, bound := range h.bounds {
		c := float64(h.counts[i].Load())
		if c > 0 && cum+c >= rank {
			lo := 0.0
			if i > 0 {
				lo = h.bounds[i-1]
			}
			return lo + (bound-lo)*((rank-cum)/c)
		}
		cum += c
	}
	return h.bounds[len(h.bounds)-1]
}

// Sum returns the sum of observations (0 on nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// WritePrometheus serializes the registry in Prometheus text exposition
// format (version 0.0.4), families sorted by name, series by label set.
func (m *Metrics) WritePrometheus(w io.Writer) error {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	fams := make([]*family, 0, len(m.families))
	for _, f := range m.families {
		fams = append(fams, f)
	}
	m.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	for _, f := range fams {
		if f.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.name, f.help); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.typ); err != nil {
			return err
		}
		keys := make([]string, 0, len(f.series))
		for k := range f.series {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			if err := writeSeries(w, f, k); err != nil {
				return err
			}
		}
	}
	return nil
}

func writeSeries(w io.Writer, f *family, labels string) error {
	switch s := f.series[labels].(type) {
	case *Counter:
		_, err := fmt.Fprintf(w, "%s%s %d\n", f.name, labels, s.Value())
		return err
	case *Gauge:
		_, err := fmt.Fprintf(w, "%s%s %s\n", f.name, labels, formatFloat(s.Value()))
		return err
	case *Histogram:
		var cum uint64
		for i, bound := range s.bounds {
			cum += s.counts[i].Load()
			if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, mergeLabels(labels, "le", formatFloat(bound)), cum); err != nil {
				return err
			}
		}
		cum += s.counts[len(s.bounds)].Load()
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, mergeLabels(labels, "le", "+Inf"), cum); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", f.name, labels, formatFloat(s.Sum())); err != nil {
			return err
		}
		_, err := fmt.Fprintf(w, "%s_count%s %d\n", f.name, labels, cum)
		return err
	}
	return fmt.Errorf("obs: unknown series type for %s%s", f.name, labels)
}

// mergeLabels appends one extra label pair to an already-rendered label set.
func mergeLabels(labels, k, v string) string {
	extra := fmt.Sprintf("%s=%q", k, v)
	if labels == "" {
		return "{" + extra + "}"
	}
	return strings.TrimSuffix(labels, "}") + "," + extra + "}"
}

func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
