package obs

import (
	"bytes"
	"fmt"
	"math"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeHistogram(t *testing.T) {
	m := NewMetrics()
	c := m.Counter("scaltool_test_total", "a counter")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d", c.Value())
	}
	if m.Counter("scaltool_test_total", "a counter") != c {
		t.Fatal("re-registration returned a new counter")
	}
	g := m.Gauge("scaltool_test_rmse", "a gauge")
	g.Set(0.25)
	if g.Value() != 0.25 {
		t.Fatalf("gauge = %g", g.Value())
	}
	h := m.Histogram("scaltool_test_seconds", "a histogram", []float64{1, 10, 100})
	for _, v := range []float64{0.5, 1, 5, 1000} {
		h.Observe(v)
	}
	if h.Count() != 4 {
		t.Fatalf("hist count = %d", h.Count())
	}
	if h.Sum() != 1006.5 {
		t.Fatalf("hist sum = %g", h.Sum())
	}
}

func TestHistogramQuantile(t *testing.T) {
	m := NewMetrics()
	h := m.Histogram("scaltool_test_q_seconds", "quantile test", []float64{1, 10, 100})
	if !math.IsNaN(h.Quantile(0.5)) {
		t.Fatal("empty histogram quantile should be NaN")
	}
	for i := 0; i < 4; i++ {
		h.Observe(2) // all four observations land in the (1, 10] bucket
	}
	if got := h.Quantile(0.5); got != 5.5 {
		t.Fatalf("p50 = %g, want 5.5 (midpoint interpolation in (1,10])", got)
	}
	if got := h.Quantile(1); got != 10 {
		t.Fatalf("p100 = %g, want the bucket's upper bound", got)
	}
	h.Observe(1e6) // overflow bucket: quantiles clamp to the last finite bound
	if got := h.Quantile(0.99); got != 100 {
		t.Fatalf("p99 with overflow = %g, want clamp to 100", got)
	}
	if !math.IsNaN(h.Quantile(1.5)) || !math.IsNaN(h.Quantile(-0.1)) {
		t.Fatal("out-of-range quantiles should be NaN")
	}
	var nilH *Histogram
	if !math.IsNaN(nilH.Quantile(0.5)) {
		t.Fatal("nil histogram quantile should be NaN")
	}
}

func TestLabeledSeries(t *testing.T) {
	m := NewMetrics()
	a := m.Counter("scaltool_findings_total", "findings", "severity", "repair")
	b := m.Counter("scaltool_findings_total", "findings", "severity", "quarantine")
	if a == b {
		t.Fatal("distinct label sets shared a series")
	}
	a.Inc()
	b.Add(2)
	var buf bytes.Buffer
	if err := m.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`scaltool_findings_total{severity="repair"} 1`,
		`scaltool_findings_total{severity="quarantine"} 2`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
	if strings.Count(out, "# TYPE scaltool_findings_total counter") != 1 {
		t.Fatalf("TYPE emitted per-series:\n%s", out)
	}
}

// promSeriesRE matches one sample line of the text exposition format.
var promSeriesRE = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? [-+0-9.eE]+(Inf)?$`)

func TestPrometheusFormat(t *testing.T) {
	m := NewMetrics()
	m.Counter("scaltool_runs_total", "runs").Add(3)
	m.Gauge("scaltool_fit_rmse", "rmse").Set(0.031)
	h := m.Histogram("scaltool_run_seconds", "latency", []float64{0.01, 0.1, 1})
	h.Observe(0.05)
	h.Observe(5)
	var buf bytes.Buffer
	if err := m.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	var series int
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		series++
		if !promSeriesRE.MatchString(line) {
			t.Fatalf("malformed series line %q", line)
		}
	}
	// 1 counter + 1 gauge + (3 buckets + Inf + sum + count) = 8.
	if series != 8 {
		t.Fatalf("series = %d, want 8", series)
	}
	// Histogram buckets are cumulative and ordered.
	out := buf.String()
	for _, want := range []string{
		`scaltool_run_seconds_bucket{le="0.01"} 0`,
		`scaltool_run_seconds_bucket{le="0.1"} 1`,
		`scaltool_run_seconds_bucket{le="1"} 1`,
		`scaltool_run_seconds_bucket{le="+Inf"} 2`,
		`scaltool_run_seconds_count 2`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}

func TestMetricsConcurrent(t *testing.T) {
	m := NewMetrics()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 1000; k++ {
				m.Counter("scaltool_c_total", "c").Inc()
				m.Histogram("scaltool_h_cycles", "h", CycleBuckets).Observe(float64(k))
			}
		}()
	}
	wg.Wait()
	if got := m.Counter("scaltool_c_total", "c").Value(); got != 8000 {
		t.Fatalf("counter = %d", got)
	}
	if got := m.Histogram("scaltool_h_cycles", "h", CycleBuckets).Count(); got != 8000 {
		t.Fatalf("hist count = %d", got)
	}
}

func TestTypeConflictPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter as a gauge did not panic")
		}
	}()
	m := NewMetrics()
	m.Counter("scaltool_x", "x")
	m.Gauge("scaltool_x", "x")
}

// fmtLabels is the fmt-based label rendering appendLabels replaced; the
// /metrics exposition must not change by a byte.
func fmtLabels(labels []string) string {
	if len(labels) == 0 {
		return ""
	}
	type kv struct{ k, v string }
	kvs := make([]kv, 0, len(labels)/2)
	for i := 0; i < len(labels); i += 2 {
		kvs = append(kvs, kv{labels[i], labels[i+1]})
	}
	sort.Slice(kvs, func(i, j int) bool { return kvs[i].k < kvs[j].k })
	var b strings.Builder
	b.WriteByte('{')
	for i, p := range kvs {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", p.k, p.v)
	}
	b.WriteByte('}')
	return b.String()
}

func TestAppendLabelsMatchesFmt(t *testing.T) {
	for _, labels := range [][]string{
		nil,
		{"tier", "mem"},
		{"spilled", "true"},
		{"route", "/v1/analyze", "code", "200"},
		{"z", "1", "a", "2", "m", "3"},
		{"e", "5", "d", "4", "c", "3", "b", "2", "a", "1", "f", "6", "h", "8", "g", "7", "j", "10", "i", "9"},
		{"quote", `say "hi"`},
		{"backslash", `C:\path\to`},
		{"newline", "two\nlines\ttab"},
		{"unicode", "Grüße, 世界 ✓"},
		{"control", "\x00\x7f\u2028"},
		{"invalid", "\xff\xfe"},
		{"empty", ""},
	} {
		want := fmtLabels(labels)
		if got := string(appendLabels(nil, labels)); got != want {
			t.Errorf("labels %q rendered %s, want %s", labels, got, want)
		}
		if got := string(appendLabels([]byte("prefix"), labels)); got != "prefix"+want {
			t.Errorf("labels %q appended as %s, want prefix%s", labels, got, want)
		}
	}
}
