package main

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
)

func TestQuantileNearestRank(t *testing.T) {
	var s []float64
	for i := 1; i <= 100; i++ {
		s = append(s, float64(i))
	}
	for _, tc := range []struct {
		p      float64
		value  float64
		beyond int
	}{
		{0.50, 50, 50},
		{0.90, 90, 10},
		{0.99, 99, 1},
		{1.00, 100, 0},
		{0.001, 1, 99},
	} {
		v, b := quantile(s, tc.p)
		if v != tc.value || b != tc.beyond {
			t.Errorf("quantile(1..100, %v) = %v, %d beyond; want %v, %d", tc.p, v, b, tc.value, tc.beyond)
		}
	}
	if v, b := quantile(nil, 0.5); !math.IsNaN(v) || b != 0 {
		t.Errorf("quantile(nil) = %v, %d; want NaN, 0", v, b)
	}
}

func TestSummarizeRefusesThinTail(t *testing.T) {
	lat := func(n int) []float64 {
		var s []float64
		for i := n; i >= 1; i-- { // unsorted on purpose
			s = append(s, float64(i))
		}
		return s
	}
	got, err := summarize(lat(100))
	if err != nil {
		t.Fatalf("100 samples: %v", err)
	}
	if got.P50 != 50 || got.P90 != 90 || got.Beyond90 != 10 || got.Samples != 100 {
		t.Errorf("100 samples: got %+v", got)
	}
	// 99 samples leave 9 beyond the p90 rank: too few to report p90.
	if _, err := summarize(lat(99)); err == nil {
		t.Error("99 samples: p90 with 9 samples beyond it was accepted")
	}
}

func TestMedian(t *testing.T) {
	xs := []float64{3, 1, 2}
	if m := median(xs); m != 2 {
		t.Errorf("median(3,1,2) = %v", m)
	}
	if xs[0] != 3 {
		t.Error("median reordered its input")
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median(4,1,3,2) = %v", m)
	}
}

func TestTallyAccounting(t *testing.T) {
	var total tally
	total.add(tally{Attempted: 10, Succeeded: 7, Refused: 2, Failed: 1})
	total.add(tally{Attempted: 10, Succeeded: 10})
	if total.Attempted != 20 || total.failures() != 3 {
		t.Fatalf("merged tally %+v: failures %d", total, total.failures())
	}
	if r := total.successRatio(); r != 17.0/20 {
		t.Errorf("success ratio %v, want 0.85", r)
	}
	if r := (tally{}).successRatio(); r != 0 {
		t.Errorf("empty success ratio %v", r)
	}
}

// validOutcome is an outcome record accepts.
func validOutcome() *outcome {
	o := &outcome{
		Info:    runInfo{Workload: "w", HostCPUs: 2, Clients: 2},
		Tally:   tally{Attempted: 100, Succeeded: 99, Refused: 1},
		Metrics: map[string]metric{},
	}
	for _, name := range endToEndMetrics {
		o.Metrics[name] = metric{1.5, "ms"}
	}
	return o
}

func TestRecordWritesOnlyValidRuns(t *testing.T) {
	var buf bytes.Buffer
	if err := record(&buf, validOutcome(), endToEndMetrics); err != nil {
		t.Fatalf("valid outcome refused: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var last map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("last line is not JSON: %v", err)
	}
	if len(last) != 4 || last["correct"] == nil || last["attempted"] == nil || last["failed"] == nil || last["metrics"] == nil {
		t.Errorf("last line keys: %s", lines[len(lines)-1])
	}
	if string(last["failed"]) != "1" {
		t.Errorf("failed = %s, want the refused request counted", last["failed"])
	}

	for name, spoil := range map[string]func(*outcome){
		"clients over CPUs": func(o *outcome) { o.Info.Clients = 3 },
		"wrong body":        func(o *outcome) { o.Tally.Mismatches = []string{"doc: body differs"} },
		"run error":         func(o *outcome) { o.Errs = append(o.Errs, errTest) },
		"missing metric":    func(o *outcome) { delete(o.Metrics, "setup_s") },
		"extra metric":      func(o *outcome) { o.Metrics["bogus"] = metric{1, "ms"} },
		"NaN metric":        func(o *outcome) { o.Metrics["latency_p90_ms"] = metric{math.NaN(), "ms"} },
		"nothing attempted": func(o *outcome) { o.Tally = tally{} },
	} {
		o := validOutcome()
		spoil(o)
		var buf bytes.Buffer
		if err := record(&buf, o, endToEndMetrics); err == nil {
			t.Errorf("%s: recorded", name)
		}
		if buf.Len() != 0 {
			t.Errorf("%s: wrote %q", name, buf.String())
		}
	}
}

type testErr string

func (e testErr) Error() string { return string(e) }

const errTest = testErr("golden mismatch")

func TestLayerTiling(t *testing.T) {
	s := layerSums{
		N:         4,
		OneClient: 400,
		Plan:      4, Estimate: 8, Exec: 300, Fit: 12, Encode: 4, Diagnose: 20,
		Build: 40, Key: 20, Lookup: 16, Sim: 200,
		Par: 150, ParWorkers: 2,
		Sims: 10, MemOps: 2e6,
		CacheLookups: 40, CacheHits: 30, CacheDiskHits: 10, Evictions: 8,
	}
	// Execute is build + key + lookup + sim + overhead.
	if got := s.overhead(); got != 300-(40+20+16+200) {
		t.Errorf("overhead %v", got)
	}
	if got := s.attributed(); got != 4+8+300+12+4+20 {
		t.Errorf("attributed %v", got)
	}
	// The residual and the layers add back up to the one-client latency.
	if got := s.attributed() + s.unattributed(); got != s.OneClient {
		t.Errorf("layers + residual = %v, want %v", got, s.OneClient)
	}
	// Off-path timings add to their layers' figures but not to the sum the
	// residual is taken against.
	off := layerSums{Diagnose: 2, Journal: 40, JournalBytes: 400}
	m := s.metrics(&off)
	if len(m) != len(perLayerMetrics) {
		t.Errorf("%d per-layer metrics, %d declared", len(m), len(perLayerMetrics))
	}
	for _, name := range perLayerMetrics {
		if _, ok := m[name]; !ok {
			t.Errorf("per-layer metric %s missing", name)
		}
	}
	for name, want := range map[string]float64{
		"runcache.key_ms": 20 / 4.0, "diagnose.ms": (20 + 2) / 4.0,
		"journal.ms": 40 / 4.0, "journal.bytes": 100,
		"serve.unattributed_ms": (400 - (4 + 8 + 300 + 12 + 4 + 20)) / 4.0,
	} {
		if got := m[name].Value; math.Abs(got-want) > 1e-9 {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	m = s.metrics(&layerSums{})
	sum := 0.0
	for _, name := range []string{
		"campaign.plan_ms", "admission.estimate_ms", "apps.build_ms", "runcache.key_ms",
		"runcache.lookup_ms", "sim.run_ms", "campaign.overhead_ms", "model.fit_ms",
		"diagnose.ms", "serve.encode_ms", "serve.unattributed_ms",
	} {
		sum += m[name].Value
	}
	if one := m["serve.one_client_ms"].Value; math.Abs(sum-one) > 1e-9 {
		t.Errorf("per-request layer means sum to %v, one-client mean is %v", sum, one)
	}
	for name, want := range map[string]float64{
		"campaign.parallel_eff":      (40 + 20 + 16 + 200) / (2 * 150.0),
		"sim.mem_ops_per_s":          2e6 / 0.2,
		"sim.runs_per_req":           2.5,
		"runcache.hit_ratio":         0.75,
		"runcache.disk_hit_ratio":    0.25,
		"runcache.evictions_per_req": 2,
	} {
		if got := m[name].Value; math.Abs(got-want) > 1e-9 {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	// A layer that never ran reports zero, not NaN.
	if got := (&layerSums{N: 1}).metrics(&layerSums{})["sim.mem_ops_per_s"].Value; got != 0 {
		t.Errorf("mem ops/s with no simulation = %v", got)
	}
}

func TestUnattributedBound(t *testing.T) {
	if b := unattributedBound(100); b != 28 {
		t.Errorf("bound(100 ms) = %v", b)
	}
}
