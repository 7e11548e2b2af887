package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"testing"

	"scaltool/internal/diagnose"
	"scaltool/internal/obs"
	"scaltool/internal/runcache"
)

func postDiagnose(t *testing.T, url string, body io.Reader) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/v1/diagnose", "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

func diagnoseBody(app string, procs int, s0 uint64) *bytes.Reader {
	return bytes.NewReader([]byte(fmt.Sprintf(`{"app":%q,"procs":%d,"s0":%d}`, app, procs, s0)))
}

func diagCacheHits(mt *obs.Metrics) uint64 { return mt.ResponseCache("/v1/diagnose", "hit").Value() }

// TestDiagnoseEndToEnd is the acceptance test: a 1/2/4/8-processor campaign
// of a seeded app returns a deterministic ranked culprit list whose
// per-region recoverable-cycle estimates sum to the measured scaling loss
// within 1 part in 2^20 — and the report self-verifies client-side.
func TestDiagnoseEndToEnd(t *testing.T) {
	_, ts, _ := newTestServer(t, Options{Workers: 2, Cache: runcache.New(runcache.Options{})})
	resp, body := postDiagnose(t, ts.URL, diagnoseBody("swim", 8, 2<<20))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("X-Request-Id") == "" {
		t.Error("response missing X-Request-Id")
	}
	var rep diagnose.Report
	if err := json.Unmarshal(body, &rep); err != nil {
		t.Fatalf("undecodable report: %v\n%s", err, body)
	}
	if rep.App != "swim" || rep.Machine != "scaled" {
		t.Fatalf("report identity wrong: app=%q machine=%q", rep.App, rep.Machine)
	}
	if len(rep.Procs) != 4 { // 1, 2, 4, 8
		t.Fatalf("procs = %v, want the 1/2/4/8 sweep", rep.Procs)
	}
	if len(rep.Culprits) == 0 || rep.Graph == nil || len(rep.Runs) != 4 {
		t.Fatalf("report incomplete: %d culprits, graph=%v, %d runs", len(rep.Culprits), rep.Graph != nil, len(rep.Runs))
	}
	// The decoded report must pass the same verification the server ran —
	// the provenance chain is machine-checkable on the client side.
	if err := rep.Verify(); err != nil {
		t.Fatalf("served report fails verification: %v", err)
	}
	for i := 1; i < len(rep.Culprits); i++ {
		if rep.Culprits[i].Recoverable > rep.Culprits[i-1].Recoverable {
			t.Fatalf("culprits not ranked at %d", i)
		}
	}
	if rep.Culprits[0].Verdict == diagnose.VerdictScales || rep.Culprits[0].SyncObject == "" && rep.Culprits[0].Verdict != diagnose.VerdictCommunication {
		t.Fatalf("top culprit has no actionable verdict: %+v", rep.Culprits[0])
	}
	// Every culprit's provenance run IDs must resolve to reported runs.
	lanes := map[string]bool{}
	for _, r := range rep.Runs {
		lanes[r.RunID] = true
	}
	for _, c := range rep.Culprits {
		for _, pt := range c.Curve {
			if !lanes[pt.RunID] {
				t.Fatalf("culprit %q cites unknown run %q", c.Region, pt.RunID)
			}
		}
	}
}

// TestDiagnoseByteIdenticalAndCached: repeated identical requests are
// byte-identical, and the second is served from the response cache — no
// admission, no simulation.
func TestDiagnoseByteIdenticalAndCached(t *testing.T) {
	_, ts, mt := newTestServer(t, Options{Workers: 2, Cache: runcache.New(runcache.Options{})})

	resp1, body1 := postDiagnose(t, ts.URL, diagnoseBody("swim", 4, 2<<20))
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("first request: %d: %s", resp1.StatusCode, body1)
	}
	cold := simRuns(mt)
	if cold == 0 {
		t.Fatal("first diagnosis simulated nothing")
	}
	if diagCacheHits(mt) != 0 {
		t.Fatal("first request hit the response cache")
	}

	resp2, body2 := postDiagnose(t, ts.URL, diagnoseBody("swim", 4, 2<<20))
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("second request: %d: %s", resp2.StatusCode, body2)
	}
	if !bytes.Equal(body1, body2) {
		t.Fatalf("repeated diagnosis differs:\n%s\nvs\n%s", body1, body2)
	}
	if got := simRuns(mt); got != cold {
		t.Fatalf("response-cache hit ran %d simulations, want 0", got-cold)
	}
	if diagCacheHits(mt) != 1 {
		t.Fatalf("diagnose cache hits = %d, want 1", diagCacheHits(mt))
	}
}

// TestDiagnoseSharesRunCacheWithAnalyze: a diagnosis after an analysis of
// the same request re-simulates nothing — both endpoints address the same
// content-addressed run cache.
func TestDiagnoseSharesRunCacheWithAnalyze(t *testing.T) {
	_, ts, mt := newTestServer(t, Options{Workers: 2, Cache: runcache.New(runcache.Options{})})
	resp, body := postAnalyze(t, ts.URL, bytes.NewReader([]byte(`{"app":"swim","procs":4,"s0":2097152}`)))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("analyze: %d: %s", resp.StatusCode, body)
	}
	cold := simRuns(mt)
	resp, body = postDiagnose(t, ts.URL, diagnoseBody("swim", 4, 2<<20))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("diagnose: %d: %s", resp.StatusCode, body)
	}
	if got := simRuns(mt); got != cold {
		t.Fatalf("diagnosis after analysis re-simulated %d runs, want 0", got-cold)
	}
}

// TestDiagnoseRejections covers the endpoint's own refusal — a
// uniprocessor sweep has no scaling loss to explain — next to shared ones,
// and checks /v1/analyze does not refuse the uniprocessor document for its
// processor count.
func TestDiagnoseRejections(t *testing.T) {
	_, ts, _ := newTestServer(t, Options{Workers: 1})
	cases := []struct {
		name, body string
		status     int
		code       string
	}{
		{"uniprocessor", `{"app":"swim","procs":1}`, http.StatusUnprocessableEntity, "bad_procs"},
		{"unknown app", `{"app":"nope","procs":4}`, http.StatusUnprocessableEntity, "unknown_app"},
		{"malformed", `{"app":`, http.StatusBadRequest, "malformed"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := postDiagnose(t, ts.URL, bytes.NewReader([]byte(tc.body)))
			if resp.StatusCode != tc.status {
				t.Fatalf("status %d, want %d: %s", resp.StatusCode, tc.status, body)
			}
			var e apiError
			if err := json.Unmarshal(body, &e); err != nil || e.Code != tc.code {
				t.Fatalf("error code %q (err %v), want %q", e.Code, err, tc.code)
			}
		})
	}
	resp, err := http.Get(ts.URL + "/v1/diagnose")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET: %d, want 405", resp.StatusCode)
	}
	// /v1/analyze accepts one processor, but swim's plan at one processor
	// reaches too few uniprocessor sizes to fit: refused as a bad plan,
	// before any run.
	resp, body := postAnalyze(t, ts.URL, bytes.NewReader([]byte(`{"app":"swim","procs":1}`)))
	var e apiError
	if err := json.Unmarshal(body, &e); err != nil || resp.StatusCode != http.StatusUnprocessableEntity || e.Code != "bad_plan" {
		t.Fatalf("/v1/analyze swim at procs 1: %d %s, want 422 bad_plan", resp.StatusCode, body)
	}
}

// TestRequestIDPropagation: a client-supplied well-formed X-Request-Id is
// echoed; a garbage one is replaced, never reflected.
func TestRequestIDPropagation(t *testing.T) {
	_, ts, _ := newTestServer(t, Options{Workers: 1})
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/diagnose", bytes.NewReader([]byte(`{"app":"swim","procs":1}`)))
	req.Header.Set("X-Request-Id", "client-abc_123")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-Id"); got != "client-abc_123" {
		t.Fatalf("X-Request-Id = %q, want the client's own", got)
	}

	req, _ = http.NewRequest(http.MethodPost, ts.URL+"/v1/analyze", bytes.NewReader([]byte(`{"app":"swim","procs":1}`)))
	req.Header.Set("X-Request-Id", "bad id with{garbage}")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	got := resp.Header.Get("X-Request-Id")
	if got == "" || got == "bad id with{garbage}" {
		t.Fatalf("X-Request-Id = %q, want a fresh server-generated id", got)
	}
}

// TestPerRouteLatencyHistograms: every endpoint records into the
// route-labeled scaltool_serve_request_seconds family, and the in-process
// quantile view works.
func TestPerRouteLatencyHistograms(t *testing.T) {
	_, ts, mt := newTestServer(t, Options{Workers: 1})
	if resp, _ := postAnalyze(t, ts.URL, analyzeBody("swim", 4)); resp.StatusCode != http.StatusOK {
		t.Fatalf("analyze failed: %d", resp.StatusCode)
	}
	resp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metricsText, _ := io.ReadAll(resp.Body)
	resp.Body.Close()

	for _, route := range []string{"/v1/analyze", "/v1/healthz"} {
		h := mt.RequestSeconds(route)
		if h.Count() == 0 {
			t.Errorf("route %s: no latency observations", route)
		}
		if q := h.Quantile(0.99); q <= 0 || math.IsNaN(q) {
			t.Errorf("route %s: p99 = %v", route, q)
		}
	}
	want := `scaltool_serve_request_seconds_bucket{route="/v1/analyze",le="+Inf"}`
	if !bytes.Contains(metricsText, []byte(want)) {
		t.Errorf("/metrics missing per-route latency series %q", want)
	}
}
