package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"scaltool/internal/admission"
	"scaltool/internal/apps"
	"scaltool/internal/campaign"
	"scaltool/internal/machine"
	"scaltool/internal/obs"
	"scaltool/internal/runcache"
)

// newTestServer builds a Server plus its observer so tests can read the
// scaltool_* metric series directly.
func newTestServer(t *testing.T, opts Options) (*Server, *httptest.Server, *obs.Metrics) {
	t.Helper()
	mt := obs.NewMetrics()
	opts.Obs = &obs.Observer{Metrics: mt}
	s := New(opts)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts, mt
}

func analyzeBody(app string, procs int) *bytes.Reader {
	return bytes.NewReader([]byte(fmt.Sprintf(`{"app":%q,"procs":%d}`, app, procs)))
}

func postAnalyze(t *testing.T, url string, body io.Reader) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/v1/analyze", "application/json", body)
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

func simRuns(mt *obs.Metrics) uint64 {
	return mt.Counter("scaltool_sim_runs_total", "simulated runs completed").Value()
}

// TestAnalyzeEndToEnd drives one full analysis over HTTP and sanity-checks
// the response document.
func TestAnalyzeEndToEnd(t *testing.T) {
	_, ts, _ := newTestServer(t, Options{Workers: 2})
	resp, body := postAnalyze(t, ts.URL, analyzeBody("swim", 4))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out Response
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("undecodable response: %v\n%s", err, body)
	}
	if out.App != "swim" || out.Procs != 4 || out.S0 == 0 {
		t.Fatalf("response header wrong: %+v", out)
	}
	if len(out.Speedups) != 3 || len(out.Breakdown) != 3 { // procs 1, 2, 4
		t.Fatalf("speedups=%d breakdown=%d, want 3 each", len(out.Speedups), len(out.Breakdown))
	}
	if out.Model.CPI0 <= 0 || out.Model.Tm1 <= 0 {
		t.Fatalf("model params not fitted: %+v", out.Model)
	}
	last := out.Speedups[len(out.Speedups)-1]
	if last.Procs != 4 || last.Speedup <= 1 {
		t.Fatalf("4-processor speedup %v, want > 1", last)
	}
}

// TestAnalyzeCacheHitByteIdentical is the acceptance test for the serving
// path. A repeat on the same server is a response-cache hit; a fresh server
// on the same warm run cache answers from the run cache alone. Either way
// there are zero scaltool_sim_runs_total increments and the body is
// byte-identical to the uncached one.
func TestAnalyzeCacheHitByteIdentical(t *testing.T) {
	cache := runcache.New(runcache.Options{})
	_, ts, mt := newTestServer(t, Options{Workers: 2, Cache: cache})

	resp1, body1 := postAnalyze(t, ts.URL, analyzeBody("swim", 4))
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("first request: %d: %s", resp1.StatusCode, body1)
	}
	cold := simRuns(mt)
	if cold == 0 {
		t.Fatal("first analysis simulated nothing")
	}

	// Same server: the response cache answers.
	resp2, body2 := postAnalyze(t, ts.URL, analyzeBody("swim", 4))
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("second request: %d: %s", resp2.StatusCode, body2)
	}
	if got := simRuns(mt); got != cold {
		t.Fatalf("response-cache hit ran %d simulations, want 0", got-cold)
	}
	if !bytes.Equal(body1, body2) {
		t.Fatalf("cached response differs from fresh:\n%s\nvs\n%s", body1, body2)
	}
	if hits := mt.ResponseCache("/v1/analyze", "hit").Value(); hits != 1 {
		t.Fatalf("response-cache hits = %d, want 1", hits)
	}

	// A fresh server sharing the warm run cache: no response cache entry,
	// so the campaign runs, and every run is a memory hit.
	_, ts2, mt2 := newTestServer(t, Options{Workers: 2, Cache: cache})
	resp3, body3 := postAnalyze(t, ts2.URL, analyzeBody("swim", 4))
	if resp3.StatusCode != http.StatusOK {
		t.Fatalf("run-cache request: %d: %s", resp3.StatusCode, body3)
	}
	if got := simRuns(mt2); got != 0 {
		t.Fatalf("run-cache hit ran %d simulations, want 0", got)
	}
	if !bytes.Equal(body1, body3) {
		t.Fatalf("run-cache response differs from fresh:\n%s\nvs\n%s", body1, body3)
	}
	if hits := mt2.Counter("scaltool_runcache_hits_total", "run-cache hits by tier", "tier", "mem").Value(); hits == 0 {
		t.Fatal("no run-cache memory hits recorded")
	}
}

// TestConcurrentIdenticalRequestsShareSimulations checks the singleflight
// path end to end: N identical concurrent requests cost one campaign's worth
// of simulations, and all bodies are byte-identical.
func TestConcurrentIdenticalRequestsShareSimulations(t *testing.T) {
	const n = 6
	_, ts, mt := newTestServer(t, Options{
		Workers: n, QueueDepth: n, Cache: runcache.New(runcache.Options{}),
	})

	bodies := make([][]byte, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, b := postAnalyze(t, ts.URL, analyzeBody("swim", 4))
			if resp.StatusCode == http.StatusOK {
				bodies[i] = b
			}
		}(i)
	}
	wg.Wait()
	var ok int
	for _, b := range bodies {
		if b != nil {
			ok++
		}
	}
	if ok != n {
		t.Fatalf("%d of %d concurrent requests succeeded", ok, n)
	}
	for i := 1; i < n; i++ {
		if !bytes.Equal(bodies[0], bodies[i]) {
			t.Fatalf("request %d body differs from request 0", i)
		}
	}
	// One campaign at swim/4 runs a fixed job count; concurrent identical
	// campaigns share those simulations through the cache's singleflight.
	// (An exact equality would race with the first campaign completing
	// before the others start — the bound is what matters: far below n×.)
	cold := simRuns(mt)
	resp, _ := postAnalyze(t, ts.URL, analyzeBody("hydro2d", 4))
	if resp.StatusCode != http.StatusOK {
		t.Fatal("reference campaign failed")
	}
	perCampaign := simRuns(mt) - cold
	if cold > 2*perCampaign {
		t.Fatalf("%d concurrent identical requests cost %d simulations (one campaign = %d); singleflight sharing broken",
			n, cold, perCampaign)
	}
}

// TestLoadShedding fills the worker pool and the admission queue, then
// checks the next request is shed with 429 + Retry-After instead of queued.
func TestLoadShedding(t *testing.T) {
	release := make(chan struct{})
	var once sync.Once
	s, ts, mt := newTestServer(t, Options{Workers: 1, QueueDepth: 1, RequestTimeout: 30 * time.Second})
	defer once.Do(func() { close(release) })
	s.testHookRun = func() { <-release }

	// Request 1 occupies the worker (blocked in the hook); request 2 takes
	// the one queue slot.
	errs := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() {
			resp, err := http.Post(ts.URL+"/v1/analyze", "application/json", analyzeBody("swim", 4))
			if err == nil {
				resp.Body.Close()
			}
			errs <- err
		}()
	}
	// Wait until both are admitted (1 executing + 1 queued).
	deadline := time.Now().Add(5 * time.Second)
	for len(s.admitted) != 2 {
		if time.Now().After(deadline) {
			t.Fatalf("admission never filled: %d of 2", len(s.admitted))
		}
		time.Sleep(time.Millisecond)
	}

	resp, body := postAnalyze(t, ts.URL, analyzeBody("swim", 4))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overloaded server returned %d, want 429: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	if shed := mt.ServeShed("queue").Value(); shed != 1 {
		t.Fatalf("shed counter = %d, want 1", shed)
	}

	once.Do(func() { close(release) })
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

// TestDrain checks the shutdown sequence: draining flips healthz to 503,
// new analyses are shed with 429 (retryable elsewhere), in-flight ones
// finish with a complete response, and Drain returns only once they have.
func TestDrain(t *testing.T) {
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	var once sync.Once
	defer once.Do(func() { close(release) })
	s, ts, mt := newTestServer(t, Options{Workers: 1})
	s.testHookRun = func() { started <- struct{}{}; <-release }

	done := make(chan []byte, 1)
	go func() {
		resp, b := postAnalyze(t, ts.URL, analyzeBody("swim", 4))
		if resp.StatusCode != http.StatusOK {
			b = nil
		}
		done <- b
	}()
	<-started

	// Drain with the request still running: must time out.
	dctx, dcancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer dcancel()
	if err := s.Drain(dctx); err == nil {
		t.Fatal("Drain returned while an analysis was in flight")
	}

	// Draining: healthz 503 (stop routing here), new analyses shed with 429
	// and a Retry-After — the work is retryable against a peer or after the
	// restart.
	hz, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hz.Body.Close()
	if hz.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz = %d, want 503", hz.StatusCode)
	}
	resp, body := postAnalyze(t, ts.URL, analyzeBody("swim", 2))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("draining analyze = %d, want 429: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("draining 429 without Retry-After")
	}
	if shed := mt.ServeShed("drain").Value(); shed != 1 {
		t.Fatalf("drain shed counter = %d, want 1", shed)
	}

	// Release the in-flight analysis: it must complete normally — a full,
	// decodable response, never a partial one — and Drain must now succeed.
	once.Do(func() { close(release) })
	b := <-done
	if b == nil {
		t.Fatal("in-flight analysis was not allowed to finish during drain")
	}
	var out Response
	if err := json.Unmarshal(b, &out); err != nil || len(out.Speedups) == 0 {
		t.Fatalf("drained in-flight response incomplete: %v\n%s", err, b)
	}
	dctx2, dcancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer dcancel2()
	if err := s.Drain(dctx2); err != nil {
		t.Fatal(err)
	}
}

// refusalCases is the shared 4xx table: 400 for documents that are not the
// request schema, 413 for documents or datasets over a server whose budget
// caps procs at 8, 422 for well-formed but semantically invalid requests.
// Both routes share the gates, so each document draws the same status and
// code on both.
var refusalCases = []struct {
	name string
	body string
	want int
	code string
}{
	{"garbage body", `{"app":`, http.StatusBadRequest, "malformed"},
	{"unknown field", `{"app":"swim","frobnicate":1}`, http.StatusBadRequest, "malformed"},
	{"wrong type", `{"app":"swim","procs":"four"}`, http.StatusBadRequest, "malformed"},
	{"trailing garbage", `{"app":"swim","procs":8}garbage`, http.StatusBadRequest, "malformed"},
	{"trailing document", `{"app":"swim","procs":8}{"app":"nope"}`, http.StatusBadRequest, "malformed"},
	{"body over limit", `{"app":"swim","procs":"` + strings.Repeat("x", maxBodyBytes+1) + `"}`,
		http.StatusRequestEntityTooLarge, "body_too_large"},
	{"s0 over budget", `{"app":"swim","procs":4,"s0":18446744073709551615}`, http.StatusRequestEntityTooLarge, "s0_budget"},
	{"missing app", `{}`, http.StatusUnprocessableEntity, "missing_app"},
	{"unknown app", `{"app":"nope"}`, http.StatusUnprocessableEntity, "unknown_app"},
	{"app and program", `{"app":"swim","program":{"name":"x","arrays":[{"name":"a","elems":64}],"regions":[{"name":"r","ops":[{"kind":"read","array":"a"}]}]}}`,
		http.StatusUnprocessableEntity, "ambiguous_app"},
	{"bad procs", `{"app":"swim","procs":3}`, http.StatusUnprocessableEntity, "bad_procs"},
	{"plan too small to fit", `{"app":"swim","procs":2}`, http.StatusUnprocessableEntity, "bad_plan"},
	{"procs over limit", `{"app":"swim","procs":16}`, http.StatusUnprocessableEntity, "procs_cap"},
	{"bad machine", `{"app":"swim","machine":"cray"}`, http.StatusUnprocessableEntity, "bad_machine"},
	{"bad spec", `{"program":{"name":"x","arrays":[],"regions":[]}}`, http.StatusUnprocessableEntity, "spec_arrays"},
	{"spec bad op", `{"program":{"name":"x","arrays":[{"name":"a","elems":64}],"regions":[{"name":"r","ops":[{"kind":"warp","array":"a"}]}]}}`,
		http.StatusUnprocessableEntity, "spec_op_kind"},
}

// refused posts body to route and checks the refusal: status want, the
// uniform error shape, and machine-readable code.
func refused(t *testing.T, url, route, body string, want int, code string) *http.Response {
	t.Helper()
	resp, b := post(t, url, route, body)
	if resp.StatusCode != want {
		t.Fatalf("%s: status %d, want %d: %s", route, resp.StatusCode, want, b)
	}
	var e map[string]string
	if err := json.Unmarshal(b, &e); err != nil || e["error"] == "" {
		t.Fatalf("%s: error body not the uniform shape: %s", route, b)
	}
	if e["code"] != code {
		t.Fatalf("%s: code %q, want %q (%s)", route, e["code"], code, b)
	}
	return resp
}

// refuseGET checks that every route answers GET with 405.
func refuseGET(t *testing.T, url string, routes []string) {
	t.Helper()
	for _, route := range routes {
		resp, err := http.Get(url + route)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("GET %s = %d, want 405", route, resp.StatusCode)
		}
	}
}

// TestRequestValidation pins the 4xx contract (refusalCases), each refusal
// with a stable machine-readable code in the body. Every refusal is sent to
// both routes and must come back the same; so must 405, 422 quarantined
// after a panic, and 429 draining.
func TestRequestValidation(t *testing.T) {
	s, ts, _ := newTestServer(t, Options{Workers: 1, Budget: admission.Budget{MaxProcs: 8}})
	routes := []string{"/v1/analyze", "/v1/diagnose"}
	for _, tc := range refusalCases {
		t.Run(tc.name, func(t *testing.T) {
			for _, route := range routes {
				refused(t, ts.URL, route, tc.body, tc.want, tc.code)
			}
		})
	}
	refuseGET(t, ts.URL, routes)

	// A panic quarantines the document's shape on the route it crashed.
	const doc = `{"app":"swim","procs":4}`
	s.testHookRun = func() { panic("simulated pipeline fault") }
	for _, route := range routes {
		refused(t, ts.URL, route, doc, http.StatusInternalServerError, "panic")
	}
	s.testHookRun = nil
	for _, route := range routes {
		refused(t, ts.URL, route, doc, http.StatusUnprocessableEntity, "quarantined")
	}

	// A draining server refuses new work on every route, retryably.
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	for _, route := range routes {
		if resp := refused(t, ts.URL, route, doc, http.StatusTooManyRequests, "draining"); resp.Header.Get("Retry-After") == "" {
			t.Fatalf("%s: draining 429 without Retry-After", route)
		}
	}
}

// TestDefaultSimWorkersPricing: SimWorkers 0 means GOMAXPROCS concurrent
// runs (campaign.Runner's default), so admission must charge transient
// allocation for that many, not for the single worker the estimator clamps
// a 0 to.
func TestDefaultSimWorkersPricing(t *testing.T) {
	atCeiling(t, 4)
	const workers = 4
	s := New(Options{Workers: 1})
	stop := admission.Reject(http.StatusRequestEntityTooLarge, "priced", "test stops after pricing")
	for _, tc := range []struct {
		path string
		ref  func(admission.Budget, machine.Config, apps.App, campaign.Plan, int) (admission.Cost, *admission.Rejection)
	}{
		{"/v1/analyze", admission.Budget.EstimatePlan},
		{"/v1/diagnose", admission.Budget.EstimateDiagnose},
	} {
		rt := routeOf(t, s, tc.path)
		price := rt.price
		var got, want, one admission.Cost
		rt.price = func(b admission.Budget, ctx context.Context, cfg machine.Config, app apps.App, plan campaign.Plan, w int) (admission.Cost, *admission.Rejection) {
			var rej *admission.Rejection
			if got, rej = price(b, ctx, cfg, app, plan, w); rej != nil {
				t.Fatalf("%s: priced with a rejection: %v", tc.path, rej)
			}
			want, _ = tc.ref(b, cfg, app, plan, workers)
			one, _ = tc.ref(b, cfg, app, plan, 1)
			return admission.Cost{}, stop
		}
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, tc.path, strings.NewReader(`{"app":"swim","procs":32}`)))
		if rec.Code != stop.Status {
			t.Fatalf("%s: status %d, want the stub's %d: %s", tc.path, rec.Code, stop.Status, rec.Body)
		}
		if want == one {
			t.Fatalf("%s: the document costs the same at 1 and %d workers; it cannot tell them apart", tc.path, workers)
		}
		if got != want {
			t.Errorf("%s: SimWorkers 0 priced at %+v, want %+v (%d workers; 1 worker is %+v)", tc.path, got, want, workers, one)
		}
	}
}

// TestMetricsEndpoint checks /metrics serves the serve_* series in
// Prometheus text format.
func TestMetricsEndpoint(t *testing.T) {
	_, ts, _ := newTestServer(t, Options{Workers: 1})
	if resp, _ := postAnalyze(t, ts.URL, analyzeBody("swim", 2)); resp.StatusCode != http.StatusBadRequest {
		// swim at 2 procs yields too few uniprocessor sizes; any terminal
		// status is fine — the request only has to be counted.
		_ = resp
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics = %d", resp.StatusCode)
	}
	for _, want := range []string{"scaltool_serve_requests_total", "scaltool_serve_request_seconds"} {
		if !strings.Contains(string(b), want) {
			t.Fatalf("/metrics missing %s:\n%s", want, b)
		}
	}
}

// TestAdmissionGaugesClearAfterRequest: the ledger occupancy gauges publish
// what is still admitted, so once a served analysis finishes they read 0.
func TestAdmissionGaugesClearAfterRequest(t *testing.T) {
	_, ts, mt := newTestServer(t, Options{Workers: 1})
	if resp, body := postAnalyze(t, ts.URL, analyzeBody("swim", 4)); resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if c, b := mt.AdmittedCycles().Value(), mt.AdmittedBytes().Value(); c != 0 || b != 0 {
		t.Fatalf("after the analysis: scaltool_admission_inflight_cycles %g, _bytes %g, want 0", c, b)
	}
}
