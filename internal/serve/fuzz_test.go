package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"scaltool/internal/admission"
	"scaltool/internal/runcache"
)

// fuzzServer is one shared Server for the whole fuzz run, configured so no
// request can reach a real simulation: the per-request cycle budget is one
// cycle, so any document that survives parsing and validation is priced and
// refused with 413. That keeps every exec on the hostile surface under test —
// decode, document key, quarantine, response-cache miss, validation,
// admission — at fuzz throughput. It has a run cache, so the response cache,
// which sits ahead of validation, sees every hostile document too.
// (FuzzProgramAdmission in internal/admission fuzzes the program-spec
// pipeline beyond admission.)
var (
	fuzzSrv  *Server
	fuzzOnce sync.Once
)

func fuzzHandler() http.Handler {
	fuzzOnce.Do(func() {
		fuzzSrv = New(Options{
			Workers:        2,
			RequestTimeout: 5 * time.Second,
			Budget:         admission.Budget{MaxRequestCycles: 1},
			Cache:          runcache.New(runcache.Options{}),
		})
	})
	return fuzzSrv.Handler()
}

// fuzzPost runs one request document through the full handler in-process.
func fuzzPost(body []byte) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, "/v1/analyze", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	w := httptest.NewRecorder()
	fuzzHandler().ServeHTTP(w, req)
	return w
}

// FuzzAnalyzeRequest fuzzes the full /v1/analyze request surface — transport
// body through decode, the response cache, validation, and admission.
// Invariants: the handler never panics (the fuzzer's own check), answers only
// documented status codes, always produces a machine-readable error body on
// refusal, refuses deterministically, and never caches a refused document.
func FuzzAnalyzeRequest(f *testing.F) {
	f.Add([]byte(`{"app":"swim","procs":4}`))
	f.Add([]byte(`{"app":"hydro2d","procs":8,"s0":1048576,"machine":"origin","raw_tm":true}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"app":"nope"}`))
	f.Add([]byte(`{"app":"swim","procs":3}`))
	f.Add([]byte(`{"app":"swim","s0":18446744073709551615}`))
	f.Add([]byte(`{"app":"swim","program":{}}`))
	f.Add([]byte(`{"program":{"name":"p","arrays":[{"name":"a","elems":4096}],"regions":[{"name":"r","ops":[{"kind":"read","array":"a"},{"kind":"compute","instr":100}]}]}}`))
	f.Add([]byte(`{"program":{"name":"p","arrays":[{"name":"a","elems":0}],"regions":[]}}`))
	f.Add([]byte(`[`))
	f.Add([]byte(`not json at all`))
	f.Add([]byte(`{"app":"swim","procs":8}garbage`))
	f.Add([]byte(`{"app":"swim","procs":8}{"app":"nope"}`))
	f.Add([]byte("\x00\xff\xfe"))

	f.Fuzz(func(t *testing.T, body []byte) {
		w := fuzzPost(body)
		if !documentedStatus[w.Code] {
			t.Fatalf("undocumented status %d for %q", w.Code, body)
		}
		// With a one-cycle request budget nothing can be admitted, so the
		// success and post-admission codes are unreachable.
		switch w.Code {
		case http.StatusOK, http.StatusTooManyRequests, http.StatusServiceUnavailable,
			http.StatusGatewayTimeout, http.StatusInternalServerError, statusClientClosed:
			t.Fatalf("status %d reached despite a 1-cycle budget: %q → %s", w.Code, body, w.Body.Bytes())
		}
		var e apiError
		if err := json.Unmarshal(w.Body.Bytes(), &e); err != nil || e.Error == "" || e.Code == "" {
			t.Fatalf("refusal body not machine-readable (%v): %s", err, w.Body.Bytes())
		}
		// Refusals are pure: the identical document draws the identical
		// verdict.
		w2 := fuzzPost(body)
		if w2.Code != w.Code {
			t.Fatalf("nondeterministic status for %q: %d then %d", body, w.Code, w2.Code)
		}
		var e2 apiError
		if err := json.Unmarshal(w2.Body.Bytes(), &e2); err != nil || e2.Code != e.Code {
			t.Fatalf("nondeterministic code for %q: %q then %q", body, e.Code, e2.Code)
		}
		if keys := responseKeys(fuzzSrv); len(keys) != 0 {
			t.Fatalf("%q left %d bodies in the response cache", body, len(keys))
		}
	})
}
