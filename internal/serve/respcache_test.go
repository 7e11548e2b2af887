package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"

	"scaltool/internal/admission"
	"scaltool/internal/apps"
	"scaltool/internal/campaign"
	"scaltool/internal/machine"
	"scaltool/internal/obs"
	"scaltool/internal/runcache"
)

func post(t *testing.T, url, path, doc string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url+path, "application/json", strings.NewReader(doc))
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

func post200(t *testing.T, url, path, doc string) []byte {
	t.Helper()
	resp, body := post(t, url, path, doc)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s %s: status %d: %s", path, doc, resp.StatusCode, body)
	}
	return body
}

func runcacheCounts(mt *obs.Metrics) [3]uint64 {
	return [3]uint64{
		mt.Counter("scaltool_runcache_hits_total", "run-cache hits by tier", "tier", "mem").Value(),
		mt.Counter("scaltool_runcache_hits_total", "run-cache hits by tier", "tier", "disk").Value(),
		mt.Counter("scaltool_runcache_misses_total", "run-cache misses (a real simulation ran)").Value(),
	}
}

// TestResponseCacheRepeatHits: on both routes, a repeat on the same server
// is answered from the response cache — byte-identical, with no simulation
// and no run-cache lookup of any kind.
func TestResponseCacheRepeatHits(t *testing.T) {
	_, ts, mt := newTestServer(t, Options{Workers: 2, Cache: runcache.New(runcache.Options{})})
	const doc = `{"app":"swim","procs":4}`
	for _, path := range []string{"/v1/analyze", "/v1/diagnose"} {
		first := post200(t, ts.URL, path, doc)
		runs, lookups := simRuns(mt), runcacheCounts(mt)
		again := post200(t, ts.URL, path, doc)
		if !bytes.Equal(first, again) {
			t.Fatalf("%s: repeat body differs:\n%s\nvs\n%s", path, first, again)
		}
		if got := simRuns(mt); got != runs {
			t.Fatalf("%s: repeat ran %d simulations, want 0", path, got-runs)
		}
		if got := runcacheCounts(mt); got != lookups {
			t.Fatalf("%s: repeat touched the run cache: hits/misses %v → %v", path, lookups, got)
		}
		if hits := mt.ResponseCache(path, "hit").Value(); hits != 1 {
			t.Fatalf("%s: response-cache hits = %d, want 1", path, hits)
		}
		if misses := mt.ResponseCache(path, "miss").Value(); misses != 1 {
			t.Fatalf("%s: response-cache misses = %d, want 1", path, misses)
		}
	}
}

// TestResponseCacheHitPricesNothing: the response cache is consulted before
// validation and pricing, so on both routes the first request for a document
// prices its campaign once and a repeat prices nothing, yet gets the same
// bytes.
func TestResponseCacheHitPricesNothing(t *testing.T) {
	s := New(Options{Workers: 1, Cache: runcache.New(runcache.Options{})})
	const doc = `{"app":"swim","procs":4}`
	for _, path := range []string{"/v1/analyze", "/v1/diagnose"} {
		newReq := func() *http.Request { return httptest.NewRequest(http.MethodPost, path, strings.NewReader(doc)) }
		rt := routeOf(t, s, path)
		priced := 0
		price := rt.price
		rt.price = func(b admission.Budget, ctx context.Context, cfg machine.Config, app apps.App, plan campaign.Plan, workers int) (admission.Cost, *admission.Rejection) {
			priced++
			return price(b, ctx, cfg, app, plan, workers)
		}
		var bodies [2][]byte
		for i, want := range []int{1, 0} {
			before := priced
			w := httptest.NewRecorder()
			s.Handler().ServeHTTP(w, newReq())
			if w.Code != http.StatusOK {
				t.Fatalf("%s request %d: status %d: %s", path, i, w.Code, w.Body)
			}
			if got := priced - before; got != want {
				t.Fatalf("%s request %d priced %d times, want %d", path, i, got, want)
			}
			bodies[i] = w.Body.Bytes()
		}
		if !bytes.Equal(bodies[0], bodies[1]) {
			t.Fatalf("%s: repeat body differs", path)
		}
	}
}

// routeOf returns the route s serves path with.
func routeOf(t *testing.T, s *Server, path string) *route {
	t.Helper()
	h, _ := s.mux.Handler(httptest.NewRequest(http.MethodPost, path, nil))
	rt, ok := h.(*route)
	if !ok {
		t.Fatalf("%s is served by %T, not a *route", path, h)
	}
	return rt
}

// responseKeys returns the response cache's keys, sorted.
func responseKeys(s *Server) []string {
	s.responses.mu.Lock()
	defer s.responses.mu.Unlock()
	keys := make([]string, 0, len(s.responses.items))
	for k := range s.responses.items {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// TestResponseCacheTransparentToRefusals replays TestRequestValidation's
// refusals on a server with a response cache, after both routes have cached
// valid documents for the same apps: the cache is consulted before
// validation, yet every refusal draws the status and code the uncached
// server gives, and no refused document is ever cached.
func TestResponseCacheTransparentToRefusals(t *testing.T) {
	s, ts, _ := newTestServer(t, Options{Workers: 1, Budget: admission.Budget{MaxProcs: 8}, Cache: runcache.New(runcache.Options{})})
	routes := []string{"/v1/analyze", "/v1/diagnose"}
	served := []string{
		`{"app":"swim","procs":4}`,
		`{"app":"swim","procs":8}`,
		`{"program":{"name":"x","arrays":[{"name":"a","elems":24576}],"regions":[{"name":"r","ops":[{"kind":"read","array":"a","instr_per":3},{"kind":"compute","instr":5000}]}]},"procs":4}`,
	}
	var want []string
	for _, doc := range served {
		for _, route := range routes {
			post200(t, ts.URL, route, doc)
			var req Request
			if err := json.Unmarshal([]byte(doc), &req); err != nil {
				t.Fatal(err)
			}
			req.applyDefaults()
			want = append(want, routeOf(t, s, route).keyPrefix+requestKey(&req))
		}
	}
	sort.Strings(want)
	cachedOnly := func(t *testing.T) {
		t.Helper()
		if got := responseKeys(s); strings.Join(got, ",") != strings.Join(want, ",") {
			t.Fatalf("response cache holds %v, want only the served documents %v", got, want)
		}
	}
	cachedOnly(t)

	for _, tc := range refusalCases {
		for _, route := range routes {
			refused(t, ts.URL, route, tc.body, tc.want, tc.code)
		}
	}
	// Diagnosis needs procs ≥ 2; analysis takes procs 1 but swim's plan is
	// then too small to fit.
	refused(t, ts.URL, "/v1/analyze", `{"app":"swim","procs":1}`, http.StatusUnprocessableEntity, "bad_plan")
	refused(t, ts.URL, "/v1/diagnose", `{"app":"swim","procs":1}`, http.StatusUnprocessableEntity, "bad_procs")
	refuseGET(t, ts.URL, routes)
	cachedOnly(t)

	// A panic on a document not yet cached quarantines it, and its repeat is
	// refused with the cache in place.
	const crash = `{"app":"swim","procs":8,"raw_tm":true}`
	s.testHookRun = func() { panic("simulated pipeline fault") }
	for _, route := range routes {
		refused(t, ts.URL, route, crash, http.StatusInternalServerError, "panic")
	}
	s.testHookRun = nil
	for _, route := range routes {
		refused(t, ts.URL, route, crash, http.StatusUnprocessableEntity, "quarantined")
	}
	cachedOnly(t)

	// Draining refuses even a document whose body is cached.
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	for _, doc := range served {
		for _, route := range routes {
			refused(t, ts.URL, route, doc, http.StatusTooManyRequests, "draining")
		}
	}
	cachedOnly(t)
}

// TestResponseCacheKeyNormalization: the key is the normalized document, so
// spelled-out defaults share an entry, while every field that changes the
// analysis — and the route itself — gets its own. The documents use matmul
// at 4 processors: its full-size Origin2000 campaign (the machine variant)
// is the cheapest of the apps', and 4 is the fewest processors a matmul
// plan fits at.
func TestResponseCacheKeyNormalization(t *testing.T) {
	s, ts, mt := newTestServer(t, Options{Workers: 2, Cache: runcache.New(runcache.Options{})})

	short := post200(t, ts.URL, "/v1/analyze", `{"app":"matmul"}`)
	long := post200(t, ts.URL, "/v1/analyze", `{"app":"matmul","procs":32,"machine":"scaled"}`)
	if !bytes.Equal(short, long) {
		t.Fatal("defaulted and spelled-out documents got different bodies")
	}
	if hits := mt.ResponseCache("/v1/analyze", "hit").Value(); hits != 1 {
		t.Fatalf("spelled-out defaults: response-cache hits = %d, want 1", hits)
	}

	const base = `{"app":"matmul","procs":4}`
	bodies := map[string]string{base: string(post200(t, ts.URL, "/v1/analyze", base))}
	for _, doc := range []string{
		`{"app":"matmul","procs":4,"raw_tm":true}`,
		`{"app":"matmul","procs":4,"machine":"origin"}`,
		`{"app":"matmul","procs":4,"s0":262144}`,
	} {
		before := mt.ResponseCache("/v1/analyze", "miss").Value()
		body := string(post200(t, ts.URL, "/v1/analyze", doc))
		if got := mt.ResponseCache("/v1/analyze", "miss").Value(); got != before+1 {
			t.Fatalf("%s: response-cache misses %d → %d, want one more", doc, before, got)
		}
		for other, b := range bodies {
			if b == body {
				t.Fatalf("%s got the same body as %s", doc, other)
			}
		}
		bodies[doc] = body
	}

	const both = `{"app":"swim","procs":4}`
	a := post200(t, ts.URL, "/v1/analyze", both)
	d := post200(t, ts.URL, "/v1/diagnose", both)
	if bytes.Equal(a, d) {
		t.Fatal("the two routes share a body for one document")
	}
	if hits := mt.ResponseCache("/v1/diagnose", "hit").Value(); hits != 0 {
		t.Fatalf("first diagnose of a document analyzed before hit the response cache (%d hits)", hits)
	}
	// 1 default-procs entry + 4 procs-4 variants + one per route for swim/4.
	if n := len(s.responses.items); n != 7 {
		t.Fatalf("response cache holds %d entries, want 7", n)
	}
}

// TestResponseCacheAfterGates: a hit is never a way around a refusal, and a
// server without a run cache has no response cache either.
func TestResponseCacheAfterGates(t *testing.T) {
	t.Run("draining", func(t *testing.T) {
		s, ts, _ := newTestServer(t, Options{Workers: 1, Cache: runcache.New(runcache.Options{})})
		const doc = `{"app":"swim","procs":4}`
		post200(t, ts.URL, "/v1/analyze", doc)
		if err := s.Drain(context.Background()); err != nil {
			t.Fatal(err)
		}
		resp, body := post(t, ts.URL, "/v1/analyze", doc)
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("draining server answered a cached document with %d, want 429: %s", resp.StatusCode, body)
		}
	})
	t.Run("nil cache", func(t *testing.T) {
		s, ts, mt := newTestServer(t, Options{Workers: 1})
		if s.responses != nil {
			t.Fatal("Cache: nil built a response cache")
		}
		const doc = `{"app":"swim","procs":4}`
		for _, path := range []string{"/v1/analyze", "/v1/diagnose"} {
			var first []byte
			for i := 0; i < 2; i++ {
				runs := simRuns(mt)
				body := post200(t, ts.URL, path, doc)
				if simRuns(mt) == runs {
					t.Fatalf("%s: request %d simulated nothing without a cache", path, i)
				}
				if i == 0 {
					first = body
				} else if !bytes.Equal(first, body) {
					t.Fatalf("%s: uncached repeat body differs", path)
				}
			}
			for _, outcome := range []string{"hit", "miss"} {
				if n := mt.ResponseCache(path, outcome).Value(); n != 0 {
					t.Fatalf("%s: %d response-cache %ss without a cache", path, n, outcome)
				}
			}
		}
	})
}

// TestResponseCacheFIFO pins the bounded policy of both of a server's FIFO
// maps, the response cache and the quarantine: at capacity the oldest entry
// goes, and a duplicate put keeps the first value.
func TestResponseCacheFIFO(t *testing.T) {
	s := New(Options{Cache: runcache.New(runcache.Options{})})
	t.Run("responses", func(t *testing.T) {
		testFIFOBound(t, s.responses, responseCacheCapacity, func(k string) []byte { return []byte(k) })
	})
	t.Run("quarantine", func(t *testing.T) {
		testFIFOBound(t, s.quarantine, quarantineCapacity, func(k string) string { return k })
	})
}

func testFIFOBound[V any](t *testing.T, c *fifo[V], capacity int, val func(string) V) {
	key := func(i int) string { return fmt.Sprintf("k%d", i) }
	for i := 0; i < capacity; i++ {
		c.put(key(i), val(key(i)))
	}
	c.put(key(0), val("second"))
	if v, ok := c.get(key(0)); !ok || fmt.Sprint(v) != fmt.Sprint(val(key(0))) {
		t.Fatalf("duplicate put: get(k0) = %v, %v; want the first value", v, ok)
	}
	c.put(key(capacity), val("new"))
	if _, ok := c.get(key(0)); ok {
		t.Fatal("the oldest entry survived a put past capacity")
	}
	for _, i := range []int{1, capacity - 1, capacity} {
		if _, ok := c.get(key(i)); !ok {
			t.Fatalf("entry %d evicted; only the oldest should go", i)
		}
	}
	if len(c.items) != capacity || len(c.order) != capacity {
		t.Fatalf("map holds %d items / %d order entries, want %d", len(c.items), len(c.order), capacity)
	}
}
