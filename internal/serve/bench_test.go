package serve

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"scaltool/internal/obs"
	"scaltool/internal/runcache"
)

// BenchmarkServeAnalyze measures the /v1/analyze endpoint — the
// serving-path baseline recorded in BENCH_serve.json:
//
//	uncached — every request simulates its full campaign (no cache wired);
//	           over HTTP
//	hit      — a repeat answered from the response cache; over HTTP
//	runcache — a fresh Server per request on one warm run cache, served in
//	           process: recipe lookup, inline runs, fit and encode
//
// The acceptance bar is a ≥ 10× hit speedup over uncached.
func BenchmarkServeAnalyze(b *testing.B) {
	req := []byte(`{"app":"swim","procs":8}`)
	post := func(b *testing.B, url string) {
		b.Helper()
		resp, err := http.Post(url+"/v1/analyze", "application/json", bytes.NewReader(req))
		if err != nil {
			b.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d: %s", resp.StatusCode, body)
		}
	}

	b.Run("uncached", func(b *testing.B) {
		s := New(Options{Workers: 1, Obs: &obs.Observer{Metrics: obs.NewMetrics()}})
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			post(b, ts.URL)
		}
	})
	b.Run("hit", func(b *testing.B) {
		s := New(Options{
			Workers: 1,
			Cache:   runcache.New(runcache.Options{}),
			Obs:     &obs.Observer{Metrics: obs.NewMetrics()},
		})
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		post(b, ts.URL) // warm the cache
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			post(b, ts.URL)
		}
	})
	b.Run("runcache", func(b *testing.B) {
		opts := Options{
			Workers: 1,
			Cache:   runcache.New(runcache.Options{}),
			Obs:     &obs.Observer{Metrics: obs.NewMetrics()},
		}
		serve := func(b *testing.B) {
			w := httptest.NewRecorder()
			New(opts).Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/analyze", bytes.NewReader(req)))
			if w.Code != http.StatusOK {
				b.Fatalf("status %d: %s", w.Code, w.Body)
			}
		}
		serve(b) // warm the run cache
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			serve(b)
		}
	})
}
