package serve

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
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
//	           process: recipe lookup, inline runs, fit and encode (building
//	           the Server is not timed)
//	hit-handler/analyze, hit-handler/diagnose — a 32-processor repeat on each
//	           route answered from the response cache through
//	           Handler().ServeHTTP with a recorder: the server's own share of
//	           a hit, without the loopback round trip that dominates "hit"
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
		serve := func(b *testing.B, h http.Handler) {
			w := httptest.NewRecorder()
			h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/analyze", bytes.NewReader(req)))
			if w.Code != http.StatusOK {
				b.Fatalf("status %d: %s", w.Code, w.Body)
			}
		}
		serve(b, New(opts).Handler()) // warm the run cache
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			h := New(opts).Handler()
			b.StartTimer()
			serve(b, h)
		}
	})
	b.Run("hit-handler", func(b *testing.B) {
		h := New(Options{
			Workers: 1,
			Cache:   runcache.New(runcache.Options{}),
			Obs:     &obs.Observer{Metrics: obs.NewMetrics()},
		}).Handler()
		doc := []byte(`{"app":"swim","procs":32}`)
		for _, path := range []string{"/v1/analyze", "/v1/diagnose"} {
			serve := func(b *testing.B) {
				w := httptest.NewRecorder()
				h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(doc)))
				if w.Code != http.StatusOK {
					b.Fatalf("%s: status %d: %s", path, w.Code, w.Body)
				}
			}
			b.Run(strings.TrimPrefix(path, "/v1/"), func(b *testing.B) {
				serve(b) // fill the response cache
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					serve(b)
				}
			})
		}
	})
}
