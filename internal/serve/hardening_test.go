package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"scaltool/internal/runcache"
)

// TestPanicIsolationAndQuarantine is the tentpole's panic contract: a
// panicking analysis becomes one 500 — the daemon, its listener, and every
// other request survive — and the panicking request *shape* is quarantined,
// so repeating it is refused cheaply with 422 instead of crashing twice.
func TestPanicIsolationAndQuarantine(t *testing.T) {
	s, ts, mt := newTestServer(t, Options{Workers: 2})
	var explode bool
	s.testHookRun = func() {
		if explode {
			panic("simulated analysis fault")
		}
	}

	explode = true
	resp, body := postAnalyze(t, ts.URL, analyzeBody("swim", 4))
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panicking analysis returned %d, want 500: %s", resp.StatusCode, body)
	}
	var e map[string]string
	if err := json.Unmarshal(body, &e); err != nil || e["code"] != "panic" {
		t.Fatalf("panic error body: %s", body)
	}
	if got := mt.ServePanics().Value(); got != 1 {
		t.Fatalf("panic counter = %d, want 1", got)
	}

	// The identical shape is now quarantined: refused before any work, even
	// though the hook would no longer panic.
	explode = false
	resp, body = postAnalyze(t, ts.URL, analyzeBody("swim", 4))
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("quarantined request returned %d, want 422: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &e); err != nil || e["code"] != "quarantined" {
		t.Fatalf("quarantine error body: %s", body)
	}
	if got := mt.ServeQuarantined().Value(); got != 1 {
		t.Fatalf("quarantined counter = %d, want 1", got)
	}

	// A different shape is unaffected — the daemon is still serving.
	resp, body = postAnalyze(t, ts.URL, analyzeBody("hydro2d", 4))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-panic different request returned %d: %s", resp.StatusCode, body)
	}
}

// TestRetryAfterDerivation pins the drain-rate → Retry-After conversion:
// the hint shrinks as the queue empties, speeds up as observed completions
// speed up, and quotes the documented cold-start floor with no data.
func TestRetryAfterDerivation(t *testing.T) {
	const fallback = 60 * time.Second // → max 30s

	if got := retryAfterSecs(10, 0, fallback); got != coldStartRetrySecs {
		t.Fatalf("no-data hint = %d, want the cold-start floor %d", got, coldStartRetrySecs)
	}
	// Shrinks monotonically as the queue empties at a fixed drain rate.
	prev := retryAfterSecs(8, 2.0, fallback)
	for occ := 7; occ >= 0; occ-- {
		got := retryAfterSecs(occ, 2.0, fallback)
		if got > prev {
			t.Fatalf("retry-after grew as queue emptied: occ=%d %d -> %d", occ, prev, got)
		}
		prev = got
	}
	if got := retryAfterSecs(0, 2.0, fallback); got != 2 {
		t.Fatalf("empty-queue retry-after = %d, want 2", got)
	}
	// A faster drain rate means a shorter wait at the same occupancy.
	if slow, fast := retryAfterSecs(5, 3.0, fallback), retryAfterSecs(5, 0.25, fallback); fast >= slow {
		t.Fatalf("faster drain produced a longer hint: %d vs %d", fast, slow)
	}
	// Clamped to [1, fallback/2].
	if got := retryAfterSecs(1000, 10, fallback); got != 30 {
		t.Fatalf("clamp high = %d, want 30", got)
	}
	if got := retryAfterSecs(0, 0.001, fallback); got != 1 {
		t.Fatalf("clamp low = %d, want 1", got)
	}

	// The estimator converges on the observed inter-completion gap.
	var d drainEstimator
	base := time.Now()
	for i := 0; i <= 10; i++ {
		d.observe(base.Add(time.Duration(i) * 500 * time.Millisecond))
	}
	if iv := d.interval(); iv < 0.4 || iv > 0.6 {
		t.Fatalf("estimator interval = %v, want ≈0.5s", iv)
	}
}

// TestRetryAfterUsesObservedRate drives the server end to end: once real
// completions have been observed, a shed request's Retry-After must quote
// the (fast) observed drain rate, not the constant fallback.
func TestRetryAfterUsesObservedRate(t *testing.T) {
	release := make(chan struct{})
	blocking := false
	s, ts, _ := newTestServer(t, Options{Workers: 1, QueueDepth: 1, RequestTimeout: 50 * time.Second})
	defer func() {
		select {
		case <-release:
		default:
			close(release)
		}
	}()
	s.testHookRun = func() {
		if blocking {
			<-release
		}
	}

	// Two quick completions teach the estimator the drain rate.
	for i := 0; i < 2; i++ {
		if resp, body := postAnalyze(t, ts.URL, analyzeBody("swim", 4)); resp.StatusCode != http.StatusOK {
			t.Fatalf("warmup %d: %d %s", i, resp.StatusCode, body)
		}
	}

	// Fill the pool with documents not answered yet (a repeat could be a
	// response-cache hit, which takes no slot), then shed one.
	blocking = true
	errs := make(chan error, 2)
	for _, doc := range []string{
		`{"app":"swim","procs":4,"raw_tm":true}`,
		`{"app":"hydro2d","procs":4}`,
	} {
		go func() {
			resp, err := http.Post(ts.URL+"/v1/analyze", "application/json", strings.NewReader(doc))
			if err == nil {
				resp.Body.Close()
			}
			errs <- err
		}()
	}
	deadline := time.Now().Add(5 * time.Second)
	for len(s.admitted) != 2 {
		if time.Now().After(deadline) {
			t.Fatalf("admission never filled: %d of 2", len(s.admitted))
		}
		time.Sleep(time.Millisecond)
	}
	resp, body := postAnalyze(t, ts.URL, analyzeBody("swim", 4))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429: %s", resp.StatusCode, body)
	}
	ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil {
		t.Fatalf("Retry-After %q not an integer", resp.Header.Get("Retry-After"))
	}
	// The fallback policy would say 25s (half the deadline); sub-second
	// observed completions must pull the hint far under that.
	if ra >= 25 {
		t.Fatalf("Retry-After = %ds; observed drain rate not used (fallback is 25)", ra)
	}
	close(release)
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

// TestCorruptSpillResimulatedByteIdentical is the integrity acceptance test:
// deliberately corrupt every disk-spilled cache entry, then re-request — the
// damaged entries must be quarantined (never decoded into a response) and
// the analysis re-simulated, with a response byte-identical to the original.
func TestCorruptSpillResimulatedByteIdentical(t *testing.T) {
	spillDir := t.TempDir()
	// A cache too small to retain a campaign in memory: entries are evicted
	// — and therefore spilled — as the campaign runs.
	cache1 := runcache.New(runcache.Options{MaxBytes: 8 << 10, SpillDir: spillDir})
	_, ts1, _ := newTestServer(t, Options{Workers: 2, Cache: cache1})
	resp1, body1 := postAnalyze(t, ts1.URL, analyzeBody("swim", 4))
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("first request: %d: %s", resp1.StatusCode, body1)
	}
	spills, err := filepath.Glob(filepath.Join(spillDir, "*.spill"))
	if err != nil || len(spills) == 0 {
		t.Fatalf("no spill files produced (err=%v) — cannot exercise integrity path", err)
	}

	// Corrupt every spilled entry: flip a payload byte (CRC damage) in even
	// files, truncate odd ones (torn frame).
	for i, path := range spills {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if i%2 == 0 && len(data) > 24 {
			data[len(data)-3] ^= 0x41
		} else {
			data = data[:len(data)/2]
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	// A fresh server on the same spill directory (a restart): its memory
	// tier is empty, so the poisoned disk tier is the first stop.
	cache2 := runcache.New(runcache.Options{MaxBytes: 8 << 10, SpillDir: spillDir})
	_, ts2, mt := newTestServer(t, Options{Workers: 2, Cache: cache2})
	resp2, body2 := postAnalyze(t, ts2.URL, analyzeBody("swim", 4))
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("post-corruption request: %d: %s", resp2.StatusCode, body2)
	}
	if !bytes.Equal(body1, body2) {
		t.Fatalf("re-simulated response differs from original:\n%s\nvs\n%s", body1, body2)
	}

	// Every damaged entry the reload touched was quarantined and counted.
	var corrupt uint64
	for _, class := range []string{"crc", "torn", "header", "decode"} {
		corrupt += mt.RuncacheCorrupt(class).Value()
	}
	if corrupt == 0 {
		t.Fatal("no corrupt-spill detections recorded")
	}
	quarantined, _ := filepath.Glob(filepath.Join(spillDir, "quarantine", "*"))
	if len(quarantined) == 0 {
		t.Fatal("no spill files quarantined")
	}
	// And nothing half-decoded ever reached a response: the bodies matched,
	// and the quarantine directory holds the evidence.
	if strings.Contains(string(body2), "NaN") {
		t.Fatalf("response contains NaN: %s", body2)
	}
}

// TestRetryAfterColdStart pins the cold-start contract: before the drain
// estimator has seen a completion pair, a shed request's hint is the short
// documented floor — never the degenerate "half the request deadline" that
// would park the first burst of clients for up to 30s — and the floor still
// respects the fallback ceiling when the deadline is tiny.
func TestRetryAfterColdStart(t *testing.T) {
	var d drainEstimator
	if iv := d.interval(); iv != 0 {
		t.Fatalf("fresh estimator interval = %v, want 0", iv)
	}
	// One completion is not a pair: still cold.
	d.observe(time.Now())
	if iv := d.interval(); iv != 0 {
		t.Fatalf("single completion produced an interval: %v", iv)
	}
	for _, occ := range []int{0, 1, 100} {
		if got := retryAfterSecs(occ, d.interval(), DefaultRequestTimeout); got != coldStartRetrySecs {
			t.Fatalf("cold start at occupancy %d quoted %ds, want %d", occ, got, coldStartRetrySecs)
		}
	}
	// A deadline shorter than the floor clamps the floor, never below 1s.
	if got := retryAfterSecs(5, 0, 2*time.Second); got != 1 {
		t.Fatalf("tiny-deadline cold start quoted %ds, want 1", got)
	}
}
