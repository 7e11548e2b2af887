package serve

import (
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"scaltool/internal/obs"
)

// atCeiling sets GOMAXPROCS to n, which the governor adopts as its ceiling
// at its next look, and restores the process's ceiling when the test ends.
func atCeiling(t *testing.T, n int) {
	t.Helper()
	gov.mu.Lock()
	prev := gov.ceiling
	gov.mu.Unlock()
	if prev == 0 {
		prev = runtime.GOMAXPROCS(0)
	}
	runtime.GOMAXPROCS(n)
	t.Cleanup(func() {
		runtime.GOMAXPROCS(prev)
		gov.mu.Lock()
		gov.set = 0 // the next look adopts prev, whatever the governor set last
		gov.mu.Unlock()
	})
}

func procsGauge(mt *obs.Metrics) float64 {
	return mt.Gauge("scaltool_serve_procs", "").Value()
}

// wantProcs checks that GOMAXPROCS and a server's scaltool_serve_procs
// gauge both read want.
func wantProcs(t *testing.T, when string, mt *obs.Metrics, want int) {
	t.Helper()
	if got := runtime.GOMAXPROCS(0); got != want {
		t.Errorf("%s: GOMAXPROCS %d, want %d", when, got, want)
	}
	if got := procsGauge(mt); got != float64(want) {
		t.Errorf("%s: scaltool_serve_procs %g, want %d", when, got, want)
	}
}

// TestProcsFollowWork: a Server runs its front end on one P and an analysis
// on the ceiling, from its worker slot until it finishes.
func TestProcsFollowWork(t *testing.T) {
	const ceiling = 3
	atCeiling(t, ceiling)
	s, ts, mt := newTestServer(t, Options{Workers: 1})
	wantProcs(t, "after New", mt, 1)

	var inside int
	var gauge float64
	s.testHookRun = func() { inside, gauge = runtime.GOMAXPROCS(0), procsGauge(mt) }
	if resp, body := postAnalyze(t, ts.URL, analyzeBody("swim", 4)); resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if inside != ceiling || gauge != ceiling {
		t.Errorf("holding a worker slot: GOMAXPROCS %d, scaltool_serve_procs %g, want %d", inside, gauge, ceiling)
	}
	wantProcs(t, "after the analysis", mt, 1)
}

// TestProcsConcurrentAnalyses: analyses executing at once all run on the
// ceiling, and GOMAXPROCS returns to 1 only when the last one finishes.
func TestProcsConcurrentAnalyses(t *testing.T) {
	const ceiling = 3
	atCeiling(t, ceiling)
	s, ts, mt := newTestServer(t, Options{Workers: 2})
	var below atomic.Int32
	s.testHookRun = func() {
		if runtime.GOMAXPROCS(0) != ceiling {
			below.Add(1)
		}
	}
	var wg sync.WaitGroup
	for _, app := range []string{"swim", "hydro2d", "t3dheat", "spmv"} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/analyze", "application/json", analyzeBody(app, 4))
			if err != nil {
				t.Error(err)
				return
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("%s: status %d", app, resp.StatusCode)
			}
		}()
	}
	wg.Wait()
	if n := below.Load(); n != 0 {
		t.Errorf("%d analyses held a worker slot below the ceiling", n)
	}
	wantProcs(t, "after every analysis", mt, 1)
}

// TestProcsSharedAcrossServers: the count of executing analyses is
// process-wide, so a second Server's New does not lower GOMAXPROCS under
// the first one's analysis, and the last analysis to finish lowers it.
func TestProcsSharedAcrossServers(t *testing.T) {
	const ceiling = 3
	atCeiling(t, ceiling)
	a, ts, mtA := newTestServer(t, Options{Workers: 1})
	entered, release := make(chan struct{}), make(chan struct{})
	a.testHookRun = func() { close(entered); <-release }
	done := make(chan int)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/analyze", "application/json", analyzeBody("swim", 4))
		if err != nil {
			done <- 0
			return
		}
		resp.Body.Close()
		done <- resp.StatusCode
	}()
	<-entered

	b, _, mtB := newTestServer(t, Options{})
	wantProcs(t, "second New while the first server executes", mtB, ceiling)
	if b.opts.Workers != ceiling || b.opts.SimWorkers != ceiling {
		t.Errorf("second server's defaults: Workers %d, SimWorkers %d, want %d", b.opts.Workers, b.opts.SimWorkers, ceiling)
	}
	close(release)
	if code := <-done; code != http.StatusOK {
		t.Fatalf("held analysis: status %d", code)
	}
	wantProcs(t, "after the held analysis", mtA, 1)
}

// TestProcsDefaultsFollowCeiling: once a Server has lowered GOMAXPROCS to
// 1, the next Server's default worker counts still come from the ceiling.
func TestProcsDefaultsFollowCeiling(t *testing.T) {
	const ceiling = 3
	atCeiling(t, ceiling)
	_, _, mt := newTestServer(t, Options{Workers: 1, SimWorkers: 1})
	wantProcs(t, "after the first New", mt, 1)
	s, _, mt := newTestServer(t, Options{})
	wantProcs(t, "after the second New", mt, 1)
	if s.opts.Workers != ceiling || s.opts.SimWorkers != ceiling || s.opts.QueueDepth != 2*ceiling {
		t.Errorf("defaults: Workers %d, SimWorkers %d, QueueDepth %d, want %d, %d, %d",
			s.opts.Workers, s.opts.SimWorkers, s.opts.QueueDepth, ceiling, ceiling, 2*ceiling)
	}
}

// TestProcsInertAtOne: with a ceiling of 1 GOMAXPROCS never moves.
func TestProcsInertAtOne(t *testing.T) {
	atCeiling(t, 1)
	s, ts, mt := newTestServer(t, Options{})
	wantProcs(t, "after New", mt, 1)
	var inside int
	s.testHookRun = func() { inside = runtime.GOMAXPROCS(0) }
	if resp, body := postAnalyze(t, ts.URL, analyzeBody("swim", 4)); resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if inside != 1 {
		t.Errorf("holding a worker slot: GOMAXPROCS %d, want 1", inside)
	}
	wantProcs(t, "after the analysis", mt, 1)
	if s.opts.Workers != 1 || s.opts.SimWorkers != 1 {
		t.Errorf("defaults: Workers %d, SimWorkers %d, want 1", s.opts.Workers, s.opts.SimWorkers)
	}
}
