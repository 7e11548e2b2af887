package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// TestScaltooldServeE2E drives the full daemon lifecycle in-process: bind,
// serve concurrent /v1/analyze requests (identical, so the run cache must
// collapse them), check the cache-hit metrics on /metrics, then SIGTERM and
// verify a clean drain. verify.sh runs this as the serving e2e gate.
func TestScaltooldServeE2E(t *testing.T) {
	ready := make(chan string, 1)
	testOnReady = func(addr string) { ready <- addr }
	defer func() { testOnReady = nil }()

	var stdout, stderrBuf bytes.Buffer
	exit := make(chan int, 1)
	go func() {
		exit <- realMain([]string{
			"-addr", "127.0.0.1:0",
			"-workers", "4",
			"-cache-mb", "64",
			"-shutdown-grace", "30s",
			"-log-level", "warn",
		}, &stdout, &stderrBuf)
	}()
	var addr string
	select {
	case addr = <-ready:
	case <-time.After(10 * time.Second):
		t.Fatalf("server never became ready; stderr:\n%s", stderrBuf.String())
	}
	base := "http://" + addr

	// Live health.
	hz, err := http.Get(base + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hz.Body.Close()
	if hz.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d, want 200", hz.StatusCode)
	}

	// Concurrent identical analyses: all must succeed with one body.
	const n = 4
	req := `{"app":"swim","procs":4}`
	bodies := make([][]byte, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(base+"/v1/analyze", "application/json", strings.NewReader(req))
			if err != nil {
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				bodies[i], _ = io.ReadAll(resp.Body)
			}
		}(i)
	}
	wg.Wait()
	for i, b := range bodies {
		if b == nil {
			t.Fatalf("concurrent request %d failed", i)
		}
		if !bytes.Equal(bodies[0], b) {
			t.Fatalf("request %d body differs", i)
		}
	}

	// One more identical request: a pure cache hit.
	resp, err := http.Post(base+"/v1/analyze", "application/json", strings.NewReader(req))
	if err != nil {
		t.Fatal(err)
	}
	hitBody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !bytes.Equal(hitBody, bodies[0]) {
		t.Fatalf("cache-hit request: status %d, identical=%t", resp.StatusCode, bytes.Equal(hitBody, bodies[0]))
	}

	// /metrics must show run-cache activity (hits or shared in-flight joins).
	mresp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	mtext := string(metrics)
	if !strings.Contains(mtext, "scaltool_runcache_hits_total") && !strings.Contains(mtext, "scaltool_runcache_shared_total") {
		t.Fatalf("/metrics records no run-cache hits:\n%s", mtext)
	}
	if !strings.Contains(mtext, "scaltool_serve_requests_total") {
		t.Fatal("/metrics missing scaltool_serve_requests_total")
	}

	// SIGTERM: the daemon must drain and exit 0, and the port must be free.
	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case code := <-exit:
		if code != 0 {
			t.Fatalf("exit code %d after SIGTERM; stderr:\n%s", code, stderrBuf.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatal("daemon did not exit after SIGTERM")
	}
	if !strings.Contains(stdout.String(), "drained and stopped") {
		t.Fatalf("no drain confirmation in stdout:\n%s", stdout.String())
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("address still held after shutdown: %v", err)
	}
	ln.Close()
}

// TestScaltooldTraceFlush: with -trace-out set, a SIGTERM drain leaves a
// complete, parseable trace_event JSON document on disk — never a truncated
// one (the writer replaces the path atomically) — and the trace carries the
// request-scoped spans of the work the daemon served, tagged with the
// request id.
func TestScaltooldTraceFlush(t *testing.T) {
	ready := make(chan string, 1)
	testOnReady = func(addr string) { ready <- addr }
	defer func() { testOnReady = nil }()

	tracePath := filepath.Join(t.TempDir(), "scaltoold-trace.json")
	// Seed the path with garbage: if the flush were a plain truncating write
	// interrupted by exit, a stale or partial document could survive. The
	// atomic rename must replace this wholesale.
	if err := os.WriteFile(tracePath, []byte(`{"traceEvents":[{"trunc`), 0o644); err != nil {
		t.Fatal(err)
	}

	var stdout, stderrBuf bytes.Buffer
	exit := make(chan int, 1)
	go func() {
		exit <- realMain([]string{
			"-addr", "127.0.0.1:0",
			"-workers", "2",
			"-cache-mb", "64",
			"-trace-out", tracePath,
			"-log-level", "warn",
		}, &stdout, &stderrBuf)
	}()
	var addr string
	select {
	case addr = <-ready:
	case <-time.After(10 * time.Second):
		t.Fatalf("server never became ready; stderr:\n%s", stderrBuf.String())
	}
	base := "http://" + addr

	req, _ := http.NewRequest(http.MethodPost, base+"/v1/analyze", strings.NewReader(`{"app":"swim","procs":4}`))
	req.Header.Set("X-Request-Id", "trace-flush-test")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("analyze: %d", resp.StatusCode)
	}

	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case code := <-exit:
		if code != 0 {
			t.Fatalf("exit code %d after SIGTERM; stderr:\n%s", code, stderrBuf.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatal("daemon did not exit after SIGTERM")
	}

	raw, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatalf("trace not flushed: %v", err)
	}
	var trace struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &trace); err != nil {
		t.Fatalf("flushed trace is not complete JSON: %v\n%.200s", err, raw)
	}
	var sawCampaign, sawReqID bool
	for _, ev := range trace.TraceEvents {
		if ev.Name == "campaign" {
			sawCampaign = true
		}
		if id, ok := ev.Args["req_id"]; ok && id == "trace-flush-test" {
			sawReqID = true
		}
	}
	if !sawCampaign {
		t.Errorf("trace has no campaign span among %d events", len(trace.TraceEvents))
	}
	if !sawReqID {
		t.Errorf("no span carries the request id; tracing is not end-to-end (%d events)", len(trace.TraceEvents))
	}
}

// TestScaltooldFailFast covers startup validation: a taken address and bad
// flag combinations must fail synchronously with exit code 1.
func TestScaltooldFailFast(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	cases := []struct {
		name string
		args []string
	}{
		{"taken address", []string{"-addr", ln.Addr().String()}},
		{"bad grace", []string{"-addr", "127.0.0.1:0", "-shutdown-grace", "-1s"}},
		{"spill without cache", []string{"-addr", "127.0.0.1:0", "-cache-mb", "0", "-cache-dir", t.TempDir()}},
		{"bad log level", []string{"-addr", "127.0.0.1:0", "-log-level", "loud"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			done := make(chan int, 1)
			go func() { done <- realMain(tc.args, &stdout, &stderr) }()
			select {
			case code := <-done:
				if code != 1 {
					t.Fatalf("exit code %d, want 1; stderr:\n%s", code, stderr.String())
				}
			case <-time.After(5 * time.Second):
				t.Fatal("startup validation did not fail fast")
			}
		})
	}
}

// TestScaltooldBudgetFlags checks the admission-budget and transport flags
// reach the server: a dataset over -max-s0-mb draws a machine-readable 413,
// an affordable request still serves, and the daemon drains cleanly.
func TestScaltooldBudgetFlags(t *testing.T) {
	ready := make(chan string, 1)
	testOnReady = func(addr string) { ready <- addr }
	defer func() { testOnReady = nil }()

	var stdout, stderrBuf bytes.Buffer
	exit := make(chan int, 1)
	go func() {
		exit <- realMain([]string{
			"-addr", "127.0.0.1:0",
			"-workers", "2",
			"-cache-mb", "0",
			"-max-s0-mb", "1",
			"-read-header-timeout", "2s",
			"-log-level", "warn",
		}, &stdout, &stderrBuf)
	}()
	var addr string
	select {
	case addr = <-ready:
	case <-time.After(10 * time.Second):
		t.Fatalf("server never became ready; stderr:\n%s", stderrBuf.String())
	}
	base := "http://" + addr

	// 2 MiB dataset against a 1 MiB budget: refused before any work.
	resp, err := http.Post(base+"/v1/analyze", "application/json",
		strings.NewReader(`{"app":"swim","procs":4,"s0":2097152}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge || !strings.Contains(string(body), `"s0_budget"`) {
		t.Fatalf("over-budget request: %d %s, want 413 s0_budget", resp.StatusCode, body)
	}

	// An in-budget request still serves.
	resp, err = http.Post(base+"/v1/analyze", "application/json",
		strings.NewReader(`{"app":"swim","procs":4,"s0":524288}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("in-budget request: %d %s", resp.StatusCode, body)
	}

	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case code := <-exit:
		if code != 0 {
			t.Fatalf("exit code %d after SIGTERM; stderr:\n%s", code, stderrBuf.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatal("daemon did not exit after SIGTERM")
	}
}

// TestScaltooldProcsFollowWork: the daemon serves on one P. /metrics reads
// scaltool_serve_procs 1 once it is up, and 1 again after a cold analysis,
// which ran on the process's full CPU budget, has completed.
func TestScaltooldProcsFollowWork(t *testing.T) {
	ready := make(chan string, 1)
	testOnReady = func(addr string) { ready <- addr }
	defer func() { testOnReady = nil }()

	var stdout, stderrBuf bytes.Buffer
	exit := make(chan int, 1)
	go func() {
		exit <- realMain([]string{"-addr", "127.0.0.1:0", "-cache-mb", "64", "-log-level", "warn"}, &stdout, &stderrBuf)
	}()
	var addr string
	select {
	case addr = <-ready:
	case <-time.After(10 * time.Second):
		t.Fatalf("server never became ready; stderr:\n%s", stderrBuf.String())
	}
	base := "http://" + addr
	procs := func(when string) {
		t.Helper()
		resp, err := http.Get(base + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if !strings.Contains(string(b), "\nscaltool_serve_procs 1\n") {
			t.Fatalf("%s: /metrics does not read scaltool_serve_procs 1:\n%s", when, b)
		}
	}

	procs("after start-up")
	resp, err := http.Post(base+"/v1/analyze", "application/json", strings.NewReader(`{"app":"hydro2d","procs":8}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cold analysis: %d %s", resp.StatusCode, body)
	}
	procs("after a cold analysis")

	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case code := <-exit:
		if code != 0 {
			t.Fatalf("exit code %d after SIGTERM; stderr:\n%s", code, stderrBuf.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatal("daemon did not exit after SIGTERM")
	}
}
