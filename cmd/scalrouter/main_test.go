package main

import (
	"bytes"
	"io"
	"net"
	"net/http"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"scaltool/internal/fleet"
)

// startRouter launches realMain in-process and returns the bound address
// plus channels/buffers to observe its exit.
func startRouter(t *testing.T, args []string) (addr string, exit chan int, stdout, stderr *bytes.Buffer) {
	t.Helper()
	ready := make(chan string, 1)
	testOnReady = func(a string) { ready <- a }
	t.Cleanup(func() { testOnReady = nil })

	stdout, stderr = &bytes.Buffer{}, &bytes.Buffer{}
	exit = make(chan int, 1)
	go func() { exit <- realMain(args, stdout, stderr) }()
	select {
	case addr = <-ready:
	case <-time.After(20 * time.Second):
		t.Fatalf("router never became ready; stderr:\n%s", stderr.String())
	}
	return addr, exit, stdout, stderr
}

// sigtermAndWait sends the process SIGTERM (realMain's signal handler owns
// it) and asserts a clean exit with the drain confirmation line.
func sigtermAndWait(t *testing.T, exit chan int, stdout, stderr *bytes.Buffer) {
	t.Helper()
	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case code := <-exit:
		if code != 0 {
			t.Fatalf("exit code %d after SIGTERM; stderr:\n%s", code, stderr.String())
		}
	case <-time.After(60 * time.Second):
		t.Fatal("router did not exit after SIGTERM")
	}
	if !strings.Contains(stdout.String(), "drained and stopped") {
		t.Fatalf("no drain confirmation in stdout:\n%s", stdout.String())
	}
}

func post(t *testing.T, base string, doc string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(base+"/v1/analyze", "application/json", strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

// TestScalrouterStaticFleetE2E runs the daemon over a static -replica list
// (stub backends), checks affinity, failover after a backend dies, the
// fleet metrics, and the SIGTERM drain. verify.sh runs this as the router
// e2e gate.
func TestScalrouterStaticFleetE2E(t *testing.T) {
	s1, err := fleet.StartStub()
	if err != nil {
		t.Fatal(err)
	}
	defer s1.Kill()
	s2, err := fleet.StartStub()
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Kill()

	addr, exit, stdout, stderr := startRouter(t, []string{
		"-addr", "127.0.0.1:0",
		"-replica", s1.URL(),
		"-replica", s2.URL(),
		"-probe-interval", "100ms",
		"-log-level", "warn",
	})
	base := "http://" + addr

	hz, err := http.Get(base + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hz.Body.Close()
	if hz.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d, want 200", hz.StatusCode)
	}

	// Affinity: the same document lands on the same replica with the same
	// bytes, every time.
	const doc = `{"app":"swim","procs":4}`
	resp1, body1 := post(t, base, doc)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("analyze = %d: %s", resp1.StatusCode, body1)
	}
	owner := resp1.Header.Get("X-Fleet-Replica")
	if owner == "" {
		t.Fatal("response missing X-Fleet-Replica")
	}
	resp2, body2 := post(t, base, doc)
	if got := resp2.Header.Get("X-Fleet-Replica"); got != owner {
		t.Fatalf("affinity broken: replica %q then %q", owner, got)
	}
	if !bytes.Equal(body1, body2) {
		t.Fatal("same document, different bytes")
	}

	// Failover: kill both stubs' ambiguity away by killing the owner; the
	// next request must still succeed via the survivor.
	if owner == "replica-0" {
		s1.Kill()
	} else {
		s2.Kill()
	}
	resp3, body3 := post(t, base, doc)
	if resp3.StatusCode != http.StatusOK {
		t.Fatalf("post-kill analyze = %d: %s", resp3.StatusCode, body3)
	}
	if got := resp3.Header.Get("X-Fleet-Replica"); got == owner {
		t.Fatalf("answer still attributed to the dead replica %q", got)
	}
	if !bytes.Equal(body1, body3) {
		t.Fatal("failover changed the response bytes")
	}

	mresp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	for _, want := range []string{"scaltool_fleet_requests_total", "scaltool_fleet_attempts_total"} {
		if !strings.Contains(string(metrics), want) {
			t.Fatalf("/metrics missing %s:\n%s", want, metrics)
		}
	}

	sigtermAndWait(t, exit, stdout, stderr)
}

// TestScalrouterSpawnSupervisedE2E is the production shape end to end: the
// router builds nothing in-process — it spawns real scaltoold child
// processes, discovers their ephemeral ports from their startup lines,
// routes real analyses to them, and SIGTERMs them on its own drain.
func TestScalrouterSpawnSupervisedE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and spawns scaltoold processes")
	}
	bin := filepath.Join(t.TempDir(), "scaltoold")
	build := exec.Command("go", "build", "-o", bin, "scaltool/cmd/scaltoold")
	build.Dir = "../.."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build scaltoold: %v\n%s", err, out)
	}

	cacheDir := t.TempDir()
	addr, exit, stdout, stderr := startRouter(t, []string{
		"-addr", "127.0.0.1:0",
		"-spawn", "2",
		"-scaltoold", bin,
		"-spawn-arg", "-workers=2",
		"-spawn-arg", "-cache-mb=32",
		"-spawn-arg", "-cache-dir=" + cacheDir,
		"-spawn-arg", "-log-level=warn",
		"-probe-interval", "100ms",
		"-log-level", "warn",
	})
	base := "http://" + addr

	// The router binds its listener before the supervised children have
	// announced their ports, so early requests see a retryable no_replica
	// 503 — exactly what a client's retry policy absorbs. Do the same here.
	const doc = `{"app":"swim","procs":4}`
	var resp1 *http.Response
	var body1 []byte
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp1, body1 = post(t, base, doc)
		if resp1.StatusCode == http.StatusOK {
			break
		}
		if resp1.StatusCode != http.StatusServiceUnavailable && resp1.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("analyze via spawned fleet = %d: %s", resp1.StatusCode, body1)
		}
		if time.Now().After(deadline) {
			t.Fatalf("fleet never formed: last status %d: %s\nstderr:\n%s", resp1.StatusCode, body1, stderr.String())
		}
		time.Sleep(100 * time.Millisecond)
	}
	resp2, body2 := post(t, base, doc)
	if resp2.StatusCode != http.StatusOK || !bytes.Equal(body1, body2) {
		t.Fatalf("repeat analyze: status %d, identical=%t", resp2.StatusCode, bytes.Equal(body1, body2))
	}

	sigtermAndWait(t, exit, stdout, stderr)
}

// TestScalrouterFlagValidation: the fleet must be named exactly one way.
func TestScalrouterFlagValidation(t *testing.T) {
	for _, args := range [][]string{
		{},
		{"-replica", "http://x", "-spawn", "2"},
	} {
		var stdout, stderr bytes.Buffer
		if code := realMain(args, &stdout, &stderr); code != 1 {
			t.Fatalf("args %v: exit %d, want 1; stderr:\n%s", args, code, stderr.String())
		}
		if !strings.Contains(stderr.String(), "exactly one way") {
			t.Fatalf("args %v: missing usage error, got:\n%s", args, stderr.String())
		}
	}
}

// TestScalrouterTakenAddressSpawnsNothing: with -spawn, a listen address
// that is already taken must fail startup before any child is spawned —
// a child started first would outlive the router.
func TestScalrouterTakenAddressSpawnsNothing(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var stdout, stderr bytes.Buffer
	code := realMain([]string{
		"-addr", ln.Addr().String(),
		"-spawn", "1",
		"-scaltoold", filepath.Join(t.TempDir(), "scaltoold"),
	}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit %d, want 1; stderr:\n%s", code, stderr.String())
	}
	if strings.Contains(stderr.String(), "spawning replica") {
		t.Fatalf("a replica was spawned before the bind failed; stderr:\n%s", stderr.String())
	}
	if !strings.Contains(stderr.String(), "listen") {
		t.Fatalf("missing listen error; stderr:\n%s", stderr.String())
	}
}
