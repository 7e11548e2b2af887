package fleet

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"
)

// testContext returns a context bounded well under the test deadline.
func testContext(t *testing.T) (context.Context, context.CancelFunc) {
	t.Helper()
	return context.WithTimeout(context.Background(), 30*time.Second)
}

// fakeHandle is a scriptable Handle for supervisor tests.
type fakeHandle struct {
	url     string
	done    chan struct{}
	once    sync.Once
	healthy atomic.Bool
	ts      *httptest.Server
}

func newFakeHandle() *fakeHandle {
	h := &fakeHandle{done: make(chan struct{})}
	h.healthy.Store(true)
	h.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if h.healthy.Load() {
			fmt.Fprintln(w, `{"status":"ok"}`)
			return
		}
		// A hung replica: the probe times out rather than erroring.
		select {
		case <-h.done:
		case <-r.Context().Done():
		}
	}))
	h.url = h.ts.URL
	return h
}

func (h *fakeHandle) URL() string           { return h.url }
func (h *fakeHandle) Done() <-chan struct{} { return h.done }
func (h *fakeHandle) Kill() {
	h.once.Do(func() {
		close(h.done)
		go h.ts.Close()
	})
}

// TestSupervisorRestartsDeadReplica: killing an instance must produce a
// respawn, with the router notified of down-then-up.
func TestSupervisorRestartsDeadReplica(t *testing.T) {
	ctx, cancel := testContext(t)
	defer cancel()

	var mu sync.Mutex
	var spawned []*fakeHandle
	var notifications []string
	sv := &Supervisor{
		Spawn: func(slot int) (Handle, error) {
			h := newFakeHandle()
			mu.Lock()
			spawned = append(spawned, h)
			mu.Unlock()
			return h, nil
		},
		Notify: func(slot int, url string) {
			mu.Lock()
			notifications = append(notifications, fmt.Sprintf("%d:%s", slot, url))
			mu.Unlock()
		},
		HeartbeatInterval: 20 * time.Millisecond,
		RestartBackoff:    10 * time.Millisecond,
	}
	runDone := make(chan error, 1)
	go func() { runDone <- sv.Run(ctx, 1) }()

	waitFor(t, func() bool { mu.Lock(); defer mu.Unlock(); return len(spawned) >= 1 })
	mu.Lock()
	first := spawned[0]
	mu.Unlock()
	first.Kill()
	waitFor(t, func() bool { mu.Lock(); defer mu.Unlock(); return len(spawned) >= 2 })

	cancel()
	if err := <-runDone; err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	// Notifications: up(first), down, up(second), [down on shutdown].
	if len(notifications) < 3 {
		t.Fatalf("notifications = %v", notifications)
	}
	if notifications[0] != "0:"+first.url || notifications[1] != "0:" {
		t.Fatalf("restart notifications wrong: %v", notifications)
	}
	if notifications[2] != "0:"+spawned[1].url {
		t.Fatalf("replacement URL not announced: %v", notifications)
	}
}

// TestSupervisorKillsHungReplica: an instance that stops answering health
// probes without exiting must be killed and replaced — the watchdog's whole
// reason to exist.
func TestSupervisorKillsHungReplica(t *testing.T) {
	ctx, cancel := testContext(t)
	defer cancel()

	var mu sync.Mutex
	var spawned []*fakeHandle
	sv := &Supervisor{
		Spawn: func(slot int) (Handle, error) {
			h := newFakeHandle()
			mu.Lock()
			spawned = append(spawned, h)
			mu.Unlock()
			return h, nil
		},
		HeartbeatInterval: 15 * time.Millisecond,
		HeartbeatMisses:   2,
		RestartBackoff:    10 * time.Millisecond,
	}
	runDone := make(chan error, 1)
	go func() { runDone <- sv.Run(ctx, 1) }()

	waitFor(t, func() bool { mu.Lock(); defer mu.Unlock(); return len(spawned) >= 1 })
	mu.Lock()
	first := spawned[0]
	mu.Unlock()
	// Wedge the instance: alive as a process, dead to probes.
	first.healthy.Store(false)

	waitFor(t, func() bool { mu.Lock(); defer mu.Unlock(); return len(spawned) >= 2 })
	select {
	case <-first.Done():
	default:
		t.Fatal("hung instance was replaced but never killed")
	}
	cancel()
	if err := <-runDone; err != nil {
		t.Fatal(err)
	}
}

// TestSupervisorFirstSpawnFailureIsFatal: a slot that cannot start once is
// a configuration error, reported rather than retried forever.
func TestSupervisorFirstSpawnFailureIsFatal(t *testing.T) {
	ctx, cancel := testContext(t)
	defer cancel()
	sv := &Supervisor{Spawn: func(slot int) (Handle, error) {
		return nil, fmt.Errorf("no such binary")
	}}
	if err := sv.Run(ctx, 1); err == nil {
		t.Fatal("first-spawn failure not reported")
	}
}

// TestSupervisorShutdownDuringFirstSpawn: a first spawn that fails because
// the supervisor's context ended is a shutdown, not a configuration error.
func TestSupervisorShutdownDuringFirstSpawn(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	sv := &Supervisor{Spawn: func(slot int) (Handle, error) {
		cancel()
		return nil, ctx.Err()
	}}
	if err := sv.Run(ctx, 1); err != nil {
		t.Fatalf("Run after a shutdown during the first spawn: %v, want nil", err)
	}
}

// TestExecReplicaAddressDiscovery drives StartExec against a shell script
// that fakes scaltoold's startup line, covering wildcard-address rewriting
// and a readiness wait that its context ends.
func TestExecReplicaAddressDiscovery(t *testing.T) {
	if _, err := os.Stat("/bin/sh"); err != nil {
		t.Skip("no /bin/sh")
	}
	dir := t.TempDir()
	script := dir + "/fake-scaltoold"
	if err := os.WriteFile(script, []byte("#!/bin/sh\necho 'scaltoold: listening on [::]:18080'\nexec sleep 30\n"), 0o755); err != nil {
		t.Fatal(err)
	}
	r, err := StartExec(context.Background(), ExecConfig{Path: script})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Kill()
	if r.URL() != "http://127.0.0.1:18080" {
		t.Fatalf("URL = %q, want the wildcard rewritten to localhost", r.URL())
	}
	r.Kill()
	select {
	case <-r.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("killed child never reaped")
	}

	// A child that never announces must be killed when the context ends.
	silent := dir + "/silent"
	if err := os.WriteFile(silent, []byte("#!/bin/sh\nexec sleep 30\n"), 0o755); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if _, err := StartExec(ctx, ExecConfig{Path: silent}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("silent child: %v, want a readiness failure from the context deadline", err)
	}
}

// TestStartExecCancelReapsChild cancels StartExec's context while a child
// that never announces is still starting, and requires StartExec to return
// within a second with the child killed and reaped: its process id no
// longer exists, not even as a zombie.
func TestStartExecCancelReapsChild(t *testing.T) {
	if _, err := os.Stat("/bin/sh"); err != nil {
		t.Skip("no /bin/sh")
	}
	dir := t.TempDir()
	pidFile := filepath.Join(dir, "pid")
	silent := filepath.Join(dir, "silent")
	if err := os.WriteFile(silent, []byte("#!/bin/sh\necho $$ > "+pidFile+"\nexec sleep 30\n"), 0o755); err != nil {
		t.Fatal(err)
	}
	// Cancel once the child has written its process id, so the cancel
	// lands mid-wait.
	type cancelAt struct {
		pid int
		at  time.Time
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	canceled := make(chan cancelAt, 1)
	go func() {
		var c cancelAt
		for deadline := time.Now().Add(10 * time.Second); c.pid == 0 && time.Now().Before(deadline); {
			if data, err := os.ReadFile(pidFile); err == nil {
				c.pid, _ = strconv.Atoi(strings.TrimSpace(string(data)))
			}
			time.Sleep(2 * time.Millisecond)
		}
		c.at = time.Now()
		cancel()
		canceled <- c
	}()
	_, err := StartExec(ctx, ExecConfig{Path: silent})
	returned := time.Now()
	c := <-canceled
	if c.pid == 0 {
		t.Fatal("child never wrote its process id")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("StartExec after cancel: %v, want context.Canceled", err)
	}
	if d := returned.Sub(c.at); d >= time.Second {
		t.Errorf("StartExec returned %v after its context was canceled, want under 1s", d)
	}
	if err := syscall.Kill(c.pid, 0); !errors.Is(err, syscall.ESRCH) {
		t.Errorf("child %d still exists after StartExec returned (kill 0: %v): not reaped", c.pid, err)
	}
}

// waitFor polls cond until it holds or the test deadline approaches.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never held")
		}
		time.Sleep(2 * time.Millisecond)
	}
}
