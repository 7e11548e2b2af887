package fleet

// The headline fault-tolerance gate: a supervised fleet under sustained
// client load while a killer SIGKILLs replicas at random. The fleet as a
// whole must behave like one reliable, deterministic server — every client
// request eventually succeeds through ordinary retries (zero non-retryable
// failures), and every response body is byte-identical to a single
// stable replica's answer for the same document. Kills are abrupt
// (http.Server.Close severs in-flight connections, the in-process analog
// of SIGKILL), restarts go through the real supervisor → SetReplicaURL
// path, and the replicas share one spill directory exactly as a production
// fleet shares -run-cache-dir.

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"scaltool/internal/runcache"
	"scaltool/internal/serve"
)

// chaosDocs are the workload documents: small campaigns (procs=4) so an
// individual analysis is fast enough to run hundreds of times under -race,
// while still exercising the full campaign → sim → fit pipeline.
func chaosDocs() [][]byte {
	return [][]byte{
		[]byte(`{"app":"swim","procs":4}`),
		[]byte(`{"app":"hydro2d","procs":4}`),
		[]byte(`{"app":"swim","procs":4,"raw_tm":true}`),
	}
}

// fetchOnce posts a document and returns status and body.
func fetchOnce(hc *http.Client, url string, doc []byte) (int, []byte, error) {
	resp, err := hc.Post(url+"/v1/analyze", "application/json", bytes.NewReader(doc))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, body, nil
}

// fetchRetry is an ordinary client retry policy at the raw-bytes level
// (this test must compare exact bytes): transport errors, 429 and 503
// retry; everything else is a non-retryable client-visible failure — the
// thing this gate forbids.
func fetchRetry(ctx context.Context, hc *http.Client, url string, doc []byte) ([]byte, error) {
	var last error
	for attempt := 0; ctx.Err() == nil; attempt++ {
		status, body, err := fetchOnce(hc, url, doc)
		switch {
		case err != nil:
			last = err
		case status == http.StatusOK:
			return body, nil
		case status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable:
			last = fmt.Errorf("status %d: %s", status, body)
		default:
			return nil, fmt.Errorf("non-retryable status %d: %s", status, body)
		}
		select {
		case <-ctx.Done():
		case <-time.After(time.Duration(5+attempt) * time.Millisecond):
		}
	}
	return nil, fmt.Errorf("gave up: %w (last: %v)", ctx.Err(), last)
}

// TestFleetChaosKillRestartByteIdentical is the acceptance gate described
// above. Bounded for a 1-core -race runner: 3 replica slots, 4 client
// goroutines, ~60 requests total, kills every ~150ms for the duration.
func TestFleetChaosKillRestartByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos run takes seconds")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	// Baseline truth: one stable replica (its own cache) answers each
	// document once; every fleet answer must match these bytes.
	docs := chaosDocs()
	stable, err := StartLocal(serve.Options{Workers: 2}, "")
	if err != nil {
		t.Fatal(err)
	}
	defer stable.Kill()
	baseline := make([][]byte, len(docs))
	hc := &http.Client{}
	for i, doc := range docs {
		status, body, err := fetchOnce(hc, stable.URL(), doc)
		if err != nil || status != http.StatusOK {
			t.Fatalf("baseline doc %d: status %d err %v: %s", i, status, err, body)
		}
		baseline[i] = body
	}

	// The fleet: three supervised slots sharing one spill directory, each
	// restart getting a cold memory tier over the shared disk tier.
	spillDir := t.TempDir()
	var handleMu sync.Mutex
	live := map[int]Handle{}
	rt := NewRouter(Options{
		Replicas: []Replica{
			{Name: SlotName(0)}, {Name: SlotName(1)}, {Name: SlotName(2)},
		},
		ProbeInterval:  100 * time.Millisecond,
		ForwardTimeout: 120 * time.Second,
	})
	sv := &Supervisor{
		Spawn: func(slot int) (Handle, error) {
			// A generous request deadline: on a 1-core -race runner the kill
			// storm makes individual analyses arbitrarily slow, and a 504 is
			// a FINAL status — deadline pressure must not read as a
			// fault-tolerance failure.
			h, err := StartLocal(serve.Options{
				Workers:        2,
				RequestTimeout: 90 * time.Second,
				Cache:          runcache.New(runcache.Options{MaxBytes: 1 << 20, SpillDir: spillDir}),
			}, "")
			if err != nil {
				return nil, err
			}
			handleMu.Lock()
			live[slot] = h
			handleMu.Unlock()
			return h, nil
		},
		Notify: func(slot int, url string) { rt.SetReplicaURL(SlotName(slot), url) },
		// Generous liveness tolerances: a saturated 1-core -race runner can
		// starve a busy replica's healthz handler for hundreds of ms, and a
		// heartbeat watchdog tuned tighter than the scheduler jitter would
		// add its own self-inflicted kills to the storm.
		HeartbeatInterval: 500 * time.Millisecond,
		HeartbeatMisses:   6,
		RestartBackoff:    50 * time.Millisecond,
	}
	svCtx, svCancel := context.WithCancel(ctx)
	svDone := make(chan error, 1)
	go func() { svDone <- sv.Run(svCtx, 3) }()
	rt.StartProber(svCtx)
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	// Wait for all three slots to come up, then warm the shared spill
	// tier through the router before opening fire: on a 1-core -race
	// runner a cold analysis takes long enough that a kill storm during
	// the very first simulations starves every client at once. The storm
	// still exercises the cold paths — each kill wipes that replica's
	// memory tier, so post-restart requests go through the disk tier and
	// failover machinery.
	waitFor(t, func() bool {
		handleMu.Lock()
		defer handleMu.Unlock()
		return len(live) == 3
	})
	for i, doc := range docs {
		body, err := fetchRetry(ctx, hc, front.URL, doc)
		if err != nil {
			t.Fatalf("warmup doc %d: %v", i, err)
		}
		if !bytes.Equal(body, baseline[i]) {
			t.Fatalf("warmup doc %d differs from single-replica baseline", i)
		}
	}

	// The killer: SIGKILL a random replica every ~250ms, maxKills times,
	// then signal the storm over. Bounding the storm keeps the test
	// deterministic on a saturated 1-core -race runner: after the last
	// kill the fleet settles (restarts land, the shared spill dir is warm)
	// and the remaining load completes — the zero-failure assertion covers
	// the storm AND the recovery. The clients keep firing until the storm
	// ends, so every kill lands under live load.
	const maxKills = 8
	stormDone := make(chan struct{})
	rng := rand.New(rand.NewSource(42))
	go func() {
		defer close(stormDone)
		for kills := 0; kills < maxKills; {
			select {
			case <-ctx.Done():
				return
			case <-time.After(250 * time.Millisecond):
			}
			slot := rng.Intn(3)
			handleMu.Lock()
			h := live[slot]
			handleMu.Unlock()
			if h != nil {
				h.Kill()
				kills++
			}
		}
	}()
	stormOver := func() bool {
		select {
		case <-stormDone:
			return true
		default:
			return false
		}
	}

	// The load: four client goroutines, each walking the documents in a
	// different order and asserting byte-identity on every answer.
	const perClient = 8
	var wg sync.WaitGroup
	var served atomic.Int64
	errCh := make(chan error, 8)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			hc := &http.Client{}
			for i := 0; i < perClient || !stormOver(); i++ {
				d := (g + i) % len(docs)
				body, err := fetchRetry(ctx, hc, front.URL, docs[d])
				if err != nil {
					errCh <- fmt.Errorf("client %d req %d: %w", g, i, err)
					return
				}
				if !bytes.Equal(body, baseline[d]) {
					errCh <- fmt.Errorf("client %d req %d: body differs from single-replica baseline", g, i)
					return
				}
				served.Add(1)
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	select {
	case <-stormDone:
	default:
		t.Fatal("clients finished before the storm completed — the loop above is wrong")
	}
	t.Logf("chaos run: %d kills survived, %d requests byte-identical", maxKills, served.Load())

	// Orderly teardown: supervisor stops its instances, router drains.
	svCancel()
	if err := <-svDone; err != nil {
		t.Fatal(err)
	}
	dctx, dcancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer dcancel()
	if err := rt.Drain(dctx); err != nil {
		t.Fatal(err)
	}
}
