package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"scaltool/internal/obs"
	"scaltool/internal/serve"
)

func analyzeDoc(app string, procs int) []byte {
	return []byte(fmt.Sprintf(`{"app":%q,"procs":%d}`, app, procs))
}

// postRouter posts a document at a router handler and returns the response.
func postRouter(t *testing.T, h http.Handler, path string, body []byte, hdr map[string]string) (*http.Response, []byte) {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	resp := rec.Result()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

// TestRankStability pins the rendezvous properties routing depends on:
// determinism, and minimal disruption when a replica leaves.
func TestRankStability(t *testing.T) {
	mk := func(names ...string) []*member {
		ms := make([]*member, 0, len(names))
		for _, n := range names {
			m := &member{name: n}
			m.url.Store("http://x")
			m.up.Store(true)
			ms = append(ms, m)
		}
		return ms
	}
	members := mk("replica-0", "replica-1", "replica-2")
	keys := []string{"k1", "k2", "k3", "k4", "k5", "k6", "k7", "k8"}

	// Deterministic: the same key always ranks the same order.
	for _, k := range keys {
		a, b := rank(members, k), rank(members, k)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("rank(%q) not deterministic", k)
			}
		}
	}
	// Spread: with 8 keys and 3 replicas, at least two replicas get a top
	// choice (an all-on-one hash would defeat the point).
	tops := map[string]bool{}
	for _, k := range keys {
		tops[rank(members, k)[0].name] = true
	}
	if len(tops) < 2 {
		t.Fatalf("all keys ranked the same replica first: %v", tops)
	}
	// Minimal disruption: dropping replica-2 must not change the top
	// choice of any key replica-2 did not own.
	survivors := members[:2]
	for _, k := range keys {
		before := rank(members, k)[0]
		after := rank(survivors, k)[0]
		if before.name != "replica-2" && after != before {
			t.Fatalf("key %q moved from %s to %s when an unrelated replica left", k, before.name, after.name)
		}
	}
	// A down replica ranks behind every up replica but stays in the list.
	members[0].up.Store(false)
	for _, k := range keys {
		order := rank(members, k)
		if order[len(order)-1].name != "replica-0" {
			t.Fatalf("down replica not ranked last for %q", k)
		}
	}
}

// TestRouterAffinityAndByteIdentity runs two real replicas behind the
// router: every repetition of one document must land on the same replica
// and return byte-identical bodies.
func TestRouterAffinityAndByteIdentity(t *testing.T) {
	var reps []*LocalReplica
	var replicas []Replica
	for i := 0; i < 2; i++ {
		rep, err := StartLocal(serve.Options{Workers: 2}, "")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(rep.Kill)
		reps = append(reps, rep)
		replicas = append(replicas, Replica{Name: SlotName(i), URL: rep.URL()})
	}
	rt := NewRouter(Options{Replicas: replicas})

	doc := analyzeDoc("swim", 4)
	var firstBody []byte
	var firstReplica string
	for i := 0; i < 3; i++ {
		resp, body := postRouter(t, rt.Handler(), "/v1/analyze", doc, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: %d: %s", i, resp.StatusCode, body)
		}
		rep := resp.Header.Get("X-Fleet-Replica")
		if i == 0 {
			firstBody, firstReplica = body, rep
			if rep == "" {
				t.Fatal("no X-Fleet-Replica header")
			}
			continue
		}
		if rep != firstReplica {
			t.Fatalf("request %d routed to %s, first went to %s", i, rep, firstReplica)
		}
		if !bytes.Equal(body, firstBody) {
			t.Fatalf("request %d body differs from first", i)
		}
	}

	// The replica's own error contract passes through verbatim: an unknown
	// app is a deterministic 422, never retried into a different answer.
	resp, body := postRouter(t, rt.Handler(), "/v1/analyze", analyzeDoc("nosuchapp", 2), nil)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("unknown app: %d: %s", resp.StatusCode, body)
	}
	var e map[string]string
	if err := json.Unmarshal(body, &e); err != nil || e["code"] == "" {
		t.Fatalf("error body not the uniform shape: %s", body)
	}
}

// stubBackend is a scriptable replica for failover tests.
type stubBackend struct {
	ts   *httptest.Server
	hits atomic.Int64
	rids chan string
}

func newStubBackend(t *testing.T, status int, body string) *stubBackend {
	sb := &stubBackend{rids: make(chan string, 64)}
	sb.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "healthz") {
			fmt.Fprintln(w, `{"status":"ok"}`)
			return
		}
		sb.hits.Add(1)
		select {
		case sb.rids <- r.Header.Get("X-Request-Id"):
		default:
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(status)
		fmt.Fprintln(w, body)
	}))
	t.Cleanup(sb.ts.Close)
	return sb
}

// TestRouterFailoverPreservesRequestID kills the preferred replica
// mid-request and asserts (a) the request succeeds on the backup, (b) one
// X-Request-Id — the client's, or one the router minted when the client
// sent none — is echoed to the client and reached BOTH replicas unchanged:
// the trace identity survives failover end to end.
func TestRouterFailoverPreservesRequestID(t *testing.T) {
	for _, tc := range []struct{ name, sent string }{
		{"client-supplied", "trace-fleet-42"},
		{"router-minted", ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			good := newStubBackend(t, http.StatusOK, `{"ok":true}`)
			// The dead replica reads the request, then resets the
			// connection: a SIGKILL mid-request.
			deadRIDs := make(chan string, 1)
			dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				select {
				case deadRIDs <- r.Header.Get("X-Request-Id"):
				default:
				}
				if conn, _, err := w.(http.Hijacker).Hijack(); err == nil {
					conn.Close()
				}
			}))
			t.Cleanup(dead.Close)

			doc := analyzeDoc("swim", 2)
			// Name the replicas so the DEAD one is the rendezvous first
			// choice for this document: try both assignments and keep the
			// one where the dead backend wins the hash.
			key := routingKeyFor(doc)
			names := []string{SlotName(0), SlotName(1)}
			deadName, goodName := names[0], names[1]
			if rendezvousScore(names[1], key) > rendezvousScore(names[0], key) {
				deadName, goodName = names[1], names[0]
			}
			rt := NewRouter(Options{
				Replicas: []Replica{{Name: deadName, URL: dead.URL}, {Name: goodName, URL: good.ts.URL}},
			})

			hdr := map[string]string{}
			if tc.sent != "" {
				hdr["X-Request-Id"] = tc.sent
			}
			resp, body := postRouter(t, rt.Handler(), "/v1/analyze", doc, hdr)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("failover request: %d: %s", resp.StatusCode, body)
			}
			if got := resp.Header.Get("X-Fleet-Replica"); got != goodName {
				t.Fatalf("served by %q, want the backup %q", got, goodName)
			}
			rid := resp.Header.Get("X-Request-Id")
			if !obs.ValidRequestID(rid) || (tc.sent != "" && rid != tc.sent) {
				t.Fatalf("response X-Request-Id = %q, sent %q", rid, tc.sent)
			}
			for name, seen := range map[string]chan string{deadName: deadRIDs, goodName: good.rids} {
				select {
				case got := <-seen:
					if got != rid {
						t.Fatalf("replica %s saw X-Request-Id %q, want %q", name, got, rid)
					}
				default:
					t.Fatalf("replica %s never saw the request", name)
				}
			}
		})
	}
}

// TestRouterDemotesFailedOwner: one reset connection from a key's owner
// clears its up bit, so the next request for the key goes to the backup
// first without touching the owner; one probe round restores the owner.
func TestRouterDemotesFailedOwner(t *testing.T) {
	var resets atomic.Int64
	owner := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "healthz") {
			fmt.Fprintln(w, `{"status":"ok"}`)
			return
		}
		if resets.Add(1) == 1 {
			if conn, _, err := w.(http.Hijacker).Hijack(); err == nil {
				conn.Close()
			}
			return
		}
		fmt.Fprintln(w, `{"owner":true}`)
	}))
	t.Cleanup(owner.Close)
	backup := newStubBackend(t, http.StatusOK, `{"backup":true}`)

	doc := analyzeDoc("swim", 2)
	key := routingKeyFor(doc)
	ownerName, backupName := SlotName(0), SlotName(1)
	if rendezvousScore(backupName, key) > rendezvousScore(ownerName, key) {
		ownerName, backupName = backupName, ownerName
	}
	rt := NewRouter(Options{Replicas: []Replica{
		{Name: ownerName, URL: owner.URL},
		{Name: backupName, URL: backup.ts.URL},
	}})
	servedBy := func(step string) string {
		t.Helper()
		resp, body := postRouter(t, rt.Handler(), "/v1/analyze", doc, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: %d: %s", step, resp.StatusCode, body)
		}
		return resp.Header.Get("X-Fleet-Replica")
	}

	if got := servedBy("reset"); got != backupName {
		t.Fatalf("reset request served by %q, want the backup %q", got, backupName)
	}
	if got := servedBy("after reset"); got != backupName {
		t.Fatalf("request after the reset served by %q, want the backup %q first", got, backupName)
	}
	if n := resets.Load(); n != 1 {
		t.Fatalf("demoted owner got %d attempts, want only the one that reset", n)
	}

	rt.probeAll(context.Background())
	if got := servedBy("after probe"); got != ownerName {
		t.Fatalf("request after a probe round served by %q, want the owner %q", got, ownerName)
	}
}

// TestRouterRefusalFallsOverThenSurfaces: a 429 from the preferred replica
// fails over; if EVERY replica refuses, the client sees the retryable
// refusal (with its Retry-After), never a synthetic hard error.
func TestRouterRefusalFallsOverThenSurfaces(t *testing.T) {
	busy1 := newStubBackend(t, http.StatusTooManyRequests, `{"error":"overloaded","code":"overloaded"}`)
	busy2 := newStubBackend(t, http.StatusTooManyRequests, `{"error":"overloaded","code":"overloaded"}`)
	rt := NewRouter(Options{Replicas: []Replica{
		{Name: SlotName(0), URL: busy1.ts.URL},
		{Name: SlotName(1), URL: busy2.ts.URL},
	}})
	resp, body := postRouter(t, rt.Handler(), "/v1/analyze", analyzeDoc("swim", 2), nil)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("all-refusing fleet returned %d, want 429: %s", resp.StatusCode, body)
	}
	if busy1.hits.Load() != 1 || busy2.hits.Load() != 1 {
		t.Fatalf("attempts = (%d, %d), want one per replica", busy1.hits.Load(), busy2.hits.Load())
	}

	// Mixed fleet: refusal from the first, success from the second.
	ok := newStubBackend(t, http.StatusOK, `{"ok":true}`)
	doc := analyzeDoc("swim", 2)
	key := routingKeyFor(doc)
	busyName, okName := SlotName(0), SlotName(1)
	if rendezvousScore(okName, key) > rendezvousScore(busyName, key) {
		busyName, okName = okName, busyName
	}
	rt2 := NewRouter(Options{Replicas: []Replica{
		{Name: busyName, URL: busy1.ts.URL},
		{Name: okName, URL: ok.ts.URL},
	}})
	resp, body = postRouter(t, rt2.Handler(), "/v1/analyze", doc, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("mixed fleet returned %d, want 200: %s", resp.StatusCode, body)
	}
}

// TestRouterClientCancelIsNeutral: a client that hangs up mid-forward
// cancels the attempt, and that cancellation is not the replica's fault.
// Repeated cancels against a slow replica must leave its up bit set, charge
// no failed attempt, fail over nowhere, and leave the replica serving the
// next request.
func TestRouterClientCancelIsNeutral(t *testing.T) {
	var slowMode atomic.Bool
	slowMode.Store(true)
	arrived := make(chan struct{}, 16)
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "healthz") {
			fmt.Fprintln(w, `{"status":"ok"}`)
			return
		}
		if slowMode.Load() {
			// Reading the body to EOF lets the server notice the client's
			// hang-up and cancel r.Context().
			_, _ = io.Copy(io.Discard, r.Body)
			arrived <- struct{}{}
			<-r.Context().Done()
			return
		}
		fmt.Fprintln(w, `{"slow":false}`)
	}))
	defer slow.Close()
	backup := newStubBackend(t, http.StatusOK, `{"backup":true}`)

	doc := analyzeDoc("swim", 2)
	key := routingKeyFor(doc)
	slowName, backupName := SlotName(0), SlotName(1)
	if rendezvousScore(backupName, key) > rendezvousScore(slowName, key) {
		slowName, backupName = backupName, slowName
	}
	o := &obs.Observer{Metrics: obs.NewMetrics()}
	rt := NewRouter(Options{
		Replicas: []Replica{
			{Name: slowName, URL: slow.URL},
			{Name: backupName, URL: backup.ts.URL},
		},
		Obs: o,
	})

	for i := 0; i < 3; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		req := httptest.NewRequest(http.MethodPost, "/v1/analyze", bytes.NewReader(doc)).WithContext(ctx)
		rec := httptest.NewRecorder()
		done := make(chan struct{})
		go func() {
			defer close(done)
			rt.Handler().ServeHTTP(rec, req)
		}()
		select {
		case <-arrived: // the forward is in flight at the slow replica
		case <-done:
			t.Fatalf("cancel %d: forward answered %d without reaching the slow replica: %s", i, rec.Code, rec.Body.Bytes())
		}
		cancel()
		<-done
		if rec.Code != http.StatusServiceUnavailable {
			t.Fatalf("cancel %d: status %d, want 503: %s", i, rec.Code, rec.Body.Bytes())
		}
	}

	for _, m := range rt.snapshot() {
		if m.name == slowName && !m.up.Load() {
			t.Fatal("client cancels cleared the slow replica's up bit")
		}
	}
	if n := o.Metrics.Counter("scaltool_fleet_attempts_total", "", "replica", slowName, "outcome", "failed").Value(); n != 0 {
		t.Fatalf("client cancels charged %d failed attempts", n)
	}
	if n := backup.hits.Load(); n != 0 {
		t.Fatalf("client cancels failed over %d times to the backup", n)
	}

	slowMode.Store(false)
	resp, body := postRouter(t, rt.Handler(), "/v1/analyze", doc, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("request after cancels: %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Fleet-Replica"); got != slowName {
		t.Fatalf("served by %q, want the preferred replica %q", got, slowName)
	}
}

// TestRouterDrainAndGates pins the router's own edge contract: drain 429,
// method 405, oversized body 413, and the no-replica 503.
func TestRouterDrainAndGates(t *testing.T) {
	rep := newStubBackend(t, http.StatusOK, `{"ok":true}`)
	rt := NewRouter(Options{Replicas: []Replica{{Name: SlotName(0), URL: rep.ts.URL}}})

	req := httptest.NewRequest(http.MethodGet, "/v1/analyze", nil)
	rec := httptest.NewRecorder()
	rt.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET returned %d, want 405", rec.Code)
	}

	resp, body := postRouter(t, rt.Handler(), "/v1/analyze", bytes.Repeat([]byte("x"), 1<<20+1), nil)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body returned %d: %s", resp.StatusCode, body)
	}

	// Drain: healthz flips, new work refused retryably, Drain returns.
	ctx, cancel := testContext(t)
	defer cancel()
	if err := rt.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	resp, body = postRouter(t, rt.Handler(), "/v1/analyze", analyzeDoc("swim", 2), nil)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("draining router returned %d: %s", resp.StatusCode, body)
	}
	var e map[string]string
	if err := json.Unmarshal(body, &e); err != nil || e["code"] != "draining" {
		t.Fatalf("drain error body: %s", body)
	}
	hreq := httptest.NewRequest(http.MethodGet, "/v1/healthz", nil)
	hrec := httptest.NewRecorder()
	rt.Handler().ServeHTTP(hrec, hreq)
	if hrec.Code != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz = %d, want 503", hrec.Code)
	}

	// No replicas at all → a retryable 503.
	empty := NewRouter(Options{})
	resp, body = postRouter(t, empty.Handler(), "/v1/analyze", analyzeDoc("swim", 2), nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("empty fleet returned %d: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &e); err != nil || e["code"] != "no_replica" {
		t.Fatalf("no-replica body: %s", body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("no-replica response missing Retry-After")
	}
}
