package fleet

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"scaltool/internal/obs"
	"scaltool/internal/serve"
)

// The forward path. One client request becomes a sequence of attempts,
// one at a time, against the key's rendezvous order.
// Every attempt's outcome is classified into exactly one of:
//
//	final    — the replica answered with a verdict the client should see:
//	           200, any 4xx, a replica-side 500 or 504. These are
//	           deterministic (the same document gets the same verdict on
//	           every replica), so failing over would only burn a second
//	           replica's time to learn the same thing.
//	refusal  — the replica declined retryably: 429 (draining/overloaded)
//	           or 503 (no worker). Another replica may well accept; fail
//	           over, but keep the refusal as the answer of last resort so
//	           the client sees a retryable status, not a synthetic error.
//	failure  — the replica is unreachable, hung past ForwardTimeout, or
//	           reset the connection (a SIGKILL mid-request). Clear its up
//	           bit, fail over.
//
// Only failures clear a replica's up bit; the prober sets it again within
// one ProbeInterval once the replica answers /v1/healthz. A refusal is the
// replica protecting itself while healthy — demoting it would shrink the
// fleet during load spikes, exactly when capacity matters most. And an
// attempt canceled because the client hung up is neutral: the replica did
// nothing wrong, so it must not inherit the cancellation as a failure
// (that would let clients with short deadlines demote a slow-but-healthy
// replica).

// maxResponseBytes bounds a replica response body. Analysis responses are
// tens of kilobytes; even a full 32-proc diagnose report is far under a
// megabyte. 64 MiB is pure insurance against a confused replica.
const maxResponseBytes = 64 << 20

// attemptResult is one replica attempt's classified outcome.
type attemptResult struct {
	final   bool // verdict for the client (includes deterministic errors)
	refusal bool // retryable refusal (429/503) — fallback answer only
	status  int
	header  http.Header
	body    []byte
	replica string
	err     error // set iff transport-level failure
}

func (rt *Router) handleProxy(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	route := r.URL.Path
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeJSONError(w, http.StatusMethodNotAllowed, "method", "use POST")
		rt.countRequest(route, http.StatusMethodNotAllowed, start)
		return
	}
	// The replica's X-Request-Id contract, applied once and forwarded on
	// every attempt: a failover shows up in replica logs as one request
	// identity hopping replicas — exactly what an incident needs.
	rid := obs.ResolveRequestID(r.Header.Get("X-Request-Id"))
	w.Header().Set("X-Request-Id", rid)
	if rt.draining.Load() {
		w.Header().Set("Retry-After", "2")
		writeJSONError(w, http.StatusTooManyRequests, "draining", "router is draining")
		rt.countRequest(route, http.StatusTooManyRequests, start)
		return
	}
	rt.inflight.Add(1)
	defer rt.inflight.Done()

	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeJSONError(w, http.StatusRequestEntityTooLarge, "body_too_large",
				"request body exceeds "+strconv.FormatInt(tooBig.Limit, 10)+" bytes")
			rt.countRequest(route, http.StatusRequestEntityTooLarge, start)
			return
		}
		writeJSONError(w, http.StatusBadRequest, "malformed", "reading request body")
		rt.countRequest(route, http.StatusBadRequest, start)
		return
	}

	key := routingKeyFor(body)
	res := rt.forward(r.Context(), route, key, rid, body)
	for _, h := range []string{"Content-Type", "Retry-After"} {
		if v := res.header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	if res.replica != "" {
		w.Header().Set("X-Fleet-Replica", res.replica)
	}
	w.WriteHeader(res.status)
	_, _ = w.Write(res.body)
	rt.countRequest(route, res.status, start)
}

// routingKeyFor computes a request's placement key. The document is decoded
// leniently (unknown fields and schema violations are the REPLICA's call to
// refuse — the router only needs a stable identity) and keyed by the digest
// of its normalized form, serve.RoutingKey. A document that does not even
// parse hashes as raw bytes: still deterministic, so its repeats still
// land on one replica.
func routingKeyFor(body []byte) string {
	var req serve.Request
	if err := json.Unmarshal(body, &req); err == nil {
		return serve.RoutingKey(&req)
	}
	sum := sha256.Sum256(body)
	return "raw:" + hex.EncodeToString(sum[:8])
}

// forward tries the key's rendezvous order one replica at a time and
// returns the response to relay. It never returns a zero attemptResult.
func (rt *Router) forward(ctx context.Context, route, key, rid string, body []byte) attemptResult {
	var lastRefusal *attemptResult
	failed := false // the previous attempt was a hard failure
	for _, m := range rank(rt.snapshot(), key) {
		// An instanceless slot is known-useless without a network round trip.
		url := m.currentURL()
		if url == "" {
			continue
		}
		if failed {
			rt.count("scaltool_fleet_failovers_total", "attempts failed over to the next replica")
		}
		res := rt.attempt(ctx, m, url, route, rid, body)
		if res.final {
			return res
		}
		if ctx.Err() != nil {
			return attemptResult{
				final:  true,
				status: http.StatusServiceUnavailable,
				header: errHeader(""),
				body:   errBody("client canceled or router shutting down", "canceled"),
			}
		}
		if res.refusal {
			lastRefusal = &res
		}
		failed = res.err != nil
	}
	if lastRefusal != nil {
		return *lastRefusal
	}
	return noReplicaResult()
}

// attempt forwards the request to one replica and classifies the outcome.
func (rt *Router) attempt(ctx context.Context, m *member, url, route, rid string, body []byte) attemptResult {
	actx, cancel := context.WithTimeout(ctx, rt.opts.ForwardTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(actx, http.MethodPost, url+route, bytes.NewReader(body))
	if err != nil {
		return rt.attemptFailed(m, err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-Id", rid)
	resp, err := rt.hc.Do(req)
	if err != nil {
		// A cancellation from the parent (the client hung up, or the
		// router is shutting down) is not the replica's fault: it leaves
		// the up bit alone and charges no failure. A blown ForwardTimeout —
		// actx expired while ctx is still live — IS the replica's fault
		// (hung or wedged).
		if ctx.Err() != nil {
			return attemptResult{replica: m.name, err: err}
		}
		return rt.attemptFailed(m, err)
	}
	defer resp.Body.Close()
	rbody, err := io.ReadAll(io.LimitReader(resp.Body, maxResponseBytes))
	if err != nil {
		if ctx.Err() != nil {
			return attemptResult{replica: m.name, err: err}
		}
		return rt.attemptFailed(m, err)
	}

	res := attemptResult{status: resp.StatusCode, header: resp.Header, body: rbody, replica: m.name}
	switch {
	case resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable:
		// The replica is healthy but refusing work — retryable elsewhere.
		res.refusal = true
		rt.countAttempt(m.name, "refused")
	default:
		// Everything else — 200, 4xx, 500, 504 — is a deterministic
		// verdict; retrying on a peer would reproduce it.
		res.final = true
		rt.countAttempt(m.name, "ok")
	}
	return res
}

// attemptFailed records a hard replica failure: its up bit drops (the
// prober or a restart will restore it).
func (rt *Router) attemptFailed(m *member, err error) attemptResult {
	m.up.Store(false)
	rt.countAttempt(m.name, "failed")
	return attemptResult{replica: m.name, err: err}
}

func noReplicaResult() attemptResult {
	h := errHeader("3")
	return attemptResult{
		final:  true,
		status: http.StatusServiceUnavailable,
		header: h,
		body:   errBody("no replica available", "no_replica"),
	}
}

func errHeader(retryAfter string) http.Header {
	h := http.Header{}
	h.Set("Content-Type", "application/json")
	if retryAfter != "" {
		h.Set("Retry-After", retryAfter)
	}
	return h
}

// errBody renders the service's uniform {"error","code"} JSON error shape.
func errBody(msg, code string) []byte {
	b, _ := json.Marshal(map[string]string{"error": msg, "code": code})
	return append(b, '\n')
}

func writeJSONError(w http.ResponseWriter, status int, code, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(errBody(msg, code))
}

func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if rt.draining.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, `{"status":"draining"}`)
		return
	}
	fmt.Fprintln(w, `{"status":"ok"}`)
}

func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	mt := rt.meter()
	if mt == nil {
		http.Error(w, "metrics disabled", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := mt.WritePrometheus(w); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// Drain mirrors the replica shutdown contract at the router tier: healthz
// flips to 503, new requests get a retryable 429, and Drain blocks until
// every in-flight forward completes or ctx expires. Safe to call twice.
func (rt *Router) Drain(ctx context.Context) error {
	rt.draining.Store(true)
	if mt := rt.meter(); mt != nil {
		mt.Gauge("scaltool_fleet_draining", "1 while the router is draining for shutdown").Set(1)
	}
	done := make(chan struct{})
	go func() {
		rt.inflight.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("fleet: drain: %w", ctx.Err())
	}
}

func (rt *Router) countRequest(route string, code int, start time.Time) {
	mt := rt.meter()
	if mt == nil {
		return
	}
	mt.Counter("scaltool_fleet_requests_total", "router requests by route and status code",
		"route", route, "code", strconv.Itoa(code)).Inc()
	mt.RequestSeconds("fleet" + route).Observe(time.Since(start).Seconds())
}

func (rt *Router) countAttempt(replica, outcome string) {
	if mt := rt.meter(); mt != nil {
		mt.Counter("scaltool_fleet_attempts_total", "replica attempts by outcome",
			"replica", replica, "outcome", outcome).Inc()
	}
}

func (rt *Router) count(name, help string) {
	if mt := rt.meter(); mt != nil {
		mt.Counter(name, help).Inc()
	}
}
