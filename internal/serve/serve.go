// Package serve is the scaltoold analysis service: Scal-Tool's model as an
// HTTP endpoint, built on the content-addressed run cache.
//
// The simulator is deterministic, so every (machine, program) pair is a pure
// function — which makes analyses cacheable and the service horizontally
// boring: POST /v1/analyze runs the Table 3 campaign for the requested
// application (or a user-submitted program spec) through internal/runcache,
// fits the model, and returns the speedup curve and cycle breakdown as JSON.
// Identical requests produce byte-identical response bodies whether they
// were simulated or served from cache. An analysis is a pure function of its
// normalized document, so both routes answer a repeat from one bounded
// response cache right after the quarantine check, before validation,
// pricing or a queue slot; Options.Cache nil disables caching: no run cache
// and no response cache.
//
// The process's P count follows its work (procs.go): the front end runs on
// one P, and an analysis holding a worker slot runs on the CPU budget the
// process started with, which Workers and SimWorkers default to.
// scaltool_serve_procs reports the current count.
//
// The service assumes hostile clients (DESIGN.md §13). Its status-code
// contract, in the order a request meets each gate:
//
//	405 — method other than POST.
//	429 — the server is draining, the admission queue is full, or the
//	      cost ledger is at its budget; Retry-After is derived from the
//	      observed drain rate.
//	400 — the document is not well-formed JSON for the request schema.
//	413 — the document, its dataset, or its predicted cost is over this
//	      server's per-request budget (internal/admission).
//	422 — the document is well-formed but semantically invalid: unknown
//	      app, bad processor count, an over-cap program spec — or a shape
//	      that previously panicked the pipeline and is quarantined.
//	503 — admitted, but no worker freed up within the request deadline.
//	504 — executing, but the analysis exceeded the request deadline.
//	499 — the client closed the request while it waited for a worker or
//	      executed. No live client sees it; it keeps disconnects out of
//	      the 503 and 504 counts.
//	500 — the analysis failed or panicked; a panic is isolated to the
//	      request, counted, and its request shape quarantined.
//
// Every error response is machine-readable: {"error": ..., "code": ...}.
package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime/debug"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"scaltool/internal/admission"
	"scaltool/internal/apps"
	"scaltool/internal/campaign"
	"scaltool/internal/machine"
	"scaltool/internal/obs"
	"scaltool/internal/recipe"
	"scaltool/internal/runcache"
)

// statusClientClosed answers a request whose client went away before the
// answer was ready (nginx's 499; net/http has no name for it).
const statusClientClosed = 499

// DefaultRequestTimeout bounds one analysis when Options.RequestTimeout is
// unset.
const DefaultRequestTimeout = 60 * time.Second

// Options configures a Server.
type Options struct {
	// Workers bounds concurrently executing analyses (0 = the process's CPU
	// budget: the GOMAXPROCS the first Server found, or the one an outside
	// runtime.GOMAXPROCS call set since).
	Workers int
	// QueueDepth bounds analyses admitted beyond the executing ones, waiting
	// for a worker (0 = 2×Workers). A request past Workers+QueueDepth is
	// shed with 429.
	QueueDepth int
	// RequestTimeout is the per-request deadline (0 = DefaultRequestTimeout).
	RequestTimeout time.Duration
	// SimWorkers bounds the concurrent runs inside one analysis that build,
	// load a spill file or simulate (0 = the CPU budget, as for Workers);
	// runs answered from the run cache's memory run inline on the request's
	// goroutine (see campaign.Runner.Workers). With several analysis workers
	// a smaller value keeps one big campaign from starving the rest.
	SimWorkers int
	// Budget bounds what a request, and the server in aggregate, may cost
	// (zero fields take the admission defaults).
	Budget admission.Budget
	// Cache is the shared run cache. nil disables caching: no run cache and
	// no response cache (every request simulates from scratch).
	Cache *runcache.Cache
	// Obs instruments the service: scaltool_serve_* metrics, request logs,
	// and the /metrics endpoint. May be nil.
	Obs *obs.Observer
}

// Server serves the analysis API. Create with New.
type Server struct {
	opts Options

	workers    chan struct{} // executing-analysis slots
	admitted   chan struct{} // admission slots: Workers + QueueDepth
	ledger     *admission.Ledger
	quarantine *fifo[string] // panicking request shapes → the panic
	responses  *fifo[[]byte] // encoded 200 bodies of both routes; nil without Options.Cache
	drain      drainEstimator
	draining   atomic.Bool
	inflight   sync.WaitGroup

	mux   *http.ServeMux
	procs *obs.Gauge // scaltool_serve_procs; nil without metrics

	// testHookRun, when set, runs while the worker slot is held, before the
	// analysis — tests block here to hold the pool at a known occupancy.
	testHookRun func()
}

// New builds a Server.
func New(opts Options) *Server {
	s := &Server{opts: opts}
	mt := s.meter()
	s.procs = mt.Gauge("scaltool_serve_procs", "GOMAXPROCS: the CPU budget while an analysis executes, 1 otherwise")
	ceiling := gov.track(0, s.procs)
	if opts.Workers <= 0 {
		opts.Workers = ceiling
	}
	if opts.QueueDepth <= 0 {
		opts.QueueDepth = 2 * opts.Workers
	}
	// Resolved here, not left to campaign.Runner, so admission prices the
	// concurrency the runner will use.
	if opts.SimWorkers <= 0 {
		opts.SimWorkers = ceiling
	}
	if opts.RequestTimeout <= 0 {
		opts.RequestTimeout = DefaultRequestTimeout
	}
	s.opts = opts
	s.workers = make(chan struct{}, opts.Workers)
	s.admitted = make(chan struct{}, opts.Workers+opts.QueueDepth)
	s.ledger = admission.NewLedger(opts.Budget)
	s.quarantine = newFIFO[string](quarantineCapacity)
	if opts.Cache != nil {
		s.responses = newFIFO[[]byte](responseCacheCapacity)
	}
	s.mux = http.NewServeMux()
	for _, rt := range []*route{
		{s: s, path: "/v1/analyze", minProcs: 1, price: admission.Budget.EstimatePlanContext, run: (*Server).analyze},
		{s: s, path: "/v1/diagnose", keyPrefix: "diag:", minProcs: 2, price: admission.Budget.EstimateDiagnoseContext,
			run: (*Server).diagnose},
	} {
		// Resolved once, so a cached answer takes no registry lock.
		rt.ok = mt.Counter(requestsTotal, requestsHelp, "route", rt.path, "code", "200")
		rt.seconds = mt.RequestSeconds(rt.path)
		if s.responses != nil {
			rt.hit, rt.miss = mt.ResponseCache(rt.path, "hit"), mt.ResponseCache(rt.path, "miss")
		}
		s.mux.Handle(rt.path, rt)
	}
	s.mux.HandleFunc("/v1/healthz", s.handleHealthz)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	return s
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Budget returns the server's effective admission budget.
func (s *Server) Budget() admission.Budget { return s.ledger.Budget() }

// Drain puts the server into shutdown: /v1/healthz reports 503 (so a load
// balancer stops routing here), new analyses are refused with 429 (the
// condition is retryable — against a peer, or here after a restart), and
// Drain blocks until every in-flight analysis finishes or ctx expires. It is
// safe to call more than once.
func (s *Server) Drain(ctx context.Context) error {
	s.draining.Store(true)
	if mt := s.meter(); mt != nil {
		mt.Gauge("scaltool_serve_draining", "1 while the server is draining for shutdown").Set(1)
	}
	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("serve: drain: %w", ctx.Err())
	}
}

func (s *Server) meter() *obs.Metrics {
	if s.opts.Obs == nil {
		return nil
	}
	return s.opts.Obs.Metrics
}

// obsContext installs the server's observer in a request context.
func (s *Server) obsContext(ctx context.Context) context.Context {
	if s.opts.Obs == nil {
		return ctx
	}
	return obs.NewContext(ctx, s.opts.Obs)
}

const (
	requestsTotal = "scaltool_serve_requests_total"
	requestsHelp  = "API requests by route and status code"
)

// countRequest records one finished request in the metrics.
func (s *Server) countRequest(route string, code int, start time.Time) {
	mt := s.meter()
	if mt == nil {
		return
	}
	mt.Counter(requestsTotal, requestsHelp, "route", route, "code", strconv.Itoa(code)).Inc()
	mt.RequestSeconds(route).Observe(time.Since(start).Seconds())
}

// countRejection records a 4xx admission refusal in the rejected-by-status
// family.
func (s *Server) countRejection(code int) {
	if mt := s.meter(); mt != nil {
		mt.ServeRejected(strconv.Itoa(code)).Inc()
	}
}

// apiError is the uniform JSON error body. Code is a stable machine-readable
// cause; Error is for humans.
type apiError struct {
	Error string `json:"error"`
	Code  string `json:"code,omitempty"`
}

// writeError emits the service's uniform JSON error shape.
func writeError(w http.ResponseWriter, status int, code string, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(apiError{Error: fmt.Sprintf(format, args...), Code: code}) //scalvet:ignore error responses run once per failed request, off the steady-state path
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	w.Header().Set("Content-Type", "application/json")
	if s.draining.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, `{"status":"draining"}`)
		s.countRequest("/v1/healthz", http.StatusServiceUnavailable, start)
		return
	}
	fmt.Fprintln(w, `{"status":"ok"}`)
	s.countRequest("/v1/healthz", http.StatusOK, start)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	mt := s.meter()
	if mt == nil {
		http.Error(w, "metrics disabled", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := mt.WritePrometheus(w); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		s.countRequest("/metrics", http.StatusInternalServerError, start)
		return
	}
	s.countRequest("/metrics", http.StatusOK, start)
}

// maxBodyBytes bounds a request document. A plan request is a few hundred
// bytes and a full program spec a few tens of kilobytes; anything near a
// megabyte is garbage.
const maxBodyBytes = 1 << 20

// route is what sets one analysis endpoint apart in the shared request
// pipeline. Both endpoints take the same document and pass the same gates in
// the same order; only these differ.
type route struct {
	s    *Server
	path string
	// keyPrefix namespaces the route's quarantine and response-cache keys:
	// a shape that crashed one pipeline is still served by the other, and
	// the same document gets each route's own body.
	keyPrefix string
	minProcs  int
	// price is the admission estimator of the route's work.
	price func(admission.Budget, context.Context, machine.Config, apps.App, campaign.Plan, int) (admission.Cost, *admission.Rejection)
	// run executes an admitted request and returns the value to encode.
	run func(*Server, context.Context, *Request, *resolved) (any, error)

	// Instruments resolved in New (nil without metrics; hit and miss also
	// nil without the response cache): requests_total{code="200"}, the
	// route's request_seconds, and its response-cache outcomes.
	ok, hit, miss *obs.Counter
	seconds       *obs.Histogram
}

// ServeHTTP serves one request on the route.
func (rt *route) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	// The trace identity travels as a response header, a span attribute and
	// a log field — never in the body, which must stay byte-identical for
	// identical documents.
	rid := obs.ResolveRequestID(r.Header.Get("X-Request-Id"))
	w.Header().Set("X-Request-Id", rid)
	code, ecode, err := rt.s.serve(w, r, rt, rid, start)
	if err != nil {
		writeError(w, code, ecode, "%s", err)
	}
	if code != http.StatusOK {
		rt.s.countRequest(rt.path, code, start)
		return
	}
	rt.ok.Inc()
	rt.seconds.Observe(time.Since(start).Seconds())
}

// decodeRequest decodes and gates one request document, with the shared
// pre-admission refusals: method, draining, body size, malformed JSON
// (trailing data after the document included).
func (s *Server) decodeRequest(w http.ResponseWriter, r *http.Request, req *Request) (int, string, error) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		return http.StatusMethodNotAllowed, "method", fmt.Errorf("use POST")
	}
	if s.draining.Load() {
		if mt := s.meter(); mt != nil {
			mt.ServeShed("drain").Inc()
		}
		w.Header().Set("Retry-After", s.retryAfter())
		return http.StatusTooManyRequests, "draining", fmt.Errorf("server is draining")
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	var tooBig *http.MaxBytesError
	err := dec.Decode(req)
	if err == nil {
		// One document per body: anything but whitespace after it is as
		// malformed as a syntax error inside it.
		if _, err = dec.Token(); err == io.EOF {
			err = nil
		} else if !errors.As(err, &tooBig) {
			err = errors.New("trailing data after the request document")
		}
	}
	if err != nil {
		if errors.As(err, &tooBig) {
			s.countRejection(http.StatusRequestEntityTooLarge)
			return http.StatusRequestEntityTooLarge, "body_too_large",
				fmt.Errorf("request body exceeds %d bytes", tooBig.Limit)
		}
		s.countRejection(http.StatusBadRequest)
		return http.StatusBadRequest, "malformed", fmt.Errorf("decoding request: %v", err)
	}
	return 0, "", nil
}

// admit walks an estimated request through the server's admission gates —
// queue slot, cost ledger, in-flight accounting, request deadline, worker
// slot, in-flight gauge — and returns the execution context plus a release
// function undoing all of it in LIFO order (exactly the defer order the
// gates would have as inline defers). On refusal the partial state is
// already undone and release is nil. The execution context derives from
// parent. rid is the request's trace identity, installed on the context
// for every span and log line downstream.
func (s *Server) admit(parent context.Context, w http.ResponseWriter, cost admission.Cost, rid string) (context.Context, func(), int, string, error) {
	// Admission: a slot in the bounded queue, or immediate shedding. The
	// queue is not worth waiting for — a client retry later IS the queue.
	select {
	case s.admitted <- struct{}{}:
	default:
		if mt := s.meter(); mt != nil {
			mt.ServeShed("queue").Inc()
		}
		w.Header().Set("Retry-After", s.retryAfter())
		return nil, nil, http.StatusTooManyRequests, "overloaded",
			fmt.Errorf("overloaded: %d analyses executing or queued", cap(s.admitted))
	}
	undo := make([]func(), 0, 8)
	undo = append(undo, func() { <-s.admitted })
	release := func() {
		for i := len(undo) - 1; i >= 0; i-- {
			undo[i]()
		}
	}

	// The cost ledger: this request fits its own budget, but does the server
	// have room for it on top of everything else admitted?
	if rej := s.ledger.TryAdmit(cost); rej != nil {
		if mt := s.meter(); mt != nil {
			mt.ServeShed("ledger").Inc()
		}
		w.Header().Set("Retry-After", s.retryAfter())
		release()
		return nil, nil, rej.Status, rej.Code, rej
	}
	// Undone in reverse: the release runs first, so the gauges publish the
	// occupancy without this request.
	undo = append(undo, s.publishLedger, func() { s.ledger.Release(cost) })
	s.publishLedger()

	s.inflight.Add(1)
	undo = append(undo, s.inflight.Done)
	undo = append(undo, func() { s.drain.observe(time.Now()) })

	ctx, cancel := context.WithTimeout(parent, s.opts.RequestTimeout)
	undo = append(undo, cancel)
	ctx = s.obsContext(ctx)
	if rid != "" {
		ctx = obs.WithRequestID(ctx, rid)
		ctx = obs.WithLogger(ctx, obs.Log(ctx).With("req_id", rid))
	}

	// A worker slot: the analysis itself is CPU-bound, so only Workers of
	// them may execute at once. Waiting burns the request's own deadline.
	select {
	case s.workers <- struct{}{}:
	case <-ctx.Done():
		release()
		if !errors.Is(ctx.Err(), context.DeadlineExceeded) {
			return nil, nil, statusClientClosed, "client_closed",
				fmt.Errorf("client closed the request while it waited for a worker")
		}
		return nil, nil, http.StatusServiceUnavailable, "no_worker",
			fmt.Errorf("timed out waiting for a worker: %v", ctx.Err())
	}
	undo = append(undo, func() { <-s.workers })
	gov.track(1, s.procs)
	undo = append(undo, func() { gov.track(-1, s.procs) })

	if mt := s.meter(); mt != nil {
		g := mt.Gauge("scaltool_serve_inflight", "analyses currently executing")
		g.Add(1)
		undo = append(undo, func() { g.Add(-1) })
	}
	return ctx, release, 0, "", nil
}

// serve handles one request on rt; it reports the response status and, for
// non-2xx, the machine-readable code and error to send (nil error when the
// response was already written). The gate order is decode → defaults and
// document key → quarantine → response cache → validate (minimum procs and
// plan included) → estimate → admit → isolated run → encode. A body is
// cached only after this server validated and priced that exact normalized
// document and answered 200, and validation and pricing are pure functions
// of the document under a budget fixed at New, so a hit skips no refusal it
// would otherwise draw and builds no plan; every other refusal still comes
// before the request may occupy a queue slot.
func (s *Server) serve(w http.ResponseWriter, r *http.Request, rt *route, rid string, start time.Time) (int, string, error) {
	var req Request
	if code, ecode, err := s.decodeRequest(w, r, &req); err != nil {
		return code, ecode, err
	}

	req.applyDefaults()
	key := rt.keyPrefix + requestKey(&req)
	if reason, ok := s.quarantine.get(key); ok {
		if mt := s.meter(); mt != nil {
			mt.ServeQuarantined().Inc()
		}
		s.countRejection(http.StatusUnprocessableEntity)
		return http.StatusUnprocessableEntity, "quarantined",
			fmt.Errorf("an identical request previously crashed the %s pipeline (%s); refusing to repeat it", rt.path, reason)
	}
	if s.responses != nil {
		if body, ok := s.responses.get(key); ok {
			rt.hit.Inc()
			writeBody(w, body)
			return http.StatusOK, "", nil
		}
		rt.miss.Inc()
	}

	// Validation and admission: semantic checks (422), then predicted cost
	// against the per-request budget (413).
	rv, rej := s.validate(&req, rt)
	if rej != nil {
		s.countRejection(rej.Status)
		return rej.Status, rej.Code, rej
	}
	// The programs pricing builds on first sight ride to this request's
	// runs in a hold on its context, and go with the request.
	hctx := recipe.WithHold(r.Context())
	cost, rej := s.estimate(hctx, rt, rv)
	if rej != nil {
		s.countRejection(rej.Status)
		return rej.Status, rej.Code, rej
	}

	ctx, release, code, ecode, err := s.admit(hctx, w, cost, rid)
	if err != nil {
		return code, ecode, err
	}
	defer release()

	out, err := s.runIsolated(ctx, rt, &req, rv, key)
	if err != nil {
		return s.triageExecError(ctx, &req, err)
	}
	// encoding/json is deterministic over struct fields (fixed order,
	// shortest-round-trip floats): that is what makes "cached and fresh
	// responses are byte-identical" testable.
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(out); err != nil {
		return http.StatusInternalServerError, "failed", fmt.Errorf("encoding response: %v", err)
	}
	body := buf.Bytes()
	if s.responses != nil {
		s.responses.put(key, body)
	}
	writeBody(w, body)
	obs.Log(ctx).Info("request served", "route", rt.path, "app", req.Ident(), "procs", req.Procs, "elapsed", time.Since(start))
	return http.StatusOK, "", nil
}

// estimate prices the resolved request with rt's estimator and gates it
// against the per-request budget (the ledger gates the per-server one at
// admission).
func (s *Server) estimate(ctx context.Context, rt *route, rv *resolved) (admission.Cost, *admission.Rejection) {
	budget := s.Budget()
	cost, rej := rt.price(budget, s.obsContext(ctx), rv.cfg, rv.app, rv.plan, s.opts.SimWorkers)
	if rej == nil {
		rej = budget.CheckRequest(cost)
	}
	return cost, rej
}

// triageExecError maps an execution failure to the status contract: an
// isolated panic is a 500 "panic" (the shape is already quarantined), a
// blown deadline a 504, a client that went away a 499, anything else a
// 500 "failed".
func (s *Server) triageExecError(ctx context.Context, req *Request, err error) (int, string, error) {
	var pf *panicFault
	if errors.As(err, &pf) {
		obs.Log(ctx).Error("analysis panicked", "app", req.Ident(), "panic", pf.value)
		return http.StatusInternalServerError, "panic",
			fmt.Errorf("analysis panicked; this request shape is now quarantined")
	}
	if errors.Is(ctx.Err(), context.DeadlineExceeded) {
		return http.StatusGatewayTimeout, "deadline",
			fmt.Errorf("analysis exceeded its %s deadline", s.opts.RequestTimeout)
	}
	if ctx.Err() != nil {
		return statusClientClosed, "client_closed", fmt.Errorf("client closed the request during the analysis")
	}
	obs.Log(ctx).Error("analysis failed", "app", req.Ident(), "err", err)
	return http.StatusInternalServerError, "failed", fmt.Errorf("analysis failed: %v", err)
}

// writeBody sends a fully-built 200 response body.
func writeBody(w http.ResponseWriter, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body)
}

// panicFault wraps a recovered analysis panic as an error; the stack goes
// to the quarantine log, not here.
type panicFault struct {
	value any
}

func (p *panicFault) Error() string { return fmt.Sprintf("analysis panicked: %v", p.value) }

// runIsolated runs rt's pipeline with panic isolation: a panic anywhere in
// the handler's half of the pipeline (campaign worker panics are already
// recovered by the campaign and surface as errors) is converted to a
// *panicFault instead of killing the daemon, counted, and its request shape
// quarantined so a repeat is refused cheaply with 422.
func (s *Server) runIsolated(ctx context.Context, rt *route, req *Request, rv *resolved, qkey string) (out any, err error) {
	defer func() {
		if r := recover(); r != nil {
			s.quarantinePanic(ctx, qkey, r, debug.Stack())
			out, err = nil, &panicFault{value: r}
		}
	}()
	// The test hook runs inside the isolation scope: tests use it both to
	// hold a worker slot at a known occupancy and to simulate a panic.
	if s.testHookRun != nil {
		s.testHookRun()
	}
	out, err = rt.run(s, ctx, req, rv)
	// A campaign worker goroutine's panic is recovered off-handler and
	// surfaces here as a *campaign.PanicError; treat it exactly like a
	// same-goroutine panic.
	var pe interface{ PanicValue() (any, []byte) }
	if errors.As(err, &pe) {
		v, stack := pe.PanicValue()
		s.quarantinePanic(ctx, qkey, v, stack)
		return nil, &panicFault{value: v}
	}
	return out, err
}

// quarantinePanic counts an isolated panic and quarantines its request
// shape so a repeat is refused cheaply with 422.
func (s *Server) quarantinePanic(ctx context.Context, qkey string, value any, stack []byte) {
	if mt := s.meter(); mt != nil {
		mt.ServePanics().Inc()
	}
	s.quarantine.put(qkey, fmt.Sprintf("panic: %v", value)) //scalvet:ignore runs once per panicking request, off the steady-state path
	obs.Log(ctx).Error("quarantined panicking request shape", "key", qkey, "panic", value, "stack", string(stack))
}

// requestKey is the identity of a request document: a 128-bit digest of
// its normalized (defaults applied) form, so the same shape is recognized
// however it arrives. It keys the quarantine and the response cache.
func requestKey(req *Request) string {
	doc, _ := json.Marshal(req)
	sum := sha256.Sum256(doc)
	return hex.EncodeToString(sum[:16])
}

// publishLedger exports the ledger occupancy gauges.
func (s *Server) publishLedger() {
	mt := s.meter()
	if mt == nil {
		return
	}
	cycles, bytes, _ := s.ledger.InFlight()
	mt.AdmittedCycles().Set(cycles)
	mt.AdmittedBytes().Set(float64(bytes))
}

// drainEstimator tracks the observed inter-completion gap of analyses (an
// EWMA) so 429s can tell clients when a slot will plausibly be free instead
// of quoting a constant.
type drainEstimator struct {
	mu          sync.Mutex
	lastDone    time.Time
	avgInterval float64 // seconds between completions
}

// observe records one request completion.
func (d *drainEstimator) observe(now time.Time) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if !d.lastDone.IsZero() {
		gap := now.Sub(d.lastDone).Seconds()
		if d.avgInterval == 0 {
			d.avgInterval = gap
		} else {
			d.avgInterval = 0.7*d.avgInterval + 0.3*gap
		}
	}
	d.lastDone = now
}

// interval returns the estimated seconds between completions, or 0 before
// any completion pair has been observed.
func (d *drainEstimator) interval() float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.avgInterval
}

// coldStartRetrySecs is the Retry-After quoted while the drain estimator
// has no data (fewer than two completions since startup). The EWMA needs a
// completion *pair* before it can predict anything; quoting half the
// request deadline there — up to 30s under the defaults — told the very
// first burst of shed clients to go away for ages when the realistic wait
// was one analysis. A short optimistic floor is the right cold-start bias:
// a too-early retry costs one cheap 429, a too-late one idles the server.
const coldStartRetrySecs = 2

// retryAfterSecs converts queue occupancy and the observed drain rate into a
// Retry-After hint: the predicted time for the queue's head room to open up,
// clamped to [1, fallback/2]. With no observations yet (cold start) it
// returns coldStartRetrySecs, still clamped to the same ceiling.
func retryAfterSecs(occupancy int, interval float64, fallback time.Duration) int {
	max := int(fallback.Seconds() / 2)
	if max < 1 {
		max = 1
	}
	if interval <= 0 {
		if coldStartRetrySecs < max {
			return coldStartRetrySecs
		}
		return max
	}
	secs := int(math.Ceil(interval * float64(occupancy+1)))
	if secs < 1 {
		secs = 1
	}
	if secs > max {
		secs = max
	}
	return secs
}

// retryAfter renders the derived Retry-After header value for a 429.
func (s *Server) retryAfter() string {
	return strconv.Itoa(retryAfterSecs(len(s.admitted), s.drain.interval(), s.opts.RequestTimeout))
}
