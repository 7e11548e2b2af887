package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime/debug"
	"sync"
	"time"

	"scaltool/internal/admission"
	"scaltool/internal/campaign"
	"scaltool/internal/diagnose"
	"scaltool/internal/obs"
	"scaltool/internal/recipe"
)

// POST /v1/diagnose: the root-cause endpoint. It takes the same request
// document as /v1/analyze (raw_tm is ignored — diagnosis reads the
// simulator's ground truth, not the fitted model), runs the campaign's
// base-run sweep through the shared run cache, overlays the per-region
// attribution on the program structure graph, and returns the ranked
// culprit report (diagnose.Report). Identical requests get byte-identical
// bodies, served from a bounded response cache keyed by the normalized
// document — a hit costs no admission slot and no simulation.

// diagCacheCapacity bounds the remembered diagnose response bodies. A
// report for a 32-processor campaign is a few tens of kilobytes, so the
// cache tops out around a few megabytes.
const diagCacheCapacity = 256

// responseCache is a bounded FIFO map of encoded response bodies, keyed by
// the content address of the normalized request document.
type responseCache struct {
	mu    sync.Mutex
	items map[string][]byte
	order []string
}

func (c *responseCache) get(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	b, ok := c.items[key]
	return b, ok
}

func (c *responseCache) put(key string, body []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.items == nil {
		c.items = make(map[string][]byte, diagCacheCapacity)
	}
	if _, ok := c.items[key]; ok {
		return
	}
	if len(c.order) >= diagCacheCapacity {
		delete(c.items, c.order[0])
		c.order = c.order[1:]
	}
	c.items[key] = body
	c.order = append(c.order, key)
}

// diagnoseCacheKey is the response-cache identity of a normalized
// (post-validate, defaults applied) request document, version-prefixed so
// a report-format change never serves stale bodies across an upgrade.
func diagnoseCacheKey(req *Request) string {
	doc, _ := json.Marshal(req)
	h := sha256.New()
	h.Write([]byte("scaltool-diagnose-v1\x00"))
	h.Write(doc)
	return hex.EncodeToString(h.Sum(nil)[:16])
}

func (s *Server) handleDiagnose(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	rid := requestID(r)
	w.Header().Set("X-Request-Id", rid)
	code, ecode, err := s.serveDiagnose(w, r, rid, start)
	if err != nil {
		writeError(w, code, ecode, "%s", err)
	}
	s.countRequest("/v1/diagnose", code, start)
}

// serveDiagnose handles one diagnosis request, mirroring serveAnalyze's
// gate order; the response cache sits after validation (the key is the
// normalized document) and before admission (a hit must not burn a queue
// slot or ledger budget).
func (s *Server) serveDiagnose(w http.ResponseWriter, r *http.Request, rid string, start time.Time) (int, string, error) {
	var req Request
	if code, ecode, err := s.decodeRequest(w, r, &req); err != nil {
		return code, ecode, err
	}
	rv, rej := s.validate(&req)
	if rej != nil {
		s.countRejection(rej.Status)
		return rej.Status, rej.Code, rej
	}
	if req.Procs < 2 {
		s.countRejection(http.StatusUnprocessableEntity)
		return http.StatusUnprocessableEntity, "bad_procs",
			fmt.Errorf("diagnosis needs a multiprocessor sweep; \"procs\" must be ≥ 2")
	}
	qkey := "diag:" + requestKey(&req)
	if reason, ok := s.quarantine.Lookup(qkey); ok {
		if mt := s.meter(); mt != nil {
			mt.ServeQuarantined().Inc()
		}
		s.countRejection(http.StatusUnprocessableEntity)
		return http.StatusUnprocessableEntity, "quarantined",
			fmt.Errorf("an identical request previously crashed the diagnosis pipeline (%s); refusing to repeat it", reason)
	}
	cost, rej := s.estimateDiagnose(r.Context(), rv)
	if rej != nil {
		s.countRejection(rej.Status)
		return rej.Status, rej.Code, rej
	}

	ckey := diagnoseCacheKey(&req)
	if body, ok := s.diagCache.get(ckey); ok {
		if mt := s.meter(); mt != nil {
			mt.DiagnoseCache("hit").Inc()
		}
		writeBody(w, body)
		return http.StatusOK, "", nil
	}
	if mt := s.meter(); mt != nil {
		mt.DiagnoseCache("miss").Inc()
	}

	ctx, release, code, ecode, err := s.admit(w, r, cost, rid)
	if err != nil {
		return code, ecode, err
	}
	defer release()

	rep, err := s.diagnoseIsolated(ctx, &req, rv, qkey)
	if err != nil {
		return s.triageExecError(ctx, &req, err)
	}
	body, err := encodeReport(rep)
	if err != nil {
		return http.StatusInternalServerError, "failed", fmt.Errorf("encoding report: %v", err)
	}
	s.diagCache.put(ckey, body)
	writeBody(w, body)
	obs.Log(ctx).Info("diagnosis served", "app", req.Ident(), "procs", req.Procs,
		"culprits", len(rep.Culprits), "elapsed", time.Since(start))
	return http.StatusOK, "", nil
}

// estimateDiagnose prices the resolved request against the per-request
// budget, with the diagnosis surcharge on top of the plain campaign.
func (s *Server) estimateDiagnose(ctx context.Context, rv *resolved) (admission.Cost, *admission.Rejection) {
	budget := s.Budget()
	cost, rej := budget.EstimateDiagnoseContext(s.obsContext(ctx), rv.cfg, rv.app, rv.plan, s.opts.SimWorkers)
	if rej != nil {
		return admission.Cost{}, rej
	}
	if rej := budget.CheckRequest(cost); rej != nil {
		return admission.Cost{}, rej
	}
	return cost, nil
}

// diagnoseIsolated runs the diagnosis with the same panic isolation as
// analyzeIsolated: a panic is converted to *panicFault and the request
// shape quarantined instead of killing the daemon.
func (s *Server) diagnoseIsolated(ctx context.Context, req *Request, rv *resolved, qkey string) (rep *diagnose.Report, err error) {
	defer func() {
		if r := recover(); r != nil {
			s.quarantinePanic(ctx, qkey, r, debug.Stack())
			rep, err = nil, &panicFault{value: r, stack: debug.Stack()}
		}
	}()
	if s.testHookRun != nil {
		s.testHookRun()
	}
	rep, err = s.diagnose(ctx, req, rv)
	var pe interface{ PanicValue() (any, []byte) }
	if errors.As(err, &pe) {
		v, stack := pe.PanicValue()
		s.quarantinePanic(ctx, qkey, v, stack)
		return nil, &panicFault{value: v, stack: stack}
	}
	return rep, err
}

// diagnose runs the full pipeline for one resolved request: campaign
// (through the shared run cache) → attribution family → structure graph →
// ranked report, self-verified before anything is sent.
func (s *Server) diagnose(ctx context.Context, req *Request, rv *resolved) (*diagnose.Report, error) {
	rn := &campaign.Runner{
		Cfg:     rv.cfg,
		Workers: s.opts.SimWorkers,
		Cache:   s.opts.Cache,
	}
	res, err := rn.Execute(ctx, rv.app, rv.plan)
	if err != nil {
		return nil, err
	}
	fam, err := diagnose.FromCampaign(res)
	if err != nil {
		return nil, err
	}
	nmax := rv.plan.ProcCounts[len(rv.plan.ProcCounts)-1]
	prog, err := recipe.ForApp(rv.app, rv.cfg, nmax, rv.plan.S0).Build(ctx, recipe.CauseGraph)
	if err != nil {
		return nil, fmt.Errorf("building structure graph: %w", err)
	}
	rep, err := diagnose.Run(ctx, diagnose.BuildGraph(prog), fam, diagnose.Options{})
	if err != nil {
		return nil, err
	}
	// Name the workload as the request named it (a user program diagnoses
	// as "user:<name>", matching /v1/analyze responses).
	rep.App = req.Ident()
	rep.Machine = req.Machine
	if err := rep.Verify(); err != nil {
		return nil, fmt.Errorf("report failed self-verification: %w", err)
	}
	return rep, nil
}

// encodeReport serializes a report; like encodeResponse it relies on
// encoding/json's deterministic struct encoding for byte-identical bodies.
func encodeReport(rep *diagnose.Report) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	if err := enc.Encode(rep); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
