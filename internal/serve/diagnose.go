package serve

import (
	"context"

	"scaltool/internal/campaign"
	"scaltool/internal/diagnose"
)

// POST /v1/diagnose: the root-cause endpoint. It takes the same request
// document as /v1/analyze (raw_tm is ignored — diagnosis reads the
// simulator's ground truth, not the fitted model), runs the campaign's
// base-run sweep through the shared run cache, overlays the per-region
// attribution on the program structure graph, and returns the ranked
// culprit report (diagnose.Report). Identical requests get byte-identical
// bodies; a repeat is answered from the server's response cache, which
// both routes share (fifo.go).

// diagnose runs the full pipeline for one resolved request: campaign
// (through the shared run cache) → attribution family → structure graph →
// ranked report, self-verified before anything is sent.
//
// The route handler reaches it through the route table, which the
// static call graph cannot follow, so it is marked a hot root itself:
//
//scalvet:hot
func (s *Server) diagnose(ctx context.Context, req *Request, rv *resolved) (any, error) {
	rn := &campaign.Runner{
		Cfg:     rv.cfg,
		Workers: s.opts.SimWorkers,
		Cache:   s.opts.Cache,
	}
	res, err := rn.Execute(ctx, rv.app, rv.plan)
	if err != nil {
		return nil, err
	}
	rep, err := diagnose.Campaign(ctx, rv.app, res)
	if err != nil {
		return nil, err
	}
	// Name the workload as the request named it (a user program diagnoses
	// as "user:<name>", matching /v1/analyze responses).
	rep.App = req.Ident()
	rep.Machine = req.Machine
	return rep, nil
}
