package fleet

import (
	"context"
	"net/http"
	"time"
)

// Health probing keeps each member's up bit, the router's only liveness
// state about a replica. A failed attempt clears the bit at once
// (attemptFailed); a background GET /v1/healthz per replica per
// ProbeInterval sets it again once the replica answers, and clears it for
// a draining or dead replica before any client request pays the discovery
// cost. rank() places every down replica after every up one.

// StartProber begins background health probing; it returns immediately and
// stops when ctx is canceled. All members are probed concurrently — one
// hung replica must not delay the verdict on the others.
func (rt *Router) StartProber(ctx context.Context) {
	go func() {
		rt.probeAll(ctx)
		t := time.NewTicker(rt.opts.ProbeInterval)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
				rt.probeAll(ctx)
			}
		}
	}()
}

func (rt *Router) probeAll(ctx context.Context) {
	members := rt.snapshot()
	done := make(chan struct{}, len(members))
	for _, m := range members {
		go func(m *member) {
			defer func() { done <- struct{}{} }()
			rt.probe(ctx, m)
		}(m)
	}
	for range members {
		<-done
	}
}

// probe runs one health check and updates the member's verdict. A replica
// that answers anything but 200 — including the drain contract's 503 — is
// down for routing purposes; its slot URL staying bound means it may still
// be tried as a last resort.
func (rt *Router) probe(ctx context.Context, m *member) {
	url := m.currentURL()
	if url == "" {
		m.up.Store(false)
		rt.publishUp(m)
		return
	}
	pctx, cancel := context.WithTimeout(ctx, min(rt.opts.ProbeInterval, 2*time.Second))
	defer cancel()
	req, err := http.NewRequestWithContext(pctx, http.MethodGet, url+"/v1/healthz", nil)
	if err != nil {
		m.up.Store(false)
		rt.publishUp(m)
		return
	}
	resp, err := rt.hc.Do(req)
	if err != nil {
		m.up.Store(false)
		rt.publishUp(m)
		return
	}
	resp.Body.Close()
	m.up.Store(resp.StatusCode == http.StatusOK)
	rt.publishUp(m)
}

func (rt *Router) publishUp(m *member) {
	mt := rt.meter()
	if mt == nil {
		return
	}
	v := 0.0
	if m.up.Load() {
		v = 1
	}
	mt.Gauge("scaltool_fleet_replica_up", "1 while the replica answers health probes", "replica", m.name).Set(v)
}
