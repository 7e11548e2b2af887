package fleet

import (
	"context"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"scaltool/internal/obs"
)

// The supervisor keeps N replica slots populated, a watchdog over
// processes: watch for death, probe for hangs, kill what is wedged, respawn
// with backoff, and tell the router where the replacement lives. A slot's NAME is stable
// across restarts (slot 0 is always "replica-0"), so the rendezvous hash
// keeps routing a key to the same slot and the replacement inherits the
// dead instance's share of the keyspace — whose spilled cache entries it
// finds already on disk when the fleet shares a -run-cache-dir.

// Handle is one live replica instance under supervision. LocalReplica and
// ExecReplica implement it.
type Handle interface {
	// URL is the instance's base URL.
	URL() string
	// Done is closed when the instance stops serving, however it died.
	Done() <-chan struct{}
	// Kill terminates the instance immediately (SIGKILL semantics).
	Kill()
}

// shutdowner is optionally implemented by handles that support a graceful
// stop; the supervisor prefers it to Kill on a clean context cancel.
type shutdowner interface {
	Shutdown(ctx context.Context) error
}

// SlotName names a supervised slot — the replica's stable rendezvous
// identity.
func SlotName(slot int) string { return "replica-" + strconv.Itoa(slot) }

// Supervisor restarts dead or hung replica instances.
type Supervisor struct {
	// Spawn starts a new instance for a slot. Required.
	Spawn func(slot int) (Handle, error)
	// Notify reports a slot's current URL ("" = instance down) — wire this
	// to Router.SetReplicaURL. May be nil.
	Notify func(slot int, url string)
	// HeartbeatInterval is the liveness-probe period (0 = 250ms).
	HeartbeatInterval time.Duration
	// HeartbeatMisses is how many consecutive failed probes declare an
	// instance hung and kill it (0 = 4).
	HeartbeatMisses int
	// RestartBackoff is the pause before respawning a dead instance
	// (0 = 100ms) — enough to keep a crash loop from burning a core,
	// short enough that a key's owner is back well inside a second.
	RestartBackoff time.Duration
	// Obs counts restarts. May be nil.
	Obs *obs.Observer
}

func (sv *Supervisor) withDefaults() Supervisor {
	out := *sv
	if out.HeartbeatInterval <= 0 {
		out.HeartbeatInterval = 250 * time.Millisecond
	}
	if out.HeartbeatMisses <= 0 {
		out.HeartbeatMisses = 4
	}
	if out.RestartBackoff <= 0 {
		out.RestartBackoff = 100 * time.Millisecond
	}
	return out
}

// Run supervises `slots` replica slots until ctx is canceled, then stops
// every live instance (gracefully where the handle supports it) and
// returns. An error is returned only if a slot could never be started.
func (sv *Supervisor) Run(ctx context.Context, slots int) error {
	cfg := sv.withDefaults()
	if cfg.Spawn == nil {
		return fmt.Errorf("fleet: Supervisor.Spawn is required")
	}
	errs := make(chan error, slots)
	for slot := 0; slot < slots; slot++ {
		go cfg.runSlot(ctx, slot, errs)
	}
	var firstErr error
	for i := 0; i < slots; i++ {
		if err := <-errs; err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// runSlot is one slot's lifecycle loop: spawn → announce → watch → mourn →
// backoff → respawn, until the context ends.
func (sv *Supervisor) runSlot(ctx context.Context, slot int, done chan<- error) {
	first := true
	for {
		if ctx.Err() != nil {
			done <- nil
			return
		}
		h, err := sv.Spawn(slot)
		if err != nil {
			if first && ctx.Err() == nil {
				// A slot that cannot start even once is a configuration
				// error, not a fault to ride through. One that shutdown
				// cut short is neither: the loop top ends the slot.
				done <- fmt.Errorf("fleet: slot %d: %w", slot, err)
				return
			}
			sv.sleep(ctx, sv.RestartBackoff)
			continue
		}
		first = false
		if sv.Notify != nil {
			sv.Notify(slot, h.URL())
		}

		died := sv.watch(ctx, slot, h)
		if sv.Notify != nil {
			sv.Notify(slot, "")
		}
		if !died {
			// Context over: stop the healthy instance and exit the loop.
			sv.stop(h)
			done <- nil
			return
		}
		if mt := sv.meter(); mt != nil {
			mt.Counter("scaltool_fleet_restarts_total", "replica instances restarted by the supervisor",
				"slot", strconv.Itoa(slot)).Inc()
		}
		sv.sleep(ctx, sv.RestartBackoff)
	}
}

// watch blocks until the instance dies (true) or the context ends (false).
// Death is either the instance exiting on its own (Done closes) or failing
// HeartbeatMisses consecutive health probes — a hung process looks exactly
// like this, and the only cure is a kill.
func (sv *Supervisor) watch(ctx context.Context, slot int, h Handle) bool {
	t := time.NewTicker(sv.HeartbeatInterval)
	defer t.Stop()
	misses := 0
	for {
		select {
		case <-ctx.Done():
			return false
		case <-h.Done():
			return true
		case <-t.C:
			if sv.heartbeat(ctx, h.URL()) {
				misses = 0
				continue
			}
			misses++
			if misses >= sv.HeartbeatMisses {
				h.Kill()
				<-h.Done()
				return true
			}
		}
	}
}

// heartbeat reports whether one health probe succeeded. A draining 503
// counts as alive — the instance is shutting down deliberately; Done will
// close when it actually exits.
func (sv *Supervisor) heartbeat(ctx context.Context, url string) bool {
	pctx, cancel := context.WithTimeout(ctx, sv.HeartbeatInterval)
	defer cancel()
	req, err := http.NewRequestWithContext(pctx, http.MethodGet, url+"/v1/healthz", nil)
	if err != nil {
		return false
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return false
	}
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusServiceUnavailable
}

// stop ends a live instance at context teardown, draining if it can.
func (sv *Supervisor) stop(h Handle) {
	if s, ok := h.(shutdowner); ok {
		sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if s.Shutdown(sctx) == nil {
			return
		}
	}
	h.Kill()
	<-h.Done()
}

func (sv *Supervisor) sleep(ctx context.Context, d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
	case <-t.C:
	}
}

func (sv *Supervisor) meter() *obs.Metrics {
	if sv.Obs == nil {
		return nil
	}
	return sv.Obs.Metrics
}
