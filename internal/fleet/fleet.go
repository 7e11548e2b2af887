// Package fleet turns N scaltoold replicas into one fault-tolerant analysis
// service.
//
// The pieces, bottom up:
//
//   - Router: an HTTP front tier for /v1/analyze and /v1/diagnose. Requests
//     are placed by rendezvous hashing on the digest of the normalized
//     document (serve.RoutingKey), the key each replica's response cache
//     already uses, so an identical document always lands on the replica
//     that answered it before. Each replica carries one
//     liveness state, an up bit: the prober (prober.go) keeps it current,
//     and a failed attempt clears it at once. Down replicas rank after up
//     ones; a refused or unreachable replica fails over to the next in
//     hash order, one attempt at a time. The simulator is deterministic,
//     so every forwarded request is idempotent and byte-identical across
//     replicas — failover can never change an answer, only deliver it.
//
//   - Supervisor: keeps N replica slots alive. Each slot watches its
//     instance's exit and probes its health on a heartbeat; a dead or hung
//     replica is killed and respawned with backoff, and the router learns
//     the replacement's URL through SetReplicaURL.
//
//   - Handles: LocalReplica runs a real serve.Server in-process (the chaos
//     tests' replica; Kill severs in-flight connections exactly like a
//     SIGKILL), ExecReplica supervises a real scaltoold child process, and
//     StartStub answers with a digest of the document, so a router test
//     needs no simulator behind it.
//
// The router mirrors internal/serve's shutdown contract: Drain flips
// /v1/healthz to 503, refuses new work with a retryable 429, and waits for
// in-flight forwards to finish.
package fleet

import (
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"scaltool/internal/obs"
)

// Replica names one backend of the fleet. Name is the stable rendezvous
// identity — it must survive restarts (the replacement instance inherits
// the dead one's cache-key ownership); URL is where the current instance
// listens, and changes on every restart.
type Replica struct {
	Name string
	URL  string
}

// Options configures a Router. The zero value of every field selects a
// sensible default.
type Options struct {
	// Replicas is the initial fleet membership. More can join later via
	// SetReplicaURL (the supervisor's restart path).
	Replicas []Replica
	// ProbeInterval is the health-probe period (0 = 500ms). One probe is
	// bounded by the interval, capped at 2s.
	ProbeInterval time.Duration
	// ForwardTimeout bounds one forwarded attempt (0 = 90s: a shade over
	// the replica's own 60s request deadline, so the replica's 504 wins).
	ForwardTimeout time.Duration
	// Obs instruments the router (scaltool_fleet_* metrics). May be nil.
	Obs *obs.Observer
}

func (o *Options) withDefaults() Options {
	out := *o
	if out.ProbeInterval <= 0 {
		out.ProbeInterval = 500 * time.Millisecond
	}
	if out.ForwardTimeout <= 0 {
		out.ForwardTimeout = 90 * time.Second
	}
	return out
}

// member is one replica's live state inside the router.
type member struct {
	name string
	url  atomic.Value // string; "" while the slot has no instance
	up   atomic.Bool  // last probe verdict, cleared by a failed attempt
}

func (m *member) currentURL() string {
	if u, ok := m.url.Load().(string); ok {
		return u
	}
	return ""
}

// Router is the fleet's front tier. Create with NewRouter; safe for
// concurrent use.
type Router struct {
	opts Options
	// hc carries forwards and probes. The default transport keeps only 2
	// idle conns per host — under a load burst every extra concurrent
	// forward would pay a fresh TCP handshake to the same replica. Pool
	// generously; replicas are few.
	hc *http.Client

	mu      sync.RWMutex
	members []*member

	draining atomic.Bool
	inflight sync.WaitGroup
	mux      *http.ServeMux
}

// NewRouter builds a Router over the given replicas. Call StartProber to
// begin health probing; without it a replica that fails an attempt ranks
// last until SetReplicaURL rebinds it, and is still tried after every up
// replica.
func NewRouter(opts Options) *Router {
	rt := &Router{
		opts: opts.withDefaults(),
		hc: &http.Client{Transport: &http.Transport{
			MaxIdleConns:        256,
			MaxIdleConnsPerHost: 64,
			IdleConnTimeout:     90 * time.Second,
		}},
	}
	for _, r := range rt.opts.Replicas {
		rt.addMember(r.Name, r.URL)
	}
	rt.mux = http.NewServeMux()
	rt.mux.HandleFunc("/v1/analyze", rt.handleProxy)
	rt.mux.HandleFunc("/v1/diagnose", rt.handleProxy)
	rt.mux.HandleFunc("/v1/healthz", rt.handleHealthz)
	rt.mux.HandleFunc("/metrics", rt.handleMetrics)
	return rt
}

// Handler returns the router's HTTP handler.
func (rt *Router) Handler() http.Handler { return rt.mux }

func (rt *Router) addMember(name, url string) *member {
	m := &member{name: name}
	m.url.Store(url)
	m.up.Store(true)
	rt.mu.Lock()
	rt.members = append(rt.members, m)
	rt.mu.Unlock()
	return m
}

// SetReplicaURL rebinds a replica name to a new instance URL — the
// supervisor calls this after every restart. An empty URL marks the slot
// instanceless (requests skip it until the replacement arrives). A fresh
// URL marks the slot up: the new instance has not earned the old one's
// failures.
func (rt *Router) SetReplicaURL(name, url string) {
	rt.mu.RLock()
	var m *member
	for _, cand := range rt.members {
		if cand.name == name {
			m = cand
			break
		}
	}
	rt.mu.RUnlock()
	if m == nil {
		if url == "" {
			return
		}
		rt.addMember(name, url)
		return
	}
	m.url.Store(url)
	if url == "" {
		m.up.Store(false)
		return
	}
	m.up.Store(true)
	if mt := rt.meter(); mt != nil {
		mt.Gauge("scaltool_fleet_replica_up", "1 while the replica answers health probes", "replica", name).Set(1)
	}
}

// snapshot returns the current membership.
func (rt *Router) snapshot() []*member {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	out := make([]*member, len(rt.members))
	copy(out, rt.members)
	return out
}

func (rt *Router) meter() *obs.Metrics {
	if rt.opts.Obs == nil {
		return nil
	}
	return rt.opts.Obs.Metrics
}
