package fleet

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"net"
	"net/http"

	"scaltool/internal/serve"
)

// Replica handles for tests. A LocalReplica is a real
// serve.Server on a real TCP listener — the full scaltoold data path minus
// the process boundary — with the two process-level fates a supervisor
// must handle exposed as methods: Kill is the SIGKILL analog (the listener
// and every in-flight connection are severed mid-byte), Shutdown is the
// SIGTERM analog (drain, then graceful close). The chaos tests run the
// whole fleet stack against these, which keeps the kill/restart loop fast
// enough to run hundreds of cycles under the race detector.

// LocalReplica is an in-process scaltoold-equivalent instance.
type LocalReplica struct {
	url  string
	srv  *http.Server
	app  *serve.Server
	done chan struct{}
}

// StartLocal starts a replica on addr ("" = an ephemeral localhost port).
func StartLocal(opts serve.Options, addr string) (*LocalReplica, error) {
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	app := serve.New(opts)
	r := &LocalReplica{
		url:  "http://" + ln.Addr().String(),
		srv:  &http.Server{Handler: app.Handler()},
		app:  app,
		done: make(chan struct{}),
	}
	go func() {
		defer close(r.done)
		_ = r.srv.Serve(ln)
	}()
	return r, nil
}

// URL returns the instance's base URL.
func (r *LocalReplica) URL() string { return r.url }

// Done is closed once the instance has stopped serving.
func (r *LocalReplica) Done() <-chan struct{} { return r.done }

// Kill is the SIGKILL analog: the listener and all live connections are
// closed immediately; in-flight requests see a reset.
func (r *LocalReplica) Kill() { _ = r.srv.Close() }

// Shutdown is the SIGTERM analog: drain the service (healthz 503, new work
// refused retryably, in-flight analyses finish), then close the listener
// gracefully — the ordering scaltoold itself performs on SIGTERM.
func (r *LocalReplica) Shutdown(ctx context.Context) error {
	derr := r.app.Drain(ctx)
	serr := r.srv.Shutdown(ctx)
	if derr != nil {
		return derr
	}
	return serr
}

// StubReplica is a replica-shaped stand-in with no simulator behind it:
// analyze and diagnose answer at once with a digest of the request body.
// Responses are deterministic functions of the request body, preserving
// the byte-identity contract the router relies on.
type StubReplica struct {
	url string
	srv *http.Server
}

// StartStub starts a stub replica on an ephemeral localhost port.
func StartStub() (*StubReplica, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintln(w, `{"status":"ok"}`)
	})
	handle := func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
		if err != nil {
			w.WriteHeader(http.StatusBadRequest)
			return
		}
		sum := sha256.Sum256(body)
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, "{\"stub\":true,\"digest\":%q}\n", hex.EncodeToString(sum[:8]))
	}
	mux.HandleFunc("/v1/analyze", handle)
	mux.HandleFunc("/v1/diagnose", handle)
	s := &StubReplica{url: "http://" + ln.Addr().String(), srv: &http.Server{Handler: mux}}
	go func() { _ = s.srv.Serve(ln) }()
	return s, nil
}

// URL returns the stub's base URL.
func (s *StubReplica) URL() string { return s.url }

// Kill closes the stub immediately.
func (s *StubReplica) Kill() { _ = s.srv.Close() }
