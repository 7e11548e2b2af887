package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"scaltool/internal/obs"
)

// The HTTP chaos harness: hostile clients at the transport and document
// layers. Every scenario's invariant is the same — the daemon never crashes,
// never leaks a slot, and keeps answering well-formed requests with the
// documented status codes (see the package comment's contract). verify.sh
// runs this file under -race.

// documentedStatus is the service's complete status-code contract; anything
// else escaping the handler is a bug.
var documentedStatus = map[int]bool{
	http.StatusOK:                    true,
	http.StatusBadRequest:            true,
	http.StatusMethodNotAllowed:      true,
	http.StatusRequestEntityTooLarge: true,
	http.StatusUnprocessableEntity:   true,
	http.StatusTooManyRequests:       true,
	http.StatusInternalServerError:   true,
	http.StatusServiceUnavailable:    true,
	http.StatusGatewayTimeout:        true,
	statusClientClosed:               true,
}

// chaosServer is newTestServer with the transport hardening scaltoold ships
// with (tight header/body read deadlines), so slow-loris scenarios terminate.
func chaosServer(t *testing.T, opts Options) (*Server, *httptest.Server, *obs.Metrics) {
	t.Helper()
	mt := obs.NewMetrics()
	opts.Obs = &obs.Observer{Metrics: mt}
	s := New(opts)
	ts := httptest.NewUnstartedServer(s.Handler())
	ts.Config.ReadHeaderTimeout = 500 * time.Millisecond
	ts.Config.ReadTimeout = 2 * time.Second
	ts.Start()
	t.Cleanup(ts.Close)
	return s, ts, mt
}

// assertAlive checks the daemon still completes a full analysis after a
// chaos scenario.
func assertAlive(t *testing.T, url string) {
	t.Helper()
	resp, body := postAnalyze(t, url, analyzeBody("swim", 4))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("server unhealthy after chaos: %d %s", resp.StatusCode, body)
	}
}

// TestChaosAdversarialDocuments throws a gauntlet of malformed and
// adversarial JSON at /v1/analyze: every response must be a documented 4xx
// with a machine-readable JSON body, and the daemon must still serve a real
// analysis afterwards.
func TestChaosAdversarialDocuments(t *testing.T) {
	_, ts, _ := chaosServer(t, Options{Workers: 2})

	payloads := []string{
		``,
		`garbage`,
		`{"app":"swim"`,                  // truncated document
		`[]`,                             // wrong top-level type
		`{"app":123}`,                    // wrong field type
		`{"app":"swim","bogus_field":1}`, // unknown field
		`{}`,                             // no workload
		`{"app":"nope"}`,                 // unknown app
		`{"app":"swim","procs":3}`,       // non-power-of-two
		`{"app":"swim","procs":-1}`,      // negative
		`{"app":"swim","procs":1e308}`,   // float overflow into an int
		`{"app":"swim","s0":99999999999999999999999999}`, // number overflow
		`{"app":"swim","s0":18446744073709551615}`,       // max uint64 dataset
		"{\"app\":\"\u0000\"}",                           // NUL in a name
		`{"app":"swim","program":{}}`,                    // both workloads at once
		`{"program":{}}`,                                 // empty program spec
		`{"program":{"name":"p","arrays":null,"regions":null}}`,
		strings.Repeat(`[`, 1<<16),                     // deep nesting
		`{"app":"` + strings.Repeat("A", 1<<18) + `"}`, // huge string value
		"\x00\x01\x02\xff",                             // binary garbage
		`{"app":"swim","machine":"../../etc"}`,         // path-shaped machine name
	}
	seen := map[int]string{}
	for i, p := range payloads {
		resp, body := postAnalyze(t, ts.URL, strings.NewReader(p))
		if !documentedStatus[resp.StatusCode] || resp.StatusCode == http.StatusOK {
			t.Fatalf("payload %d: undocumented status %d: %s", i, resp.StatusCode, body)
		}
		var e apiError
		if err := json.Unmarshal(body, &e); err != nil || e.Error == "" || e.Code == "" {
			t.Fatalf("payload %d: error body not machine-readable (%v): %s", i, err, body)
		}
		seen[resp.StatusCode] = e.Code
	}
	// The gauntlet exercised both rejection layers, not just the JSON parser.
	if _, ok := seen[http.StatusBadRequest]; !ok {
		t.Fatalf("no payload drew 400: %v", seen)
	}
	if _, ok := seen[http.StatusUnprocessableEntity]; !ok {
		t.Fatalf("no payload drew 422: %v", seen)
	}
	if _, ok := seen[http.StatusRequestEntityTooLarge]; !ok {
		t.Fatalf("no payload drew 413: %v", seen)
	}
	assertAlive(t, ts.URL)
}

// TestChaosTruncatedBody opens raw connections that promise a body and
// deliver only part of it before closing — the decode must fail cleanly and
// the daemon keep serving.
func TestChaosTruncatedBody(t *testing.T) {
	_, ts, _ := chaosServer(t, Options{Workers: 2})
	for i := 0; i < 8; i++ {
		conn, err := net.Dial("tcp", ts.Listener.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(conn, "POST /v1/analyze HTTP/1.1\r\nHost: chaos\r\nContent-Type: application/json\r\nContent-Length: 4096\r\n\r\n")
		io.WriteString(conn, `{"app":"swim","pr`) // 4079 bytes short
		conn.Close()
	}
	assertAlive(t, ts.URL)
}

// TestChaosSlowLoris dribbles header bytes on several parked connections.
// The transport's ReadHeaderTimeout must shed each one — the accept loop and
// worker pool stay free for honest clients throughout.
func TestChaosSlowLoris(t *testing.T) {
	_, ts, _ := chaosServer(t, Options{Workers: 2})
	const loris = 4
	conns := make([]net.Conn, 0, loris)
	for i := 0; i < loris; i++ {
		conn, err := net.Dial("tcp", ts.Listener.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		conns = append(conns, conn)
		io.WriteString(conn, "POST /v1/analyze HTTP/1.1\r\nHost: ch")
	}
	// While the loris connections are parked, an honest request sails through.
	assertAlive(t, ts.URL)

	// Each parked connection is forcibly closed by the read deadline.
	deadline := time.Now().Add(10 * time.Second)
	for i, conn := range conns {
		conn.SetReadDeadline(deadline)
		if _, err := conn.Read(make([]byte, 1)); err == nil {
			// A response (431/408) before close also counts as shedding.
			continue
		} else if ne, ok := err.(net.Error); ok && ne.Timeout() {
			t.Fatalf("loris conn %d still open after ReadHeaderTimeout", i)
		}
		conn.Close()
	}
	assertAlive(t, ts.URL)
}

// TestChaosMidRequestDisconnect drops connections while their analyses are
// executing: the context cancels, the slot is reclaimed, nothing is
// published, and a later Drain completes promptly (no leaked inflight work).
// Each disconnect is counted as a 499, never as a 504 deadline: the
// deadline is 30 s and the test takes milliseconds.
func TestChaosMidRequestDisconnect(t *testing.T) {
	s, ts, mt := chaosServer(t, Options{Workers: 1, QueueDepth: 1, RequestTimeout: 30 * time.Second})
	started := make(chan struct{}, 8)
	s.testHookRun = func() { started <- struct{}{} }

	for i := 0; i < 3; i++ {
		conn, err := net.Dial("tcp", ts.Listener.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		body := `{"app":"swim","procs":4}`
		fmt.Fprintf(conn, "POST /v1/analyze HTTP/1.1\r\nHost: chaos\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n%s", len(body), body)
		// Wait until the analysis holds the worker slot, then vanish.
		select {
		case <-started:
		case <-time.After(10 * time.Second):
			t.Fatal("analysis never started")
		}
		conn.Close()
	}

	s.testHookRun = nil
	assertAlive(t, ts.URL)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain after disconnects: %v", err)
	}
	// A request is counted after its slot is released, so Drain can return
	// just before the last count lands.
	status := func(code string) uint64 {
		return mt.Counter("scaltool_serve_requests_total", "", "route", "/v1/analyze", "code", code).Value()
	}
	for status("499") < 3 && ctx.Err() == nil {
		time.Sleep(5 * time.Millisecond)
	}
	if got, deadline := status("499"), status("504"); got != 3 || deadline != 0 {
		t.Fatalf("disconnects counted as %d × 499 and %d × 504, want 3 and 0", got, deadline)
	}
}

// TestChaosDisconnectWhileQueued drops a connection whose request is
// admitted but still waiting for the one worker: the wait ends as a 499,
// not as a 503 no_worker.
func TestChaosDisconnectWhileQueued(t *testing.T) {
	s, ts, mt := chaosServer(t, Options{Workers: 1, QueueDepth: 1, RequestTimeout: 30 * time.Second})
	started, hold := make(chan struct{}, 1), make(chan struct{})
	s.testHookRun = func() {
		started <- struct{}{}
		<-hold
	}
	first := make(chan int, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/analyze", "application/json", analyzeBody("swim", 4))
		if err != nil {
			first <- 0
			return
		}
		resp.Body.Close()
		first <- resp.StatusCode
	}()
	<-started

	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	body := `{"app":"t3dheat","procs":4}`
	fmt.Fprintf(conn, "POST /v1/analyze HTTP/1.1\r\nHost: chaos\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n%s", len(body), body)
	status := func(code string) uint64 {
		return mt.Counter("scaltool_serve_requests_total", "", "route", "/v1/analyze", "code", code).Value()
	}
	deadline := time.Now().Add(10 * time.Second)
	for len(s.admitted) < 2 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if len(s.admitted) < 2 {
		t.Fatal("second request never queued for the worker")
	}
	conn.Close()
	for status("499") == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	close(hold)
	if code := <-first; code != http.StatusOK {
		t.Fatalf("request holding the worker answered %d", code)
	}
	if got, refused := status("499"), status("503"); got != 1 || refused != 0 {
		t.Fatalf("queued disconnect counted as %d × 499 and %d × 503, want 1 and 0", got, refused)
	}
}

// TestChaosGarbageProtocol speaks raw non-HTTP bytes and half-pipelined
// requests at the listener; the server must shed them without disturbing
// service.
func TestChaosGarbageProtocol(t *testing.T) {
	_, ts, _ := chaosServer(t, Options{Workers: 2})
	for _, garbage := range []string{
		"\x16\x03\x01\x02\x00",             // a TLS ClientHello at a plain port
		"GET /v1/analyze HTTP/9.9\r\n\r\n", // absurd protocol version
		strings.Repeat("A", 1<<16),         // an unbounded request line
		"POST /v1/analyze HTTP/1.1\r\nContent-Length: nope\r\n\r\n",
	} {
		conn, err := net.Dial("tcp", ts.Listener.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		io.WriteString(conn, garbage)
		// Drain whatever the server says (400 or a slam) and move on.
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		_, _ = bufio.NewReader(conn).ReadString('\n')
		conn.Close()
	}
	assertAlive(t, ts.URL)
}
