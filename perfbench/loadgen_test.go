package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// fakeAnswer is the body the fake daemon serves for a document.
func fakeAnswer(app string, procs int) []byte { return []byte(fmt.Sprintf("%s/%d\n", app, procs)) }

func sha(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// fakeDaemon answers /v1/analyze with fakeAnswer, except that response
// number corruptAt (counting from 1; 0 = never) carries one flipped byte.
func fakeDaemon(t *testing.T, corruptAt int64) *httptest.Server {
	var n atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var d struct {
			App   string `json:"app"`
			Procs int    `json:"procs"`
		}
		if err := json.NewDecoder(r.Body).Decode(&d); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		body := fakeAnswer(d.App, d.Procs)
		if n.Add(1) == corruptAt {
			body[0] ^= 1
		}
		_, _ = w.Write(body)
	}))
	t.Cleanup(srv.Close)
	return srv
}

// fakeSeq is a two-document workload matching fakeDaemon's answers.
func fakeSeq() []request {
	var seq []request
	for _, procs := range []int{8, 16} {
		d := &doc{ID: fmt.Sprint(procs), App: "swim", Procs: procs, AnalyzeSHA256: sha(fakeAnswer("swim", procs))}
		seq = append(seq, request{Doc: d})
	}
	return seq
}

// loadAgainst runs a short closed loop against srv and returns what record
// printed, or its refusal.
func loadAgainst(srv *httptest.Server) (string, error) {
	client := newClient(1)
	defer client.CloseIdleConnections()
	lr := closedLoop{
		seq: fakeSeq(), clients: 1, until: time.Now().Add(300 * time.Millisecond),
		client: client, base: srv.URL,
	}.run(context.Background())
	o := e2eOutcome(env{clients: 1}, lr, 1, 1, 1)
	o.Info.HostCPUs = 1
	o.Errs = nil // the tail check depends on the host's speed, not on the bodies
	var buf bytes.Buffer
	err := record(&buf, o, endToEndMetrics)
	return buf.String(), err
}

func TestCorruptBodyFailsRun(t *testing.T) {
	out, err := loadAgainst(fakeDaemon(t, 0))
	if err != nil {
		t.Fatalf("clean fake daemon: run refused: %v", err)
	}
	if !strings.Contains(out, `"correct":true`) {
		t.Fatalf("clean fake daemon: printed %q", out)
	}

	out, err = loadAgainst(fakeDaemon(t, 5))
	if err == nil || !strings.Contains(err.Error(), "wrong body") {
		t.Fatalf("corrupted fifth body: err = %v", err)
	}
	if out != "" {
		t.Errorf("corrupted fifth body: printed %q", out)
	}
}

func TestCheckBody(t *testing.T) {
	r := fakeSeq()[0]
	body := fakeAnswer("swim", 8)
	if err := checkBody(r, body); err != nil {
		t.Fatalf("expected body rejected: %v", err)
	}
	if err := checkBody(r, append(body, ' ')); err == nil {
		t.Error("body with a trailing byte accepted")
	}
	diag := r
	diag.Diagnose = true
	if err := checkBody(diag, body); err == nil {
		t.Error("analyze body accepted as the diagnose answer")
	}
}

func TestOversubscribedClientsRefused(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := realMain([]string{
		"-bin", t.TempDir(), "-tmp", t.TempDir(),
		"-workload", "analyze-warm", "-clients", fmt.Sprint(runtime.NumCPU() + 1),
	}, &stdout, &stderr)
	if code == 0 {
		t.Fatal("more clients than CPUs: exit 0")
	}
	if stdout.Len() != 0 {
		t.Errorf("more clients than CPUs: printed %q", stdout.String())
	}
	if !strings.Contains(stderr.String(), "exceed") {
		t.Errorf("stderr %q does not say why", stderr.String())
	}
}

func TestDocsList(t *testing.T) {
	ds, byID, err := loadDocs(docsJSON)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Docs) != len(genApps)*len(genProcs)*genSizesPerApp || len(ds.Warm) != len(genApps)*len(genProcs) ||
		len(ds.ZipfOrder) != len(ds.Docs) {
		t.Errorf("docs.json: %d docs, %d warm, %d in Zipf order", len(ds.Docs), len(ds.Warm), len(ds.ZipfOrder))
	}
	for _, id := range ds.Warm {
		if byID[id].S0 != 0 {
			t.Errorf("warm document %s has an explicit s0", id)
		}
	}
	for _, d := range ds.Docs {
		if d.AnalyzeSHA256 == "" || d.DiagnoseSHA256 == "" {
			t.Errorf("document %s lacks an expected body", d.ID)
		}
		if d.App == "hydro2d" && d.Procs == 32 && d.S0 == 201523 {
			t.Error("the known-failing hydro2d/p32/s0=201523 shape is in the list")
		}
	}
}

func TestSequences(t *testing.T) {
	ds, byID, err := loadDocs(docsJSON)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		a, b := sequence(w, ds, byID, 7), sequence(w, ds, byID, 7)
		c := sequence(w, ds, byID, 8)
		same := func(x, y []request) bool {
			for i := range x {
				if x[i] != y[i] {
					return false
				}
			}
			return true
		}
		if len(a) != seqLen || !same(a, b) {
			t.Errorf("%s: seed 7 gave two different sequences", w.Name)
		}
		if same(a, c) {
			t.Errorf("%s: seeds 7 and 8 gave the same sequence", w.Name)
		}
	}
	// Warm rounds visit every default document once.
	warm := sequence(workloads[0], ds, byID, 3)
	seen := map[string]int{}
	for _, r := range warm[:len(ds.Warm)] {
		seen[r.Doc.ID]++
	}
	if len(seen) != len(ds.Warm) {
		t.Errorf("first warm round covers %d of %d documents", len(seen), len(ds.Warm))
	}
	// About a quarter of mixed-spill goes to /v1/diagnose (each document's
	// share is rounded).
	diag := 0
	for _, r := range sequence(workloads[1], ds, byID, 3) {
		if r.Diagnose {
			diag++
		}
	}
	if f := float64(diag) / seqLen; f < 0.22 || f > 0.30 {
		t.Errorf("mixed-spill diagnose share %.3f", f)
	}
}

func TestScrapeParsesCounters(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.WriteString(w, "# HELP x y\n"+
			"scaltool_runcache_hits_total{tier=\"mem\"} 12\n"+
			"scaltool_runcache_misses_total 3\n"+
			"scaltool_runcache_bytes 1.5e+06\n")
	}))
	defer srv.Close()
	got, err := scrape(context.Background(), srv.Client(), srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	if got[`scaltool_runcache_hits_total{tier="mem"}`] != 12 || got["scaltool_runcache_misses_total"] != 3 ||
		got["scaltool_runcache_bytes"] != 1.5e6 {
		t.Errorf("scrape = %v", got)
	}
}

func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	names := func(xs []struct{ Name string }) string {
		var out []string
		for _, x := range xs {
			out = append(out, x.Name)
		}
		return strings.Join(out, ",")
	}
	var ws []string
	for _, w := range workloads {
		ws = append(ws, w.Name)
	}
	for _, c := range []struct{ what, declared, harness string }{
		{"workloads", names(b.Workloads), strings.Join(ws, ",")},
		{"end_to_end", names(b.EndToEnd), strings.Join(endToEndMetrics, ",")},
		{"per_layer", names(b.PerLayer), strings.Join(perLayerMetrics, ",")},
	} {
		if c.declared != c.harness {
			t.Errorf("BENCHMARK.json %s\n  %s\nharness\n  %s", c.what, c.declared, c.harness)
		}
	}
}

func TestClosedLoopCountsFailuresAndRefusals(t *testing.T) {
	var n atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch n.Add(1) {
		case 2:
			http.Error(w, `{"code":"overloaded"}`, http.StatusTooManyRequests)
		case 3:
			http.Error(w, `{"code":"failed"}`, http.StatusInternalServerError)
		default:
			_, _ = w.Write(fakeAnswer("swim", 8))
		}
	}))
	defer srv.Close()
	client := newClient(1)
	defer client.CloseIdleConnections()
	seq := fakeSeq()[:1]
	lr := closedLoop{
		seq: seq, clients: 1, until: time.Now().Add(200 * time.Millisecond),
		client: client, base: srv.URL,
	}.run(context.Background())
	tl := lr.Tally
	if tl.Refused != 1 || tl.Failed != 1 || tl.Succeeded != tl.Attempted-2 || len(tl.Mismatches) != 0 {
		t.Fatalf("tally %+v", tl)
	}
	if !strings.Contains(lr.FirstErr, "status 500") {
		t.Errorf("first error %q", lr.FirstErr)
	}
	inf := 0
	for _, v := range lr.LatMS {
		if v > 1e300 {
			inf++
		}
	}
	if len(lr.LatMS) != tl.Attempted || inf != 2 {
		t.Errorf("%d latencies for %d attempts, %d infinite; want the 2 failures infinite", len(lr.LatMS), tl.Attempted, inf)
	}
	o := e2eOutcome(env{clients: 1}, lr, 1, 1, 1)
	if got, want := o.Metrics["success_ratio"].Value, float64(tl.Attempted-2)/float64(tl.Attempted); got != want {
		t.Errorf("success_ratio %v, want %v", got, want)
	}
}
