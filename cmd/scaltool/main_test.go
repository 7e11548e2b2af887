package main

import (
	"bytes"
	"encoding/json"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestCmdApps(t *testing.T) {
	if err := cmdApps(); err != nil {
		t.Fatal(err)
	}
}

func TestCmdPlan(t *testing.T) {
	if err := cmdPlan([]string{"-app", "t3dheat", "-procs", "8"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdPlan([]string{"-app", "nope"}); err == nil {
		t.Error("unknown app accepted")
	}
	if err := cmdPlan([]string{"-machine", "vax"}); err == nil {
		t.Error("unknown machine accepted")
	}
}

func TestCmdAnalyze(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a campaign")
	}
	if err := cmdAnalyze([]string{"-app", "swim", "-procs", "4"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdAnalyze([]string{"-app", "swim", "-procs", "4", "-csv", "-raw-tm"}); err != nil {
		t.Fatal(err)
	}
}

func TestCmdWhatif(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a campaign")
	}
	if err := cmdWhatif([]string{"-app", "swim", "-procs", "4", "-l2x", "2", "-tsx", "0.5"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdWhatif([]string{"-app", "swim", "-procs", "4", "-tmx", "-3"}); err == nil {
		t.Error("negative scale accepted")
	}
}

// TestObsEndToEnd runs a tiny campaign with -trace-out and -metrics-out and
// validates both artifacts round-trip: the trace is chrome://tracing JSON
// with one run span per job inside the campaign span, each carrying its
// run-cache outcome, plus per-processor sim timelines, and the metrics
// snapshot is Prometheus text format with ≥ 10 distinct series.
func TestObsEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a campaign")
	}
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "trace.json")
	metricsPath := filepath.Join(dir, "metrics.prom")
	err := cmdAnalyze([]string{"-app", "swim", "-procs", "4",
		"-trace-out", tracePath, "-metrics-out", metricsPath, "-log-level", "error"})
	if err != nil {
		t.Fatal(err)
	}

	// --- Trace file ---
	data, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			TS   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			PID  int64          `json:"pid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &trace); err != nil {
		t.Fatalf("trace is not trace_event JSON: %v", err)
	}
	type span struct {
		ts, end float64
	}
	var campaigns, runs []span
	names := map[string]int{}
	simProcs := 0
	for _, e := range trace.TraceEvents {
		names[e.Name]++
		s := span{ts: e.TS, end: e.TS + e.Dur}
		switch e.Name {
		case "campaign":
			campaigns = append(campaigns, s)
		case "run":
			runs = append(runs, s)
			// A run skipped below the app's grid never reaches the cache.
			if _, ok := e.Args["cache_hit"]; !ok && e.Args["skipped"] != true {
				t.Errorf("run span %v carries no cache_hit", e.Args["id"])
			}
		}
		if e.Ph == "M" && e.Name == "thread_name" {
			if n, _ := e.Args["name"].(string); strings.HasPrefix(n, "cpu ") {
				simProcs++
			}
		}
	}
	if len(campaigns) != 1 {
		t.Fatalf("campaign spans = %d, want 1", len(campaigns))
	}
	// A -procs 4 plan has 3 base + 3 ksync + uni runs + 1 kspin jobs.
	if len(runs) < 8 {
		t.Fatalf("run spans = %d, want ≥ 8", len(runs))
	}
	if names["attempt"] != 0 {
		t.Fatalf("attempt spans = %d, want none: a run is one span", names["attempt"])
	}
	if names["sim.run"] < len(runs) {
		t.Errorf("sim.run spans = %d for %d runs", names["sim.run"], len(runs))
	}
	if names["model.fit"] != 1 {
		t.Errorf("model.fit spans = %d, want 1", names["model.fit"])
	}
	// Nesting: every run sits inside the campaign span.
	const slack = 1e3 // µs; span timestamps are captured a hair apart
	c := campaigns[0]
	for _, r := range runs {
		if r.ts < c.ts-slack || r.end > c.end+slack {
			t.Errorf("run [%g,%g] outside campaign [%g,%g]", r.ts, r.end, c.ts, c.end)
		}
	}
	// The base runs' simulated per-processor timelines: the 1-, 2-, and
	// 4-proc base runs contribute 7 cpu threads and busy slices.
	if simProcs < 7 {
		t.Errorf("sim timeline cpu threads = %d, want ≥ 7", simProcs)
	}
	if names["busy"] == 0 {
		t.Error("no busy slices in the sim timelines")
	}

	// --- Metrics file ---
	mdata, err := os.ReadFile(metricsPath)
	if err != nil {
		t.Fatal(err)
	}
	series := map[string]bool{}
	for _, line := range strings.Split(string(mdata), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Fatalf("malformed series line %q", line)
		}
		series[fields[0]] = true
	}
	if len(series) < 10 {
		t.Fatalf("metrics snapshot has %d distinct series, want ≥ 10:\n%s", len(series), mdata)
	}
	for _, want := range []string{
		"scaltool_campaign_runs_started_total",
		"scaltool_sim_runs_total",
		"scaltool_model_fits_total",
	} {
		if !series[want] {
			t.Errorf("metrics snapshot missing %s", want)
		}
	}
}

func TestCmdMeasureAndFit(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a campaign")
	}
	dir := t.TempDir()
	if err := cmdMeasure([]string{"-app", "swim", "-procs", "4", "-out", dir}); err != nil {
		t.Fatal(err)
	}
	if err := cmdFit([]string{"-dir", dir}); err != nil {
		t.Fatal(err)
	}
	if err := cmdFit([]string{"-dir", t.TempDir()}); err == nil {
		t.Error("empty dir accepted")
	}

	// measure honours the report keys: the files it writes carry the
	// injected noise, and fit still fits them.
	noisy := t.TempDir()
	if err := cmdMeasure([]string{"-app", "swim", "-procs", "4", "-out", noisy, "-fault-spec", "seed=3,noise=0.02"}); err != nil {
		t.Fatal(err)
	}
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	differ := 0
	for _, f := range files {
		clean, err := os.ReadFile(filepath.Join(dir, f.Name()))
		if err != nil {
			t.Fatal(err)
		}
		faulted, err := os.ReadFile(filepath.Join(noisy, f.Name()))
		if err != nil {
			t.Fatalf("faulted directory lacks %s: %v", f.Name(), err)
		}
		if !bytes.Equal(clean, faulted) {
			differ++
		}
	}
	if differ == 0 {
		t.Error("-fault-spec noise changed no report file")
	}
	if err := cmdFit([]string{"-dir", noisy}); err != nil {
		t.Fatalf("fit of noisy reports: %v", err)
	}
}

// TestCLIFlagValidation drives every bad flag combination the run-based
// subcommands must reject before any simulation starts. Each case must fail
// fast with a message naming the offending flag.
func TestCLIFlagValidation(t *testing.T) {
	cases := []struct {
		name string
		cmd  func([]string) error
		args []string
		want string
	}{
		{"resume without journal-dir", cmdAnalyze,
			[]string{"-resume"}, "-resume needs -journal-dir"},
		{"resume without journal-dir (measure)", cmdMeasure,
			[]string{"-resume", "-out", t.TempDir()}, "-resume needs -journal-dir"},
		{"zero shutdown grace", cmdAnalyze,
			[]string{"-shutdown-grace", "0s"}, "-shutdown-grace must be positive"},
		{"negative shutdown grace", cmdAnalyze,
			[]string{"-shutdown-grace", "-5s"}, "-shutdown-grace must be positive"},
		{"report fault key on analyze", cmdAnalyze,
			[]string{"-fault-spec", "seed=1,noise=0.02"}, "key noise perturbs report files, which only 'scaltool measure' writes"},
		{"report fault keys on whatif", cmdWhatif,
			[]string{"-fault-spec", "crashappend=3,poisonrun=base_p01_s1,corrupt=0.5"}, "key corrupt, poisonrun perturbs report files"},
		{"fault spec on fit", cmdFit,
			[]string{"-dir", t.TempDir(), "-fault-spec", "noise=0.02"}, "fit injects nothing"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.cmd(tc.args)
			if err == nil {
				t.Fatalf("args %v accepted", tc.args)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("args %v: error %q does not mention %q", tc.args, err, tc.want)
			}
		})
	}
}

// TestCLIResumeCompletedJournal resumes a journal whose campaign already
// finished: every run is replayed from the journal and the fit reruns.
func TestCLIResumeCompletedJournal(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a campaign")
	}
	dir := t.TempDir()
	if err := cmdAnalyze([]string{"-app", "swim", "-procs", "4", "-journal-dir", dir}); err != nil {
		t.Fatal(err)
	}
	if err := cmdAnalyze([]string{"-resume", "-journal-dir", dir}); err != nil {
		t.Fatalf("plain resume of a completed journal: %v", err)
	}
}

// TestPprofAddrFailFast is the regression test for the async-bind bug: a
// -pprof-addr that cannot be bound must fail the command synchronously from
// observe(), before any simulation starts — not asynchronously from a
// server goroutine after main has proceeded.
func TestPprofAddrFailFast(t *testing.T) {
	// Occupy a port so the observer's bind must fail.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	c := commonFlags("test")
	if err := c.fs.Parse([]string{"-pprof-addr", ln.Addr().String()}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.observe(); err == nil {
		t.Fatal("observe() bound an already-taken -pprof-addr without error")
	} else if !strings.Contains(err.Error(), "pprof") {
		t.Fatalf("error %v does not identify the pprof server", err)
	}
}

// TestPprofServerDrain checks the debug server is shut down by flush (the
// command's drain path) instead of leaking: after flush the address is
// bindable again and requests are refused.
func TestPprofServerDrain(t *testing.T) {
	c := commonFlags("test")
	// Reserve a free port, release it, and hand it to the observer. (A
	// short race window, but the test binds it back immediately.)
	probe, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := probe.Addr().String()
	probe.Close()
	if err := c.fs.Parse([]string{"-pprof-addr", addr}); err != nil {
		t.Fatal(err)
	}
	_, flush, err := c.observe()
	if err != nil {
		t.Fatalf("observe() failed to bind %s: %v", addr, err)
	}
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatalf("live debug server refused /metrics: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics = %d, want 200", resp.StatusCode)
	}
	if err := flush(); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("address still held after flush (leaked server): %v", err)
	}
	ln.Close()
}
