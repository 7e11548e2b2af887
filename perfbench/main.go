// Command perfbench is scaltool's benchmark: it builds nothing itself (see
// run.sh), drives the scaltoold binary under one of its workloads,
// checks every answer against the screened expected bodies, and prints one
// JSON result line. With -trace 1 it instead runs the same
// request sequence through each layer's Go functions in-process, timing
// them from outside, and reports the per-layer split. NOTES.md explains
// the workloads, metrics and layers.
//
//	perfbench -bin DIR -tmp DIR -workload NAME -seed N -seconds S -trace 0|1
//	perfbench -bin DIR -tmp DIR -gen perfbench/docs.json
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"
)

// endToEndMetrics and perLayerMetrics are the names BENCHMARK.json
// declares; a run that cannot report every one of its set is refused.
var (
	endToEndMetrics = []string{
		"latency_p50_ms", "latency_p90_ms", "throughput_rps", "success_ratio",
		"cpu_ms_per_req", "rss_peak_mb", "setup_s",
	}
	perLayerMetrics = []string{
		"campaign.plan_ms", "admission.estimate_ms", "apps.build_ms",
		"runcache.key_ms", "runcache.lookup_ms", "runcache.hit_ratio",
		"runcache.disk_hit_ratio", "runcache.evictions_per_req",
		"sim.run_ms", "sim.runs_per_req", "sim.mem_ops_per_s",
		"campaign.overhead_ms", "campaign.parallel_eff", "model.fit_ms",
		"diagnose.ms", "journal.ms", "journal.bytes", "serve.encode_ms",
		"serve.one_client_ms", "serve.unattributed_ms",
	}
)

// env is one run's configuration.
type env struct {
	bin, tmp string
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	clients  int
	docs     *docSet
	byID     map[string]*doc
}

// info is the run's context line, before measurement fills it in.
func (e env) info() runInfo {
	return runInfo{
		Workload:  e.workload,
		Seed:      e.seed,
		Trace:     e.trace,
		HostCPUs:  runtime.NumCPU(),
		GoVersion: runtime.Version(),
		Clients:   e.clients,
	}
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		bin     = fs.String("bin", "", "directory holding the scaltoold binary")
		tmp     = fs.String("tmp", "", "scratch directory for logs, spill and journal files")
		name    = fs.String("workload", "", "workload: analyze-warm | mixed-spill")
		seed    = fs.Int64("seed", 1, "seed of the request sequence")
		seconds = fs.Int("seconds", 20, "measured seconds")
		trace   = fs.Int("trace", 0, "1 = per-layer traced run instead of the end-to-end run")
		clients = fs.Int("clients", 1, "closed-loop clients, at most the host's CPUs")
		genPath = fs.String("gen", "", "screen candidate documents and write the document list here, then exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *bin == "" || *tmp == "" {
		fmt.Fprintln(stderr, "perfbench: -bin and -tmp are required (run it through run.sh)")
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	run, err := os.MkdirTemp(*tmp, "run")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(run)

	if *genPath != "" {
		if err := generate(ctx, *bin, run, *genPath, stderr); err != nil {
			fmt.Fprintln(stderr, "perfbench: gen:", err)
			return 1
		}
		return 0
	}

	w, err := workloadByName(*name)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: -seconds must be ≥ 1 and -trace 0 or 1")
		return 2
	}
	ds, byID, err := loadDocs(docsJSON)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	e := env{
		bin: *bin, tmp: run, workload: w.Name, seed: *seed,
		seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1,
		clients: *clients, docs: ds, byID: byID,
	}
	// One client by default: every request runs a campaign on both of the
	// reference host's CPUs, and with a second client p90 measured how two
	// campaigns overlapped, which moved up to twice as much run to run.
	hostCPUs := runtime.NumCPU()
	if e.clients > hostCPUs {
		// Refuse before measuring: more closed-loop clients than CPUs
		// measures the load generator's queueing, not the system.
		fmt.Fprintf(stderr, "perfbench: run refused: %d clients exceed the host's %d CPUs\n", e.clients, hostCPUs)
		return 1
	}
	seq := sequence(w, ds, byID, *seed)

	var o *outcome
	want := endToEndMetrics
	if e.trace {
		want = perLayerMetrics
		o, err = traced(ctx, e, w, seq)
	} else {
		o, err = endToEnd(ctx, e, w, seq)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := record(stdout, o, want); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}
