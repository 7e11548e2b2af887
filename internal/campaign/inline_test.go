package campaign

// Tests for the inline path: a job whose result the run cache's memory tier
// already holds runs on the dispatching goroutine, every other job on the
// worker pool. Both paths run the same executor.run body, so they must
// produce the same bytes, the same counts and the same spans.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"runtime"
	"sort"
	"sync"
	"testing"

	"scaltool/internal/apps"
	"scaltool/internal/obs"
	"scaltool/internal/runcache"
	"scaltool/internal/sim"
)

// observed is a campaign context with fresh metrics and a tracer.
func observed() (context.Context, *obs.Observer) {
	o := &obs.Observer{Metrics: obs.NewMetrics(), Trace: obs.NewTracer()}
	return obs.NewContext(context.Background(), o), o
}

// cacheCounts reads the run-cache outcome counters: memory hits, disk hits,
// shared flights and misses.
func cacheCounts(mt *obs.Metrics) [4]uint64 {
	return [4]uint64{
		mt.Counter("scaltool_runcache_hits_total", "run-cache hits by tier", "tier", "mem").Value(),
		mt.Counter("scaltool_runcache_hits_total", "run-cache hits by tier", "tier", "disk").Value(),
		mt.Counter("scaltool_runcache_shared_total", "requests served by joining another request's in-flight simulation").Value(),
		mt.Counter("scaltool_runcache_misses_total", "run-cache misses (a real simulation ran)").Value(),
	}
}

// spanEvent is one complete trace event.
type spanEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Args map[string]any `json:"args"`
}

// spans returns the tracer's complete events named name.
func spans(t *testing.T, tr *obs.Tracer, name string) []spanEvent {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var file struct {
		TraceEvents []spanEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &file); err != nil {
		t.Fatal(err)
	}
	var out []spanEvent
	for _, ev := range file.TraceEvents {
		if ev.Name == name && ev.Ph == "X" {
			out = append(out, ev)
		}
	}
	return out
}

// peakOverlap is the largest number of events open at one instant.
func peakOverlap(evs []spanEvent) int {
	type edge struct {
		at    float64
		delta int
	}
	edges := make([]edge, 0, 2*len(evs))
	for _, ev := range evs {
		edges = append(edges, edge{ev.Ts, 1}, edge{ev.Ts + ev.Dur, -1})
	}
	// Ends sort before starts at the same instant: touching spans do not
	// overlap.
	sort.Slice(edges, func(i, k int) bool {
		if edges[i].at != edges[k].at {
			return edges[i].at < edges[k].at
		}
		return edges[i].delta < edges[k].delta
	})
	open, peak := 0, 0
	for _, e := range edges {
		open += e.delta
		peak = max(peak, open)
	}
	return peak
}

// encodedRuns is every run of a campaign result in EncodeResult form, keyed
// by map and index.
func encodedRuns(t *testing.T, res *Result) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	put := func(key string, r *sim.Result) {
		var buf bytes.Buffer
		if err := sim.EncodeResult(&buf, r); err != nil {
			t.Fatal(err)
		}
		out[key] = buf.Bytes()
	}
	for n, r := range res.BaseRuns {
		put(fmt.Sprint("base/", n), r)
	}
	for s, r := range res.UniRuns {
		put(fmt.Sprint("uni/", s), r)
	}
	for n, r := range res.SyncKernels {
		put(fmt.Sprint("sync/", n), r)
	}
	put("spin", res.SpinKernel)
	return out
}

func sameRuns(t *testing.T, what string, want, got map[string][]byte) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d runs, want %d", what, len(got), len(want))
	}
	for k, w := range want {
		if !bytes.Equal(w, got[k]) {
			t.Errorf("%s: run %s differs from the cold campaign's", what, k)
		}
	}
}

func hydroPlan(t testing.TB, procs int) (apps.App, Plan) {
	t.Helper()
	app, err := apps.ByName("hydro2d")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := NewPlan(app, cfg(), procs, 0)
	if err != nil {
		t.Fatal(err)
	}
	return app, plan
}

// TestWarmInlineMatchesCold runs one campaign cold (every job misses the
// fresh run cache and goes to the pool) and again warm (every job is a
// memory hit and runs inline). Every run encodes to the same bytes, and each
// warm job counts exactly one memory hit and one run span, which marks the
// hit; no span sits between a run and its lookup.
func TestWarmInlineMatchesCold(t *testing.T) {
	app, plan := hydroPlan(t, 8)
	rn := &Runner{Cfg: cfg(), Workers: 2, Cache: runcache.New(runcache.Options{})}

	cctx, co := observed()
	cold, err := rn.Execute(cctx, app, plan)
	if err != nil {
		t.Fatal(err)
	}
	wctx, wo := observed()
	h := newRunLog(nil)
	warmRes, err := rn.Execute(obs.WithLogger(wctx, slog.New(h)), app, plan)
	if err != nil {
		t.Fatal(err)
	}
	sameRuns(t, "warm", encodedRuns(t, cold), encodedRuns(t, warmRes))

	jobs := len(plan.Jobs())
	ran := jobs - len(cold.Skipped)
	if got := cacheCounts(co.Metrics); got[0] != 0 || got[3] != uint64(ran) {
		t.Fatalf("cold campaign counted mem/disk/shared/miss %v, want %d misses only", got, ran)
	}
	if got := cacheCounts(wo.Metrics); got != [4]uint64{uint64(ran), 0, 0, 0} {
		t.Fatalf("warm campaign counted mem/disk/shared/miss %v, want exactly %d memory hits", got, ran)
	}
	runs := spans(t, wo.Trace, "run")
	if len(runs) != jobs {
		t.Fatalf("warm campaign traced %d run spans, want one per job (%d)", len(runs), jobs)
	}
	hits := 0
	for _, r := range runs {
		if r.Args["cache_hit"] == true {
			hits++
		}
	}
	if hits != ran {
		t.Fatalf("warm campaign marked %d run spans cache_hit, want %d", hits, ran)
	}
	if n := len(spans(t, wo.Trace, "attempt")); n != 0 {
		t.Fatalf("warm campaign traced %d attempt spans, want none", n)
	}
	if n := len(spans(t, wo.Trace, "sim.run")); n != 0 {
		t.Fatalf("warm campaign simulated %d runs", n)
	}
	if seen, inline := h.counts(); seen != jobs || inline != jobs {
		t.Fatalf("warm campaign ran %d of %d jobs inline, want all", inline, seen)
	}
}

// TestInlineBesidePool warms part of a plan with a smaller campaign, so the
// larger one runs its shared jobs inline while the rest simulate on the
// pool. The result matches a cold campaign byte for byte, every job still
// records exactly one run-cache outcome, and concurrent simulations never
// exceed Workers. Under -race this is the inline path beside pool workers.
func TestInlineBesidePool(t *testing.T) {
	const workers = 2
	app, small := hydroPlan(t, 4)
	_, plan := hydroPlan(t, 16)

	cold, err := (&Runner{Cfg: cfg(), Workers: workers, Cache: runcache.New(runcache.Options{})}).Run(app, plan)
	if err != nil {
		t.Fatal(err)
	}

	rn := &Runner{Cfg: cfg(), Workers: workers, Cache: runcache.New(runcache.Options{})}
	if _, err := rn.Run(app, small); err != nil {
		t.Fatal(err)
	}
	ctx, o := observed()
	h := newRunLog(nil)
	mixed, err := rn.Execute(obs.WithLogger(ctx, slog.New(h)), app, plan)
	if err != nil {
		t.Fatal(err)
	}
	sameRuns(t, "mixed", encodedRuns(t, cold), encodedRuns(t, mixed))

	got := cacheCounts(o.Metrics)
	if ran := uint64(len(plan.Jobs()) - len(mixed.Skipped)); got[0]+got[1]+got[2]+got[3] != ran {
		t.Fatalf("mem/disk/shared/miss %v do not add up to the %d jobs that ran", got, ran)
	}
	if got[0] == 0 || got[3] == 0 {
		t.Fatalf("mem/disk/shared/miss %v: want both inline hits and pool misses", got)
	}
	if jobs, inline := h.counts(); inline == 0 || inline >= jobs {
		t.Fatalf("%d of %d jobs ran inline, want the memory hits inline and the misses on the pool", inline, jobs)
	}
	if peak := peakOverlap(spans(t, o.Trace, "sim.run")); peak > workers {
		t.Fatalf("%d simulations ran at once, Workers is %d", peak, workers)
	}
}

// runLog is a log handler that watches the campaign thread each job's run
// identity into its logger, from inside executor.run: it counts the jobs,
// counts those running on the dispatching goroutine rather than a pool
// worker, and calls at with each job's ordinal.
type runLog struct {
	slog.Handler
	mu     sync.Mutex
	jobs   int
	inline int
	at     func(n int)
}

func newRunLog(at func(n int)) *runLog {
	return &runLog{Handler: obs.Log(context.Background()).Handler(), at: at}
}

func (h *runLog) WithAttrs(attrs []slog.Attr) slog.Handler {
	for _, a := range attrs {
		if a.Key != "run" {
			continue
		}
		h.mu.Lock()
		h.jobs++
		if onDispatcher() {
			h.inline++
		}
		n := h.jobs
		h.mu.Unlock()
		if h.at != nil {
			h.at(n)
		}
	}
	return h
}

// counts returns the jobs seen and how many of them ran inline.
func (h *runLog) counts() (jobs, inline int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.jobs, h.inline
}

// dispatcher is the function whose own frame is on an inline job's stack; a
// pool worker's stack starts in its closure (execute.func1) instead.
const dispatcher = "scaltool/internal/campaign.(*Runner).execute"

// onDispatcher reports whether the caller runs on the dispatching goroutine.
func onDispatcher() bool {
	pc := make([]uintptr, 64)
	frames := runtime.CallersFrames(pc[:runtime.Callers(2, pc)])
	for {
		f, more := frames.Next()
		if f.Function == dispatcher {
			return true
		}
		if !more {
			return false
		}
	}
}

// TestInlineDispatchStopsOnCancel cancels the campaign's context while the
// third inline job runs: dispatch stops there and Execute reports the
// cancellation.
func TestInlineDispatchStopsOnCancel(t *testing.T) {
	app, plan := hydroPlan(t, 8)
	rn := &Runner{Cfg: cfg(), Cache: runcache.New(runcache.Options{})}
	if _, err := rn.Run(app, plan); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	h := newRunLog(func(n int) {
		if n == 3 {
			cancel()
		}
	})
	ctx = obs.WithLogger(ctx, slog.New(h))

	res, err := rn.Execute(ctx, app, plan)
	if res != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("campaign canceled mid-dispatch: res=%v err=%v, want the canceled error", res, err)
	}
	if jobs, inline := h.counts(); jobs != 3 || inline != 3 {
		t.Fatalf("%d jobs dispatched (%d inline), want dispatch to stop after the third inline job of %d", jobs, inline, len(plan.Jobs()))
	}
}

// TestRunIDFormat pins RunID to the %s_p%02d_s%d form run IDs have always
// had: they are journal keys and report file names.
func TestRunIDFormat(t *testing.T) {
	for _, kind := range []string{"base", "uni", "ksync", "kspin"} {
		for procs := 1; procs <= 128; procs++ {
			for _, size := range []uint64{0, 1, math.MaxUint64} {
				want := fmt.Sprintf("%s_p%02d_s%d", kind, procs, size)
				if got := RunID(kind, procs, size); got != want {
					t.Fatalf("RunID(%q, %d, %d) = %q, want %q", kind, procs, size, got, want)
				}
			}
		}
	}
}

// BenchmarkExecuteWarm is one campaign answered entirely from the run
// cache's memory tier: every job runs inline on the calling goroutine.
func BenchmarkExecuteWarm(b *testing.B) {
	app, plan := hydroPlan(b, 8)
	rn := &Runner{Cfg: cfg(), Cache: runcache.New(runcache.Options{})}
	ctx := obs.NewContext(context.Background(), &obs.Observer{Metrics: obs.NewMetrics()})
	if _, err := rn.Execute(ctx, app, plan); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rn.Execute(ctx, app, plan); err != nil {
			b.Fatal(err)
		}
	}
}
