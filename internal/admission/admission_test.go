package admission

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"testing"

	"scaltool/internal/apps"
	"scaltool/internal/campaign"
	"scaltool/internal/machine"
	"scaltool/internal/obs"
)

// TestDefaultBudgetAdmitsBuiltins calibrates the default budgets: every
// built-in application at the default experiment machine and the maximum
// default processor count must be admitted with real headroom — the budgets
// exist to stop hostile work, not the paper's own campaigns.
func TestDefaultBudgetAdmitsBuiltins(t *testing.T) {
	cfg := machine.ScaledOrigin()
	b := DefaultBudget()
	for _, name := range apps.Names() {
		app, err := apps.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := campaign.NewPlan(app, cfg, DefaultMaxProcs, 0)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		cost, rej := b.EstimatePlan(cfg, app, plan, 4)
		if rej != nil {
			t.Fatalf("%s: estimate rejected: %v", name, rej)
		}
		if cost.Runs == 0 || cost.Cycles <= 0 || cost.AllocBytes <= 0 {
			t.Fatalf("%s: degenerate cost %+v", name, cost)
		}
		if rej := b.CheckRequest(cost); rej != nil {
			t.Fatalf("%s: default request over default budget: %v (cost %+v)", name, rej, cost)
		}
		if cost.Cycles > b.MaxRequestCycles/4 {
			t.Errorf("%s: only %.1fx cycle headroom (cost %.3g of %.3g)",
				name, b.MaxRequestCycles/cost.Cycles, cost.Cycles, b.MaxRequestCycles)
		}
		t.Logf("%s: %d runs, %.3g cycles, %d MiB alloc, %d KiB timeline",
			name, cost.Runs, cost.Cycles, cost.AllocBytes>>20, cost.TimelineBytes>>10)
	}
}

func TestCheckShape(t *testing.T) {
	b := DefaultBudget()
	if rej := b.CheckShape(DefaultMaxProcs, DefaultMaxS0Bytes); rej != nil {
		t.Fatalf("at-cap shape rejected: %v", rej)
	}
	rej := b.CheckShape(DefaultMaxProcs*2, 0)
	if rej == nil || rej.Status != http.StatusUnprocessableEntity || rej.Code != "procs_cap" {
		t.Fatalf("over-cap procs: got %+v, want 422 procs_cap", rej)
	}
	rej = b.CheckShape(1, DefaultMaxS0Bytes+1)
	if rej == nil || rej.Status != http.StatusRequestEntityTooLarge || rej.Code != "s0_budget" {
		t.Fatalf("over-budget s0: got %+v, want 413 s0_budget", rej)
	}
}

func TestCheckRequest(t *testing.T) {
	b := Budget{MaxRequestCycles: 100, MaxRequestBytes: 1000}
	if rej := b.CheckRequest(Cost{Cycles: 100, AllocBytes: 1000}); rej != nil {
		t.Fatalf("at-budget cost rejected: %v", rej)
	}
	rej := b.CheckRequest(Cost{Cycles: 101})
	if rej == nil || rej.Status != http.StatusRequestEntityTooLarge || rej.Code != "cost_cycles" {
		t.Fatalf("over-budget cycles: got %+v", rej)
	}
	rej = b.CheckRequest(Cost{AllocBytes: 1001})
	if rej == nil || rej.Status != http.StatusRequestEntityTooLarge || rej.Code != "cost_bytes" {
		t.Fatalf("over-budget bytes: got %+v", rej)
	}
}

func TestLedger(t *testing.T) {
	l := NewLedger(Budget{MaxServerCycles: 100, MaxServerBytes: 1 << 30})
	big := Cost{Cycles: 60, AllocBytes: 10}

	if rej := l.TryAdmit(big); rej != nil {
		t.Fatalf("first admit: %v", rej)
	}
	rej := l.TryAdmit(big)
	if rej == nil || rej.Status != http.StatusTooManyRequests || rej.Code != "server_cycles" {
		t.Fatalf("second admit should exhaust cycles: got %+v", rej)
	}
	l.Release(big)
	if rej := l.TryAdmit(big); rej != nil {
		t.Fatalf("admit after release: %v", rej)
	}
	l.Release(big)

	// A single request larger than the whole server budget still runs when
	// the server is idle — per-request budgets gate size, the ledger gates
	// aggregation.
	huge := Cost{Cycles: 1000}
	if rej := l.TryAdmit(huge); rej != nil {
		t.Fatalf("idle-server admit of over-budget cost: %v", rej)
	}
	l.Release(huge)

	// Byte exhaustion has its own code.
	lb := NewLedger(Budget{MaxServerCycles: 1e18, MaxServerBytes: 100})
	if rej := lb.TryAdmit(Cost{AllocBytes: 80}); rej != nil {
		t.Fatal(rej)
	}
	rej = lb.TryAdmit(Cost{AllocBytes: 80})
	if rej == nil || rej.Code != "server_bytes" {
		t.Fatalf("byte exhaustion: got %+v", rej)
	}

	// Unbalanced Release clamps to empty instead of going negative.
	l.Release(Cost{Cycles: 1e9, AllocBytes: 1 << 40})
	cy, by, n := l.InFlight()
	if cy != 0 || by != 0 || n != 0 {
		t.Fatalf("clamp failed: %v %v %v", cy, by, n)
	}
}

func TestEstimatePlanPreBuildGate(t *testing.T) {
	cfg := machine.ScaledOrigin()
	app, err := apps.ByName("spmv")
	if err != nil {
		t.Skip("spmv not registered")
	}
	// A plan whose dataset exceeds the byte budget must be rejected from the
	// size alone — before Build gets a chance to allocate O(size) state.
	plan, err := campaign.NewPlan(app, cfg, 4, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	b := Budget{MaxRequestBytes: 1 << 20}
	_, rej := b.EstimatePlan(cfg, app, plan, 1)
	if rej == nil || rej.Status != http.StatusRequestEntityTooLarge || rej.Code != "cost_bytes" {
		t.Fatalf("pre-build gate: got %+v, want 413 cost_bytes", rej)
	}
}

func TestEstimateCostMonotonicInProcs(t *testing.T) {
	cfg := machine.ScaledOrigin()
	app, err := apps.ByName("swim")
	if err != nil {
		t.Fatal(err)
	}
	b := DefaultBudget()
	var prev float64
	for _, procs := range []int{4, 16, 64} {
		plan, err := campaign.NewPlan(app, cfg, procs, 0)
		if err != nil {
			t.Fatal(err)
		}
		cost, rej := b.EstimatePlan(cfg, app, plan, 1)
		if rej != nil {
			t.Fatal(rej)
		}
		if cost.Cycles <= prev {
			t.Fatalf("cost not monotone in procs: %d procs -> %.3g after %.3g", procs, cost.Cycles, prev)
		}
		prev = cost.Cycles
	}
}

// testSpec is a well-formed user program: a stencil-ish sweep with halo
// sharing, a gather, a critical section, and a serial region.
func testSpec() *ProgramSpec {
	return &ProgramSpec{
		Name: "stencil",
		Arrays: []ArraySpec{
			{Name: "u", Elems: 4096},
			{Name: "v", Elems: 4096},
		},
		Regions: []RegionSpec{
			{Name: "sweep", Ops: []OpSpec{
				{Kind: "read", Array: "u", InstrPer: 4, HaloElems: 8},
				{Kind: "write", Array: "v", InstrPer: 2},
				{Kind: "compute", Instr: 2000},
			}},
			{Name: "scatter", Ops: []OpSpec{
				{Kind: "gather", Array: "u", GatherEvery: 16, InstrPer: 3},
				{Kind: "critical", Instr: 200},
			}},
			{Name: "reduce", Serial: true, Ops: []OpSpec{
				{Kind: "read", Array: "v", InstrPer: 1},
			}},
		},
	}
}

func TestSpecValidate(t *testing.T) {
	if rej := testSpec().Validate(); rej != nil {
		t.Fatalf("valid spec rejected: %v", rej)
	}
	cases := []struct {
		name   string
		mutate func(*ProgramSpec)
		code   string
	}{
		{"empty name", func(s *ProgramSpec) { s.Name = "" }, "spec_name"},
		{"no arrays", func(s *ProgramSpec) { s.Arrays = nil }, "spec_arrays"},
		{"no regions", func(s *ProgramSpec) { s.Regions = nil }, "spec_regions"},
		{"zero elems", func(s *ProgramSpec) { s.Arrays[0].Elems = 0 }, "spec_array_elems"},
		{"huge elems", func(s *ProgramSpec) { s.Arrays[0].Elems = MaxSpecElems + 1 }, "spec_array_elems"},
		{"dup array", func(s *ProgramSpec) { s.Arrays[1].Name = "u" }, "spec_array_dup"},
		{"empty region", func(s *ProgramSpec) { s.Regions[0].Ops = nil }, "spec_region_ops"},
		{"unknown kind", func(s *ProgramSpec) { s.Regions[0].Ops[0].Kind = "teleport" }, "spec_op_kind"},
		{"undeclared array", func(s *ProgramSpec) { s.Regions[0].Ops[0].Array = "ghost" }, "spec_op_array"},
		{"compute with array", func(s *ProgramSpec) { s.Regions[0].Ops[2].Array = "u" }, "spec_op_array"},
		{"zero-instr compute", func(s *ProgramSpec) { s.Regions[0].Ops[2].Instr = 0 }, "spec_op_instr"},
		{"instr over cap", func(s *ProgramSpec) { s.Regions[0].Ops[2].Instr = MaxSpecInstr + 1 }, "spec_op_instr"},
		{"gather_every on read", func(s *ProgramSpec) { s.Regions[0].Ops[0].GatherEvery = 4 }, "spec_op_gather"},
		{"halo over cap", func(s *ProgramSpec) { s.Regions[0].Ops[0].HaloElems = MaxSpecElems + 1 }, "spec_op_halo"},
	}
	for _, tc := range cases {
		s := testSpec()
		tc.mutate(s)
		rej := s.Validate()
		if rej == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if rej.Status != http.StatusUnprocessableEntity {
			t.Errorf("%s: status %d, want 422", tc.name, rej.Status)
		}
		if rej.Code != tc.code {
			t.Errorf("%s: code %q, want %q", tc.name, rej.Code, tc.code)
		}
	}
}

// TestSpecEndToEnd runs a user-submitted spec through the real campaign and
// model — the adapter must produce programs the simulator accepts at every
// plan point.
func TestSpecEndToEnd(t *testing.T) {
	cfg := machine.TinyTest()
	spec := testSpec()
	if rej := spec.Validate(); rej != nil {
		t.Fatal(rej)
	}
	app := spec.App()
	plan, err := campaign.NewPlan(app, cfg, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	cost, rej := DefaultBudget().EstimatePlan(cfg, app, plan, 2)
	if rej != nil {
		t.Fatal(rej)
	}
	rn := &campaign.Runner{Cfg: cfg, Workers: 2}
	res, err := rn.Execute(context.Background(), app, plan)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.BaseRuns) != 3 {
		t.Fatalf("base runs: %d", len(res.BaseRuns))
	}
	// The closed-form estimate must genuinely bound the simulation: every
	// run's real simulated cycles stay under the estimated total.
	var realCycles float64
	for _, r := range res.BaseRuns {
		realCycles += float64(r.Report.WallCycles) * float64(r.Report.Procs)
	}
	if realCycles > cost.Cycles {
		t.Fatalf("estimate %.3g cycles below reality %.3g", cost.Cycles, realCycles)
	}
}

// TestSpecEstimateMatchesWalk pins the closed-form estimator to the
// program-walk estimator: same unit prices, so for a built spec the two
// must agree within the quantization slack.
func TestSpecEstimateMatchesWalk(t *testing.T) {
	cfg := machine.ScaledOrigin()
	spec := testSpec()
	app := spec.App()
	for _, procs := range []int{1, 4} {
		size := spec.TotalElems() * apps.ElemBytes
		built, err := app.Build(cfg, procs, size)
		if err != nil {
			t.Fatal(err)
		}
		walk := EstimateProgram(cfg, built)
		closed := app.(RunEstimator).EstimateRun(cfg, procs, size)
		if closed.Cycles < walk.Cycles*0.5 || closed.Cycles > walk.Cycles*2 {
			t.Fatalf("procs=%d: closed-form %.3g vs walk %.3g cycles — diverged", procs, closed.Cycles, walk.Cycles)
		}
	}
}

// TestPricedRunsAreTheStartedRuns: admission prices the runs Execute starts
// — the same count, and the spin kernel at the processor count it runs at,
// which is two even for a one-processor document. At its default size a
// one-processor hydro2d plan reaches too few uniprocessor sizes to fit and
// NewPlan refuses it; at half the L2 the plan adds sizes above s0 until two
// overflow the L2, so the one-processor case keeps a plan to price.
func TestPricedRunsAreTheStartedRuns(t *testing.T) {
	cfg := machine.ScaledOrigin()
	app, err := apps.ByName("hydro2d")
	if err != nil {
		t.Fatal(err)
	}
	for _, procs := range []int{1, 2, 4} {
		s0 := uint64(0)
		if procs == 1 {
			s0 = uint64(cfg.L2.SizeBytes) / 2
		}
		plan, err := campaign.NewPlan(app, cfg, procs, s0)
		if err != nil {
			t.Fatal(err)
		}
		cost, rej := DefaultBudget().EstimatePlan(cfg, app, plan, 1)
		if rej != nil {
			t.Fatalf("p%d: %v", procs, rej)
		}
		tr := obs.NewTracer()
		ctx := obs.NewContext(context.Background(), &obs.Observer{Trace: tr})
		if _, err := (&campaign.Runner{Cfg: cfg, Workers: 2}).Execute(ctx, app, plan); err != nil {
			t.Logf("p%d: %v", procs, err)
		}
		var buf bytes.Buffer
		if err := tr.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		var trace struct {
			TraceEvents []struct {
				Name string         `json:"name"`
				Args map[string]any `json:"args"`
			} `json:"traceEvents"`
		}
		if err := json.Unmarshal(buf.Bytes(), &trace); err != nil {
			t.Fatal(err)
		}
		// Price each started run on its own: the plan's price must be their
		// sum.
		started, spinProcs, want := 0, 0, 0.0
		for _, ev := range trace.TraceEvents {
			if ev.Name != "run" || ev.Args["skipped"] == true {
				continue
			}
			started++
			n := int(ev.Args["procs"].(float64))
			switch ev.Args["kind"] {
			case campaign.KindSync.String():
				want += float64(apps.SyncKernelBarriers) * barrierCycles(cfg, n)
			case campaign.KindSpin.String():
				spinProcs = n
				want += apps.SpinKernelPhases * barrierCycles(cfg, n) * 4
			default:
				prog, err := app.Build(cfg, n, uint64(ev.Args["size"].(float64)))
				if err != nil {
					t.Fatal(err)
				}
				want += EstimateProgram(cfg, prog).Cycles
			}
		}
		if cost.Runs != started {
			t.Errorf("p%d: priced %d runs, Execute started %d", procs, cost.Runs, started)
		}
		if spinProcs < 2 {
			t.Errorf("p%d: Execute ran the spin kernel on %d processors", procs, spinProcs)
		}
		if math.Abs(cost.Cycles-want) > 1e-9*want {
			t.Errorf("p%d: priced %.6g cycles, the started runs price at %.6g", procs, cost.Cycles, want)
		}
	}
}
