package admission

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"scaltool/internal/apps"
	"scaltool/internal/campaign"
	"scaltool/internal/machine"
	"scaltool/internal/obs"
	"scaltool/internal/recipe"
	"scaltool/internal/runcache"
	"scaltool/internal/sim"
)

// builds returns a context whose observer counts program builds, and a
// reader for the total across causes.
func builds() (context.Context, func() uint64) {
	mt := obs.NewMetrics()
	ctx := obs.NewContext(context.Background(), &obs.Observer{Metrics: mt})
	return ctx, func() uint64 {
		var n uint64
		for _, c := range []string{recipe.CauseRecipe, recipe.CauseMiss, recipe.CauseGraph} {
			n += mt.Counter("scaltool_program_builds_total", "", "cause", c).Value()
		}
		return n
	}
}

// walkCost is the op-by-op program walk admission priced with before the
// recipe table: the reference the census pricing must reproduce bit for bit.
func walkCost(cfg machine.Config, prog *sim.Program) Cost {
	var t opTally
	regions := prog.Regions()
	t.regions = len(regions)
	for ri := range regions {
		for pi := range regions[ri].Streams {
			for _, op := range regions[ri].Streams[pi].Ops {
				switch op.Kind {
				case sim.OpCompute:
					t.instr += float64(op.Instr)
				case sim.OpSeq:
					t.accesses += float64(op.Count)
					t.instr += float64(op.Count) * float64(op.InstrPer)
				case sim.OpGather:
					n := float64(len(op.Addrs))
					t.accesses += n
					t.instr += n * float64(op.InstrPer)
					t.gatherBytes += int64(len(op.Addrs)) * 8
				case sim.OpCritical:
					t.instr += float64(op.Instr) + float64(cfg.Sync.LockInstr)
					t.criticalInstr += float64(op.Instr)
				}
			}
		}
	}
	return t.cost(cfg, prog.Procs, prog.SpaceBytes())
}

func sameCost(a, b Cost) bool {
	return math.Float64bits(a.Cycles) == math.Float64bits(b.Cycles) &&
		a.AllocBytes == b.AllocBytes && a.TimelineBytes == b.TimelineBytes && a.Runs == b.Runs
}

// TestRecipeTableDifferential holds the table to a fresh build for every
// registry application × power-of-two processor count 1–32 × every size
// of its 32-processor plan × both machines: the served key equals KeyFor, the
// served price equals EstimateProgram and the pre-table op walk bit for
// bit, a refused size replays its build error verbatim — and the second
// resolve builds nothing.
func TestRecipeTableDifferential(t *testing.T) {
	machines := []machine.Config{machine.ScaledOrigin(), machine.Origin2000()}
	if testing.Short() {
		machines = machines[:1]
	}
	for _, cfg := range machines {
		for _, name := range apps.Names() {
			app, err := apps.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			plan, err := campaign.NewPlan(app, cfg, 32, 0)
			if err != nil {
				t.Fatal(err)
			}
			for procs := 1; procs <= 32; procs *= 2 {
				for _, size := range append([]uint64{plan.S0}, plan.UniSizes...) {
					r := recipe.ForApp(app, cfg, procs, size)
					recipe.Default.Resolve(context.Background(), r)
					ctx, count := builds()
					e, prog := recipe.Default.Resolve(ctx, r)
					if prog != nil || count() != 0 {
						t.Fatalf("%s %s p%d s%d: a warm resolve built the program", cfg.Name, name, procs, size)
					}
					fresh, ferr := app.Build(cfg, procs, size)
					if ferr != nil {
						if e.Err == nil || e.Err.Error() != ferr.Error() {
							t.Fatalf("%s %s p%d s%d: served error %v, fresh build %v", cfg.Name, name, procs, size, e.Err, ferr)
						}
						continue
					}
					if e.Err != nil {
						t.Fatalf("%s %s p%d s%d: served error %v for a size that builds", cfg.Name, name, procs, size, e.Err)
					}
					if e.Key != runcache.KeyFor(cfg, fresh) {
						t.Fatalf("%s %s p%d s%d: served key differs from KeyFor", cfg.Name, name, procs, size)
					}
					served := censusCost(cfg, e.Census)
					if want := EstimateProgram(cfg, fresh); !sameCost(served, want) {
						t.Fatalf("%s %s p%d s%d: served cost %+v, EstimateProgram %+v", cfg.Name, name, procs, size, served, want)
					}
					if want := walkCost(cfg, fresh); !sameCost(served, want) {
						t.Fatalf("%s %s p%d s%d: served cost %+v, op walk %+v", cfg.Name, name, procs, size, served, want)
					}
				}
			}
		}
	}
}

// TestEstimatePlanWarmBuildsNothing: pricing a plan a second time is served
// entirely from the table, at the same price.
func TestEstimatePlanWarmBuildsNothing(t *testing.T) {
	cfg := machine.ScaledOrigin()
	app := apps.NewHydro2d()
	app.Params.Steps = 5 // recipes unique to this test
	plan, err := campaign.NewPlan(app, cfg, 16, 0)
	if err != nil {
		t.Fatal(err)
	}
	b := DefaultBudget()
	ctx, count := builds()
	cold, rej := b.EstimatePlanContext(ctx, cfg, app, plan, 2)
	if rej != nil {
		t.Fatal(rej)
	}
	if n := count(); n != uint64(len(plan.ProcCounts)+len(plan.UniSizes)) {
		t.Fatalf("cold estimate built %d programs, want one per run (%d)", n, len(plan.ProcCounts)+len(plan.UniSizes))
	}
	warm, rej := b.EstimatePlanContext(ctx, cfg, app, plan, 2)
	if rej != nil {
		t.Fatal(rej)
	}
	if n := count(); n != uint64(len(plan.ProcCounts)+len(plan.UniSizes)) {
		t.Fatalf("warm estimate built %d more programs, want 0", n-uint64(len(plan.ProcCounts)+len(plan.UniSizes)))
	}
	if !sameCost(cold, warm) {
		t.Fatalf("warm price %+v differs from cold %+v", warm, cold)
	}
}

// TestPreBuildGateTouchesNoTable: a plan whose largest run is over the byte
// budget is refused before any of its runs is built or tabled — including
// the runs that would fit.
func TestPreBuildGateTouchesNoTable(t *testing.T) {
	cfg := machine.Origin2000()
	app := apps.NewSwim()
	app.Params.Steps = 3 // recipes unique to this test
	// s0 = 1 MiB is far below the 6 MiB overflow threshold, so the plan adds
	// sizes up to 16× s0; the budget admits s0 and refuses the larger ones.
	plan, err := campaign.NewPlan(app, cfg, 4, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if last := plan.UniSizes[len(plan.UniSizes)-1]; last <= 2<<20 {
		t.Fatalf("plan's largest size %d fits the budget; the test needs one over it", last)
	}
	before := recipe.Default.Len()
	ctx, count := builds()
	_, rej := Budget{MaxRequestBytes: 2 << 20}.EstimatePlanContext(ctx, cfg, app, plan, 1)
	if rej == nil || rej.Code != "cost_bytes" {
		t.Fatalf("got %+v, want a cost_bytes rejection", rej)
	}
	if n := count(); n != 0 {
		t.Fatalf("the refused plan built %d programs first", n)
	}
	if after := recipe.Default.Len(); after != before {
		t.Fatalf("the refused plan tabled %d recipes", after-before)
	}
}

// TestSpecsShareEntriesByContentOnly: user programs are tabled by content.
// Two decodings of one document share entries; a spec with the same Name
// and different content never does.
func TestSpecsShareEntriesByContentOnly(t *testing.T) {
	cfg := machine.ScaledOrigin()
	decode := func(doc string) apps.App {
		var s ProgramSpec
		if err := json.Unmarshal([]byte(doc), &s); err != nil {
			t.Fatal(err)
		}
		if rej := s.Validate(); rej != nil {
			t.Fatal(rej)
		}
		return s.App()
	}
	const doc = `{"name":"twin","arrays":[{"name":"a","elems":%d}],"regions":[{"name":"r","ops":[{"kind":"read","array":"a","instr_per":%d}]}]}`
	a := decode(fmt.Sprintf(doc, 3001, 2))
	same := decode(fmt.Sprintf(doc, 3001, 2))
	elems := decode(fmt.Sprintf(doc, 3002, 2))
	ops := decode(fmt.Sprintf(doc, 3001, 3))

	// Every run is requested at 24 000 bytes: the two array sizes scale to
	// the same build there, so only the spec's content can tell them apart.
	ctx, count := builds()
	resolve := func(app apps.App) recipe.Entry {
		r := recipe.ForApp(app, cfg, 2, 24_000)
		e, _ := recipe.Default.Resolve(ctx, r)
		fresh, err := app.Build(cfg, 2, 24_000)
		if e.Err != nil || err != nil {
			t.Fatal(e.Err, err)
		}
		if e.Key != runcache.KeyFor(cfg, fresh) {
			t.Fatal("served key differs from the spec's own build")
		}
		return e
	}
	ea := resolve(a)
	n := count()
	if e := resolve(same); e != ea || count() != n {
		t.Fatal("an identical spec decoded again did not share the entry")
	}
	for _, other := range []apps.App{elems, ops} {
		if resolve(other); count() != n+1 {
			t.Fatal("a spec with the same name and different content shared an entry")
		}
		n = count()
	}
}

// TestTableBoundedUnderHostileStreams feeds the table the committed
// FuzzProgramAdmission corpus at a stream of unique sizes, plus built-in
// plans at unique s0 values, well past its capacity: it never holds more
// than recipe.Capacity entries.
func TestTableBoundedUnderHostileStreams(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a few thousand small programs")
	}
	cfg := machine.ScaledOrigin()
	check := func(when string) {
		if n := recipe.Default.Len(); n > recipe.Capacity {
			t.Fatalf("%s: the table holds %d entries, over its cap of %d", when, n, recipe.Capacity)
		}
	}
	files, err := filepath.Glob("testdata/fuzz/FuzzProgramAdmission/*")
	if err != nil || len(files) == 0 {
		t.Fatalf("no committed corpus: %v", err)
	}
	var specs []apps.App
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.SplitN(string(data), "\n", 3)
		lit := strings.TrimSuffix(strings.TrimPrefix(strings.TrimSpace(lines[1]), "[]byte("), ")")
		doc, err := strconv.Unquote(lit)
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		var s ProgramSpec
		if json.Unmarshal([]byte(doc), &s) != nil || s.Validate() != nil {
			continue
		}
		if s.TotalElems() > 1<<16 {
			continue // admitted only by size; the stream below needs cheap builds
		}
		specs = append(specs, s.App())
	}
	if len(specs) == 0 {
		t.Fatal("no corpus spec validates")
	}
	ctx := context.Background()
	for i := 0; i < recipe.Capacity+64; i++ {
		app := specs[i%len(specs)]
		recipe.Default.Resolve(ctx, recipe.ForApp(app, cfg, 1, 4096+uint64(i)*8))
	}
	check("after the corpus stream")
	swim, _ := apps.ByName("swim")
	b := DefaultBudget()
	for i := 0; i < recipe.Capacity/4; i++ {
		plan, err := campaign.NewPlan(swim, cfg, 4, 100_000+uint64(i)*97)
		if err != nil {
			t.Fatal(err)
		}
		if _, rej := b.EstimatePlan(cfg, swim, plan, 1); rej != nil {
			t.Fatal(rej)
		}
	}
	check("after the unique-s0 stream")
}
