package admission

import (
	"context"
	"math"
	"net/http"

	"scaltool/internal/apps"
	"scaltool/internal/campaign"
	"scaltool/internal/machine"
	"scaltool/internal/recipe"
	"scaltool/internal/sim"
)

// Cost estimation. The admission decision needs the cost of a campaign
// *before* the campaign exists, from quantities a hostile client controls:
// regions × processors × dataset fraction. Two estimators provide it:
//
//   - EstimateProgram walks a built sim.Program and prices its ops.
//   - A RunEstimator (user program specs) prices a run in closed form from
//     the spec's counts, without building anything — building is exactly the
//     step whose allocations must be bounded first.
//
// Both charge the same pessimistic unit prices (accessCycles, barrier
// hot-spot serialization), so built-in and user-submitted programs are
// budgeted on the same scale. These are upper bounds, not predictions: the
// point is that no admitted request can cost more than estimated, and
// budgets are calibrated against the same estimator so the slack cancels.

// RunEstimator is implemented by applications that can price a run in
// closed form. EstimatePlan uses it instead of building the program — the
// only safe option for user-submitted specs, whose build-time allocations
// are the thing being gated.
type RunEstimator interface {
	EstimateRun(cfg machine.Config, procs int, dataBytes uint64) Cost
}

// Per-entity accounting sizes (bytes, deliberately generous): simulator
// cache-line state, directory/page-table entries, and retained per-region ×
// per-processor timeline records.
const (
	lineStateBytes = 64
	pageStateBytes = 96
	phaseBytes     = 128
	procStateBytes = 512
)

// accessCycles prices one memory access at its worst: L1 miss, L2 miss,
// remote home (hypercube diameter hops), dirty forward.
func accessCycles(cfg machine.Config, procs int) float64 {
	hops := 1
	for nodes := (procs + cfg.ProcsPerRouter - 1) / cfg.ProcsPerRouter; nodes > 1; nodes /= 2 {
		hops++
	}
	return cfg.Cost.L1HitCPI +
		float64(cfg.Lat.L2Hit+cfg.Lat.MemLocal+cfg.Lat.Directory+cfg.Lat.DirtyFwd+cfg.Lat.TLBMiss) +
		float64(2*hops*cfg.Lat.RouterHop)
}

// barrierCycles prices one region's closing barrier: entry/exit
// instructions and fetchop acquire per processor, plus the release flag's
// serialized per-waiter service — the hot spot that grows with the
// processor count — charged to every waiter.
func barrierCycles(cfg machine.Config, procs int) float64 {
	p := float64(procs)
	return p*(float64(cfg.Sync.BarrierInstr)*cfg.Cost.ComputeCPI+float64(cfg.Lat.SyncAcquire)) +
		p*p*float64(cfg.Lat.SyncService)
}

// opTally accumulates a program's (or spec's) raw counts.
type opTally struct {
	instr         float64 // non-memory instructions, all processors
	accesses      float64 // memory accesses, all processors
	criticalInstr float64 // instructions inside critical sections
	gatherBytes   int64   // retained gather address-list bytes
	regions       int
}

// cost prices a tally on a machine.
func (t opTally) cost(cfg machine.Config, procs int, spaceBytes uint64) Cost {
	cycles := t.instr*cfg.Cost.ComputeCPI + t.accesses*accessCycles(cfg, procs)
	// Critical sections serialize across processors: the worst waiter sees
	// every other processor's sections ahead of its own.
	cycles += t.criticalInstr * cfg.Cost.ComputeCPI * float64(procs-1)
	cycles += float64(t.regions) * barrierCycles(cfg, procs)

	lines := int64(spaceBytes) / int64(cfg.L2.LineBytes)
	if fa := int64(t.accesses); lines > fa { // can't touch more lines than accesses
		lines = fa
	}
	pages := int64(spaceBytes)/int64(cfg.PageBytes) + 1
	timeline := int64(t.regions)*int64(procs)*phaseBytes + int64(procs)*procStateBytes
	alloc := int64(procs)*int64(cfg.L1.Lines()+cfg.L2.Lines())*lineStateBytes +
		lines*lineStateBytes + pages*pageStateBytes + t.gatherBytes + timeline

	return Cost{Cycles: cycles, AllocBytes: alloc, TimelineBytes: timeline, Runs: 1}
}

// EstimateProgram prices one built program: the predicted simulated cycles
// (upper bound), allocation footprint, and retained timeline bytes of
// running it on cfg.
func EstimateProgram(cfg machine.Config, prog *sim.Program) Cost {
	return censusCost(cfg, prog.Census())
}

// censusCost prices a program's op census on cfg. A census is all
// EstimateProgram reads from a program, so the recipe table's census prices
// a run exactly as a fresh build would.
func censusCost(cfg machine.Config, c sim.Census) Cost {
	t := opTally{
		instr:         c.Instr + float64(c.CriticalOps)*float64(cfg.Sync.LockInstr),
		accesses:      c.Accesses,
		criticalInstr: c.CriticalInstr,
		gatherBytes:   int64(c.GatherAddrs) * 8,
		regions:       c.Regions,
	}
	return t.cost(cfg, c.Procs, c.SpaceBytes)
}

// EstimatePlan prices the full campaign a plan implies — base runs at every
// processor count, uniprocessor runs at every fractional size, the
// synchronization and spin kernels — against budget b. It is
// EstimatePlanContext without an observer.
func (b Budget) EstimatePlan(cfg machine.Config, app apps.App, plan campaign.Plan, workers int) (Cost, *Rejection) {
	return b.EstimatePlanContext(context.Background(), cfg, app, plan, workers)
}

// EstimatePlanContext is EstimatePlan with ctx's observer counting the
// program builds pricing causes.
//
// Safety ordering matters here: every run's dataset size is checked against
// the request byte budget *before* any program is built, because builders
// allocate address lists proportional to the dataset (a build can be the
// attack). Applications implementing RunEstimator are priced in closed form
// and never built. Every other run is priced from the recipe table
// (internal/recipe), which builds a program only on its recipe's first
// sight in this process. workers is the simulation concurrency the server
// will use; transient build/run footprints are charged for that many
// concurrent runs, retained timelines for all of them.
//
// The serving layer calls it once per request through a route's price
// function, which the static call graph cannot follow, so it is marked a
// hot root itself:
//
//scalvet:hot
func (b Budget) EstimatePlanContext(ctx context.Context, cfg machine.Config, app apps.App, plan campaign.Plan, workers int) (Cost, *Rejection) {
	b = b.withDefaults()
	if workers < 1 {
		workers = 1
	}

	jobs := plan.Jobs()
	// Pre-build gate: a build's own allocations are O(size) (address lists,
	// partition tables), so a size over the byte budget is refused before
	// anything is built or tabled.
	for _, j := range jobs {
		if int64(j.Size) > b.MaxRequestBytes {
			return Cost{}, Reject(http.StatusRequestEntityTooLarge, "cost_bytes",
				"campaign data-set size %d bytes exceeds the per-request byte budget of %d (building it would, before simulating anything)",
				j.Size, b.MaxRequestBytes) //scalvet:ignore rejection early-exit: fires at most once, then returns
		}
	}

	est, _ := app.(RunEstimator)
	var (
		cycles       float64
		maxTransient int64
		retained     int64
		nRuns        int
	)
	for _, j := range jobs {
		// The estimation kernels' footprints are tiny and fixed; price them
		// as pure barrier/spin work so the totals stay honest.
		switch j.Kind {
		case campaign.KindSync:
			cycles += float64(apps.SyncKernelBarriers) * barrierCycles(cfg, j.Procs)
			retained += int64(j.Procs) * (phaseBytes + procStateBytes)
			nRuns++
			continue
		case campaign.KindSpin:
			cycles += apps.SpinKernelPhases * barrierCycles(cfg, j.Procs) * 4 // barriers + spin-wait padding
			retained += int64(j.Procs) * (phaseBytes + procStateBytes)
			nRuns++
			continue
		}
		var c Cost
		if est != nil {
			c = est.EstimateRun(cfg, j.Procs, j.Size)
		} else {
			rcp := recipe.ForApp(app, cfg, j.Procs, j.Size)
			e, prog := recipe.Default.Resolve(ctx, rcp)
			// A program built here is the one this request's run needs
			// next: hand it over instead of building it twice.
			recipe.Keep(ctx, rcp, prog)
			if e.Err != nil {
				// The campaign skips sizes the application's grid cannot
				// realize; so does the estimate. A base-run build error
				// surfaces later as the request's own semantic failure.
				continue
			}
			c = censusCost(cfg, e.Census)
		}
		cycles += c.Cycles
		retained += c.TimelineBytes
		if tr := c.AllocBytes - c.TimelineBytes; tr > maxTransient {
			maxTransient = tr
		}
		nRuns += c.Runs
	}

	conc := workers
	if conc > nRuns {
		conc = nRuns
	}
	c := Cost{
		Cycles:        cycles,
		AllocBytes:    maxTransient*int64(conc) + retained,
		TimelineBytes: retained,
		Runs:          nRuns,
	}
	if math.IsNaN(c.Cycles) || math.IsInf(c.Cycles, 0) {
		return Cost{}, Reject(http.StatusUnprocessableEntity, "cost_overflow",
			"request cost overflows the estimator")
	}
	return c, nil
}

// EstimateDiagnose prices a diagnosis request: the underlying campaign
// plus the diagnosis overlay. The overlay's retained state — per-region ×
// per-processor curves, the structure graph, the encoded report — is
// bounded by one more copy of the campaign's retained timeline records,
// so it is charged exactly that.
func (b Budget) EstimateDiagnose(cfg machine.Config, app apps.App, plan campaign.Plan, workers int) (Cost, *Rejection) {
	return b.EstimateDiagnoseContext(context.Background(), cfg, app, plan, workers)
}

// EstimateDiagnoseContext is EstimateDiagnose with ctx's observer counting
// the program builds pricing causes.
//
//scalvet:hot
func (b Budget) EstimateDiagnoseContext(ctx context.Context, cfg machine.Config, app apps.App, plan campaign.Plan, workers int) (Cost, *Rejection) {
	c, rej := b.EstimatePlanContext(ctx, cfg, app, plan, workers)
	if rej != nil {
		return Cost{}, rej
	}
	c.AllocBytes += c.TimelineBytes
	return c, nil
}
