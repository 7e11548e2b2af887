package sim

import (
	"context"
	"fmt"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"

	"scaltool/internal/assert"
	"scaltool/internal/counters"
	"scaltool/internal/directory"
	"scaltool/internal/machine"
	"scaltool/internal/obs"
)

// engine holds the per-run bookkeeping of one simulation: the immutable
// inputs (cfg, prog), the pooled machine state (st), and the accumulators
// that escape into the Result. The machine state lives in runState so it can
// be recycled across runs; the accumulators are freshly allocated because
// the Result aliases them.
type engine struct {
	cfg  machine.Config
	prog *Program
	st   *runState

	l2Shift   uint // log2(L2 line bytes) for addr→line
	pageShift uint // log2(page bytes) for addr→page

	perProc []counters.Set
	busy    []float64
	syncT   []float64
	imb     []float64

	wall         float64
	barrierCount uint64
	lockCount    uint64
	barrierCoh   uint64 // release-flag coherence misses injected at barriers
	regions      []RegionAttribution
	segCounters  []segRegion // per-region per-processor counter deltas (segment analysis)
}

// segRegion captures one region's counter deltas for segment-level reports.
type segRegion struct {
	name    string
	perProc []counters.Set
}

// Run executes a program on a machine and returns the counter report plus
// ground truth. The simulation is deterministic: the same (cfg, prog) pair
// always produces an identical Result, regardless of GOMAXPROCS.
func Run(cfg machine.Config, prog *Program) (*Result, error) {
	return RunContext(context.Background(), cfg, prog)
}

// RunContext is Run with cooperative cancellation. The engine checks the
// context at every barrier region boundary — the natural quiescent points —
// and additionally as each processor's stream starts inside a region. It
// returns the context's error, without a result, once it is canceled or its
// deadline passes; a canceled run NEVER returns a Result assembled from
// incompletely simulated streams, no matter where — including inside the
// final region — the cancellation lands. A run whose every stream completed
// wins the race and returns normally.
//
// An observer in ctx (internal/obs) gets a "sim.run" span plus the run's
// simulated-cycle and region counters; the per-access hot loop is never
// instrumented.
func RunContext(ctx context.Context, cfg machine.Config, prog *Program) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	if err := prog.Validate(); err != nil {
		return nil, err
	}
	ctx, span := obs.StartSpan(ctx, "sim.run",
		obs.A("prog", prog.Name), obs.A("procs", prog.Procs), obs.A("bytes", prog.DataBytes))
	defer span.End()
	// Acquire the pooled machine state first: it validates the page size
	// (returning an error for a bad PageBytes before log2 can assert on it).
	st, err := acquireRunState(&cfg, prog)
	if err != nil {
		return nil, err
	}
	defer runPool.Put(st)
	e := &engine{
		cfg:         cfg,
		prog:        prog,
		st:          st,
		l2Shift:     log2(cfg.L2.LineBytes),
		pageShift:   log2(cfg.PageBytes),
		perProc:     make([]counters.Set, prog.Procs),
		busy:        make([]float64, prog.Procs),
		syncT:       make([]float64, prog.Procs),
		imb:         make([]float64, prog.Procs),
		regions:     make([]RegionAttribution, 0, len(prog.Regions())),
		segCounters: make([]segRegion, 0, len(prog.Regions())),
	}
	for p := 0; p < prog.Procs; p++ {
		st.lanes[p].bind(e, p)
	}

	// The synchronization page is initialized by processor 0 before the
	// first parallel region (its barrier/lock variables are homed there).
	e.st.mem.HomeOf(prog.BarrierAddr(), 0)
	e.st.mem.HomeOf(prog.LockAddr(), 0)

	for i := range prog.Regions() {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("sim: run of %s stopped after %d of %d regions: %w",
				prog.Name, i, len(prog.Regions()), err)
		}
		if err := e.runRegion(ctx, &prog.Regions()[i]); err != nil {
			// The region's parallel phase was cut short: some processor
			// streams never ran, so the engine's counters are incomplete.
			// Returning a Result built from them would silently under-count
			// every downstream estimate — return the cancellation instead.
			return nil, fmt.Errorf("sim: run of %s canceled inside region %d of %d (%s): %w",
				prog.Name, i+1, len(prog.Regions()), prog.Regions()[i].Name, err)
		}
	}
	res := e.result()
	if mt := obs.Meter(ctx); mt != nil {
		mt.Counter("scaltool_sim_runs_total", "simulated runs completed").Inc()
		mt.Counter("scaltool_sim_regions_total", "barrier regions simulated").Add(e.barrierCount)
		mt.Counter("scaltool_sim_cycles_total", "simulated wall cycles, summed over runs").Add(round(e.wall))
		mt.Histogram("scaltool_sim_run_cycles", "simulated wall cycles per run", obs.CycleBuckets).Observe(e.wall)
	}
	span.SetAttr("wall_cycles", res.WallCycles)
	span.SetAttr("regions", len(res.Ground.Regions))
	return res, nil
}

// log2 returns log2(v) for a positive power of two, asserting the
// precondition instead of silently flooring it: a flooring log2 fed a
// non-power-of-two line or page size would misalign every address→line
// mapping in the run and quietly corrupt the results. Callers validate
// sizes (machine.Validate, memdsm.NewMemory) before this can fire.
func log2(v int) uint {
	assert.True(v > 0 && v&(v-1) == 0, "sim: log2 of %d, which is not a positive power of two", v)
	return uint(bits.TrailingZeros(uint(v)))
}

// runRegion executes one barrier-delimited region. It returns the context's
// error when cancellation cut the region's parallel phase short — in that
// case some streams never ran and the engine's state must not be turned into
// a Result.
func (e *engine) runRegion(ctx context.Context, r *Region) error {
	// Phase 0 — page-home assignment, sequentially in processor order so
	// first-touch placement is deterministic (ties between processors that
	// both first-touch a page in this region go to the lower processor ID).
	for p := range r.Streams {
		e.assignHomes(p, &r.Streams[p])
	}

	// Phase 1 — per-processor lane simulation against the immutable
	// directory snapshot, on a bounded worker pool: min(procs, GOMAXPROCS)
	// workers pull lane indices from an atomic counter, so a 64-processor
	// region on a 4-core host runs 4 goroutines, not 64. Lanes only mutate
	// their own processor's state, so any lane-to-worker assignment gives
	// identical bytes. A worker that observes cancellation bails and flags
	// the region incomplete; the flag — not a later ctx.Err() check, which
	// a cancel-after-completion would trip spuriously — decides whether the
	// region's outputs are trustworthy.
	n := e.prog.Procs
	var incomplete atomic.Bool
	workers := n
	if mp := runtime.GOMAXPROCS(0); workers > mp {
		workers = mp
	}
	if workers <= 1 {
		for p := 0; p < n; p++ {
			if ctx.Err() != nil {
				incomplete.Store(true)
				break
			}
			e.st.lanes[p].run(&r.Streams[p])
		}
	} else {
		var next atomic.Int32
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					p := int(next.Add(1)) - 1
					if p >= n {
						return
					}
					if ctx.Err() != nil {
						incomplete.Store(true) // canceled mid-region: lane p never ran
						return
					}
					e.st.lanes[p].run(&r.Streams[p])
				}
			}()
		}
		wg.Wait()
	}
	if incomplete.Load() {
		err := ctx.Err()
		if err == nil {
			// Unreachable in practice (a worker only sets the flag after
			// seeing a non-nil ctx.Err()), but never report a corrupt region
			// as a clean cancellation.
			err = context.Canceled
		}
		return err
	}

	// Phase 2 — lock serialization: critical sections execute one at a
	// time; processor p waits out the critical sections of lower-numbered
	// processors (deterministic FIFO by processor ID). The wait is spin
	// time attributed to synchronization, matching speedshop's placement of
	// mp_lock_try() among the barrier-related routines.
	var csPrefix float64
	lockWait := e.st.lockWait
	for p := 0; p < n; p++ {
		lockWait[p] = 0
		if cs := e.st.lanes[p].out.cs; cs > 0 {
			lockWait[p] = csPrefix
			csPrefix += cs
		}
	}

	// Phase 3 — barrier. Every processor arrives, performs the barrier
	// entry work and the fetchop access to the barrier variable's home
	// (arrivals pipeline at the home: typically spread in time), then
	// spins until the last arrival. The release is the hot spot: every
	// waiter re-reads the released flag at its home, and those reads are
	// serviced serially — the term that makes barrier cost grow with the
	// processor count, independent of how skewed the arrivals were.
	bhome := e.st.mem.Home(e.prog.BarrierAddr())
	entryCycles := float64(e.cfg.Sync.BarrierInstr) * e.cfg.Cost.ComputeCPI

	arrival := e.st.arrival
	for p := 0; p < n; p++ {
		arrival[p] = e.st.lanes[p].out.work + lockWait[p]
	}
	fetchDone := e.st.fetchDone
	lastDone := 0.0
	for p := 0; p < n; p++ {
		fetchDone[p] = arrival[p] + entryCycles +
			float64(e.st.net.RoundTripCycles(p, bhome)+e.cfg.Lat.SyncAcquire)
		if fetchDone[p] > lastDone {
			lastDone = fetchDone[p]
		}
	}

	releaseLat := func(p int) float64 {
		if n == 1 {
			return 0 // the sole arriver releases itself; no flag miss
		}
		// Serialized flag service in processor order, plus the waiter's
		// own directory/network path.
		return float64((p+1)*e.cfg.Lat.SyncService + e.cfg.Lat.Directory + e.st.net.RoundTripCycles(p, bhome))
	}
	regionEnd := 0.0
	for p := 0; p < n; p++ {
		if end := lastDone + releaseLat(p); end > regionEnd {
			regionEnd = end
		}
	}

	segSets := make([]counters.Set, n)

	// Phase 4 — attribution and counters. Attribution follows speedshop
	// semantics: time waiting for the last arriver is load imbalance
	// (mp_slave_wait_for_work); everything from the last arrival to the
	// region end — entry work, fetchop serialization, release — is
	// synchronization (mp_barrier), as is lock waiting (mp_lock_try).
	maxArrival := arrival[0]
	for _, a := range arrival[1:n] {
		if a > maxArrival {
			maxArrival = a
		}
	}
	barrierDrain := regionEnd - maxArrival
	att := RegionAttribution{Name: r.Name, PerProc: make([]ProcPhases, n)}
	for p := 0; p < n; p++ {
		o := &e.st.lanes[p].out
		syncCycles := lockWait[p] + barrierDrain
		imbCycles := maxArrival - arrival[p]

		e.busy[p] += o.work
		e.syncT[p] += syncCycles
		e.imb[p] += imbCycles
		att.Busy += o.work
		att.Sync += syncCycles
		att.Imb += imbCycles
		att.PerProc[p] = ProcPhases{Busy: o.work, Sync: syncCycles, Imb: imbCycles}

		c := &segSets[p]
		c.Add(counters.Cycles, round(regionEnd))
		c.Add(counters.GradInstr, o.instr+uint64(e.cfg.Sync.BarrierInstr))
		c.Add(counters.GradLoads, o.loads)
		c.Add(counters.GradStores, o.stores+1) // the fetchop store
		c.Add(counters.L1DMisses, o.l1miss)
		c.Add(counters.L2Misses, o.l2miss)
		c.Add(counters.StoreShared, o.storeShared)
		c.Add(counters.TLBMisses, o.tlbMiss)
		if n > 1 {
			// The ntsync event: storing to the barrier line every other
			// processor also holds (§2.4.2), plus the release-flag reread,
			// which is a genuine coherence miss.
			c.Add(counters.StoreShared, 1)
			c.Add(counters.L1DMisses, 1)
			c.Add(counters.L2Misses, 1)
			c.Add(counters.GradLoads, 1)
			e.barrierCoh++
		}
		// Spin instructions: lock waits (sync bucket) and barrier waits
		// (imbalance bucket) both execute the spin loop.
		si, sl := e.spinOps(lockWait[p] + imbCycles)
		c.Add(counters.GradInstr, si)
		c.Add(counters.GradLoads, sl)
		e.perProc[p].Merge(*c)
		if o.storeShared > 0 && n == 1 && e.cfg.Protocol == machine.Illinois {
			// Under Illinois a sole processor always holds its data E/M;
			// a uniprocessor store-to-shared event is a simulator bug.
			assert.Failf("sim: store-to-shared event on a uniprocessor run")
		}
		e.lockCount += o.locks
	}
	e.barrierCount++
	e.wall += regionEnd
	e.regions = append(e.regions, att)
	e.segCounters = append(e.segCounters, segRegion{name: r.Name, perProc: segSets})

	// Phase 5 — coherence merge in processor order, then apply the
	// resulting invalidations and downgrades to the caches. A uniprocessor
	// run skips the phase outright: its lone lane records no read/write sets
	// (nothing to invalidate, nowhere), the merge could only produce empty
	// lists and zero counters, and the directory stays empty.
	if n > 1 {
		accesses := e.st.accesses[:0]
		for p := 0; p < n; p++ {
			o := &e.st.lanes[p].out
			if len(o.readFills) == 0 && len(o.writes) == 0 {
				continue
			}
			accesses = append(accesses, directory.RegionAccess{
				Proc:      p,
				ReadFills: o.readFills,
				Writes:    o.writes,
			})
		}
		e.st.accesses = accesses
		res := e.st.dir.Merge(accesses)
		for _, inv := range res.Invalidations {
			e.st.hiers[inv.Proc].InvalidateRemote(inv.Line)
		}
		for _, dg := range res.Downgrades {
			e.st.hiers[dg.Proc].DowngradeRemote(dg.Line)
		}
	}
	return nil
}

// spinOps converts a spin-wait duration into executed instructions/loads.
func (e *engine) spinOps(cycles float64) (instr, loads uint64) {
	if cycles <= 0 {
		return 0, 0
	}
	iterCost := float64(e.cfg.Sync.SpinLoopInstr) * e.cfg.Sync.SpinLoopCPI
	iters := uint64(cycles / iterCost)
	return iters * uint64(e.cfg.Sync.SpinLoopInstr), iters
}

func round(v float64) uint64 {
	if v <= 0 {
		return 0
	}
	return uint64(v + 0.5)
}

// assignHomes walks a stream's address footprint and assigns first-touch
// page homes, cheaply (page-granular, skipping already-assigned pages).
func (e *engine) assignHomes(p int, s *Stream) {
	page := uint64(e.cfg.PageBytes)
	lastPage := uint64(1<<64 - 1)
	touch := func(addr uint64) {
		pg := addr / page
		if pg == lastPage {
			return
		}
		lastPage = pg
		e.st.mem.HomeOf(addr, p)
	}
	for _, op := range s.Ops {
		switch op.Kind {
		case OpSeq:
			if abs := op.Stride; abs >= 0 && uint64(abs) <= page {
				// Dense or near-dense: touch the covered range page by page.
				end := op.Base + uint64(op.Count-1)*uint64(op.Stride)
				for a := op.Base &^ (page - 1); a <= end; a += page {
					touch(a)
				}
				touch(end)
			} else {
				a := int64(op.Base)
				for i := uint64(0); i < op.Count; i++ {
					touch(uint64(a))
					a += op.Stride
				}
			}
		case OpGather:
			for _, a := range op.Addrs {
				touch(a)
			}
		}
	}
}

// result assembles the final Result.
func (e *engine) result() *Result {
	n := e.prog.Procs
	res := &Result{
		MachineName: e.cfg.Name,
		Procs:       n,
		DataBytes:   e.prog.DataBytes,
		WallCycles:  e.wall,
	}
	res.Report = counters.RunReport{
		Machine:      e.cfg.Name,
		App:          e.prog.Name,
		Procs:        n,
		DataBytes:    e.prog.DataBytes,
		PerProc:      e.perProc,
		WallCycles:   round(e.wall),
		Barriers:     e.barrierCount,
		Locks:        e.lockCount,
		TouchedPages: e.st.mem.TouchedPages(),
		PageBytes:    e.cfg.PageBytes,
	}
	g := &res.Ground
	g.PerProcBusy = e.busy
	g.PerProcSync = e.syncT
	g.PerProcImb = e.imb
	for p := 0; p < n; p++ {
		g.BusyCycles += e.busy[p]
		g.SyncCycles += e.syncT[p]
		g.ImbCycles += e.imb[p]
		st := e.st.hiers[p].Stats()
		g.Compulsory += st.Compulsory
		g.Coherence += st.Coherence
		g.Conflict += st.Conflict
	}
	g.Coherence += e.barrierCoh
	g.SharingLines = e.st.dir.SharingLineEvents()
	g.Invalidations = e.st.dir.InvalidationsSent()
	g.Regions = e.regions
	res.segments = e.segCounters
	return res
}
