package sim

// The pooled run arena. An uncached /v1/analyze request used to pay for a
// fresh directory, per-processor cache hierarchies, TLBs, page-home table
// and all the per-region scratch on every simulated run — roughly a million
// short-lived objects per request. runState gathers all of that mutable
// machine state behind one sync.Pool so a steady stream of runs reaches a
// zero-steady-state-allocation hot path: Get, Reset (cheap memclears over
// retained flat arrays), simulate, Put.
//
// Safety: the byte-identity gate (TestSimByteIdentity and the repeat-
// determinism test) holds a pooled, reused state to producing bit-identical
// Results to a freshly built one; every component exposes an explicit Reset
// that the tests exercise through this path.

import (
	"sync"

	"scaltool/internal/cache"
	"scaltool/internal/directory"
	"scaltool/internal/machine"
	"scaltool/internal/memdsm"
	"scaltool/internal/network"
)

// stateGeom is the part of a machine configuration that shapes the arena's
// structures. Two runs with the same stateGeom can share a pooled runState
// (after Reset) even if their latency/cost parameters or processor counts
// differ; a mismatch makes acquire build fresh structures instead.
type stateGeom struct {
	l1, l2     machine.CacheConfig
	pageBytes  int
	tlbEntries int
}

func geomOf(cfg *machine.Config) stateGeom {
	return stateGeom{l1: cfg.L1, l2: cfg.L2, pageBytes: cfg.PageBytes, tlbEntries: cfg.TLBEntries}
}

// runState is the reusable mutable machine state of one simulated run.
type runState struct {
	geom  stateGeom
	procs int // processors currently prepared (hiers/tlbs/lanes [0,procs) are reset)

	net   *network.Topology
	mem   *memdsm.Memory
	dir   *directory.Directory
	hiers []*cache.Hierarchy
	tlbs  []*memdsm.TLB
	// lanes are held by pointer: lanes run concurrently, and a value slice
	// would put their hot fields next to each other in memory.
	lanes []*lane

	// netKey caches the parameters the topology was built for.
	netProcs, netPPR, netHop int

	// Per-region scratch, sized to procs.
	lockWait, arrival, fetchDone []float64
	accesses                     []directory.RegionAccess
}

var runPool sync.Pool

// acquireRunState returns a runState prepared for (cfg, prog): structures
// matching the machine geometry, reset for prog.Procs processors, with the
// page-home table empty. The caller must return it to runPool when the run
// finishes (on every path — a canceled run's state is fully cleared by the
// next acquire's Reset).
func acquireRunState(cfg *machine.Config, prog *Program) (*runState, error) {
	geom := geomOf(cfg)
	st, _ := runPool.Get().(*runState)
	if st == nil || st.geom != geom {
		st = &runState{geom: geom}
	}
	procs := prog.Procs

	if st.net == nil || st.netProcs != procs || st.netPPR != cfg.ProcsPerRouter || st.netHop != cfg.Lat.RouterHop {
		net, err := network.New(procs, cfg.ProcsPerRouter, cfg.Lat.RouterHop)
		if err != nil {
			return nil, err
		}
		st.net = net
		st.netProcs, st.netPPR, st.netHop = procs, cfg.ProcsPerRouter, cfg.Lat.RouterHop
	}

	if st.mem == nil {
		mem, err := memdsm.NewMemory(cfg.PageBytes, procs, prog.Placement)
		if err != nil {
			return nil, err
		}
		st.mem = mem
	} else if err := st.mem.Reset(procs, prog.Placement); err != nil {
		return nil, err
	}

	if st.dir == nil {
		st.dir = directory.New(procs)
	} else {
		st.dir.Reset(procs)
	}

	for len(st.hiers) < procs {
		st.hiers = append(st.hiers, cache.NewHierarchy(*cfg))
		st.tlbs = append(st.tlbs, memdsm.NewTLB(cfg.TLBEntries))
		st.lanes = append(st.lanes, &lane{})
	}
	for p := 0; p < procs; p++ {
		st.hiers[p].Reset()
		st.tlbs[p].Reset()
	}

	st.lockWait = growFloats(st.lockWait, procs)
	st.arrival = growFloats(st.arrival, procs)
	st.fetchDone = growFloats(st.fetchDone, procs)
	if cap(st.accesses) < procs {
		st.accesses = make([]directory.RegionAccess, 0, procs)
	}
	st.procs = procs
	return st, nil
}

func growFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}
