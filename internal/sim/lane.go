package sim

// The stepping core: one lane simulates one processor's stream for one
// region. Lanes are the unit the bounded worker pool schedules; each lane
// only reads the immutable region inputs (directory snapshot, page homes,
// topology) and mutates its own processor's hierarchy, TLB and scratch, so
// any lane-to-worker assignment produces identical bytes.

import (
	"slices"

	"scaltool/internal/assert"
	"scaltool/internal/cache"
	"scaltool/internal/directory"
	"scaltool/internal/machine"
	"scaltool/internal/memdsm"
	"scaltool/internal/network"
)

// procOut is the result of simulating one processor's stream for a region.
type procOut struct {
	work float64 // busy cycles (compute + memory stalls + own critical sections + upgrade transactions)
	cs   float64 // cycles spent inside critical sections (subset of work, used for serialization)

	instr, loads, stores        uint64
	l1miss, l2miss, storeShared uint64
	tlbMiss                     uint64
	locks                       uint64
	readFills, writes           []uint64 // sorted distinct L2 lines (aliases the lane's buffers)
}

// lane is the per-processor stepping state, reused region after region and
// (through the run arena) run after run.
type lane struct {
	e *engine
	p int

	// Hot state, flattened off the engine in bind: the per-access loop runs
	// hundreds of millions of times per campaign, so it must not re-chase
	// e.st.tlbs[l.p]-style pointer chains or re-load config fields on every
	// access.
	hier *cache.Hierarchy
	tlb  *memdsm.TLB
	mem  *memdsm.Memory
	net  *network.Topology
	dir  *directory.Directory

	pageShift uint
	l1Shift   uint
	l2Shift   uint

	costCompute float64 // ComputeCPI
	costL1      float64 // L1HitCPI
	costL2      float64 // L1HitCPI + L2Hit (one add, precomputed — float addition is deterministic, so the sum is bit-identical to computing it per access)
	costTLBMiss float64 // TLBMiss
	latDir      int     // Lat.Directory
	latDirtyFwd int     // Lat.DirtyFwd
	latMemLocal int     // Lat.MemLocal
	msi         bool    // Protocol == machine.MSI
	coh         bool    // Procs > 1: coherence is possible, track read/write sets

	out procOut

	// Line-set buffers: every candidate line is appended, then the region's
	// distinct sorted set is produced by one sort+compact. Capacity persists
	// across regions and runs.
	readBuf, writeBuf []uint64

	fill    cache.FillFunc // bound to (*lane).fillMiss once, in bind
	missLat float64        // set by fillMiss for the in-flight miss
}

// bind prepares the lane for a run of engine e as processor p.
func (l *lane) bind(e *engine, p int) {
	l.e = e
	l.p = p
	l.hier = e.st.hiers[p]
	l.tlb = e.st.tlbs[p]
	l.mem = e.st.mem
	l.net = e.st.net
	l.dir = e.st.dir
	l.pageShift = e.pageShift
	l.l1Shift = l.hier.L1Shift()
	l.l2Shift = e.l2Shift
	cfg := &e.cfg
	l.costCompute = cfg.Cost.ComputeCPI
	l.costL1 = cfg.Cost.L1HitCPI
	l.costL2 = cfg.Cost.L1HitCPI + float64(cfg.Lat.L2Hit)
	l.costTLBMiss = float64(cfg.Lat.TLBMiss)
	l.latDir = cfg.Lat.Directory
	l.latDirtyFwd = cfg.Lat.DirtyFwd
	l.latMemLocal = cfg.Lat.MemLocal
	l.msi = cfg.Protocol == machine.MSI
	l.coh = e.prog.Procs > 1
	if l.fill == nil {
		l.fill = l.fillMiss
	}
}

// beginRegion clears the per-region outputs, keeping buffer capacity.
func (l *lane) beginRegion() {
	l.readBuf = l.readBuf[:0]
	l.writeBuf = l.writeBuf[:0]
	l.out = procOut{}
}

// fillMiss resolves an L2 miss against the immutable directory snapshot:
// it computes the miss latency (2-hop home service or 3-hop dirty forward)
// and returns the state the line is granted in.
func (l *lane) fillMiss(line uint64, write bool) cache.State {
	addr := line << l.l2Shift
	home := l.mem.Home(addr)
	if home < 0 {
		assert.Failf("sim: unhomed page for line %#x (pre-pass bug)", line)
	}
	if !l.coh {
		// Uniprocessor: no remote copy can exist, so the probe's answer is
		// known — uncached or self-owned, never a dirty remote — and the
		// directory (which a uniprocessor run leaves empty) is skipped.
		l.missLat = float64(l.net.RoundTripCycles(l.p, home) + l.latDir + l.latMemLocal)
		if write {
			return cache.Modified
		}
		if l.msi {
			return cache.Shared
		}
		return cache.Exclusive
	}
	info := l.dir.Probe(line)
	if info.Cached && info.Dirty && info.Owner != l.p {
		// 3-hop: requester→home, directory, home→owner forward,
		// owner's cache intervention, owner→requester data.
		l.missLat = float64(l.net.OneWayCycles(l.p, home) + l.latDir +
			l.net.OneWayCycles(home, info.Owner) + l.latDirtyFwd +
			l.net.OneWayCycles(info.Owner, l.p))
	} else {
		l.missLat = float64(l.net.RoundTripCycles(l.p, home) + l.latDir + l.latMemLocal)
	}
	if write {
		return cache.Modified
	}
	if l.msi {
		return cache.Shared // no Exclusive state: every read fill is S
	}
	if !info.Cached || info.Sharers == 0 || (info.Owner == l.p && info.Sharers <= 1) {
		return cache.Exclusive
	}
	return cache.Shared
}

// access runs one load or store through the lane's TLB and hierarchy,
// charging its cycles and recording coherence-buffer candidates.
func (l *lane) access(addr uint64, write bool, lastWriteLine *uint64) {
	o := &l.out
	// Memo fast path: a repeat access to the previous L1 line is a pure L1
	// hit (and, being the same line, provably the same page — the TLB's
	// last-slot memo is guaranteed to match, so the TLB lookup collapses to
	// its clock/stamp side effects). Both calls inline; the whole path is a
	// handful of compares and adds, no cache or TLB machinery.
	if l.hier.MemoHit(addr, write) {
		l.tlb.Tick()
		o.instr++
		o.work += l.costL1
		if write {
			o.stores++
			if l.coh {
				if l2 := addr >> l.l2Shift; l2 != *lastWriteLine {
					l.writeBuf = append(l.writeBuf, l2)
					*lastWriteLine = l2
				}
			}
		} else {
			o.loads++
		}
		return
	}
	if page := addr >> l.pageShift; !l.tlb.HitLast(page) && !l.tlb.Access(page) {
		o.work += l.costTLBMiss
		o.tlbMiss++
	}
	out := l.hier.Access(addr, write, l.fill)
	o.instr++
	if write {
		o.stores++
	} else {
		o.loads++
	}
	switch out.Level {
	case cache.HitL1:
		o.work += l.costL1
	case cache.HitL2:
		o.work += l.costL2
		o.l1miss++
	case cache.MissAll:
		o.work += l.costL2 + l.missLat
		o.l1miss++
		o.l2miss++
		if !write && l.coh {
			l.readBuf = append(l.readBuf, out.L2Line)
		}
	}
	if out.StoreToShared {
		o.storeShared++
	}
	if out.UpgradeFromShared {
		// Ownership upgrade: round trip to the directory at the home.
		home := l.mem.Home(addr)
		o.work += float64(l.net.RoundTripCycles(l.p, home) + l.latDir)
	}
	if write && l.coh && out.L2Line != *lastWriteLine {
		l.writeBuf = append(l.writeBuf, out.L2Line)
		*lastWriteLine = out.L2Line
	}
}

// run simulates the lane's stream for the current region. Safe to run
// concurrently across lanes: it only reads the directory snapshot, page
// homes and topology, and mutates the lane's own processor state.
func (l *lane) run(s *Stream) {
	l.beginRegion()
	if s.Empty() {
		return
	}
	e := l.e
	cfg := &e.cfg
	o := &l.out
	lastWriteLine := uint64(1<<64 - 1)

	for _, op := range s.Ops {
		switch op.Kind {
		case OpCompute:
			o.instr += op.Instr
			o.work += float64(op.Instr) * l.costCompute
		case OpSeq:
			// Strided runs are batched at L1-line granularity: the first
			// access of each line runs the full access path (establishing the
			// hierarchy's memo on that line — for a write, in state Modified),
			// after which every further access of the op that provably lands
			// on the same line is a guaranteed memo hit: same page (TLB memo
			// holds), no state change, no coherence-buffer entry (the L2 line
			// is already the last one written). Those follow-ups collapse to
			// the exact per-access float adds — order preserved, so the work
			// total is bit-identical — plus one batched update of each
			// integer counter.
			addr := int64(op.Base)
			lineMask := int64(1)<<l.l1Shift - 1
			for i := uint64(0); i < op.Count; {
				run := uint64(1)
				switch {
				case op.Stride > 0:
					run += uint64((lineMask - addr&lineMask) / op.Stride)
				case op.Stride < 0:
					run += uint64((addr & lineMask) / -op.Stride)
				default:
					run = op.Count - i
				}
				if rem := op.Count - i; run > rem {
					run = rem
				}
				if op.InstrPer > 0 {
					o.instr += op.InstrPer
					o.work += float64(op.InstrPer) * l.costCompute
				}
				l.access(uint64(addr), op.Write, &lastWriteLine)
				if k := run - 1; k > 0 {
					if op.InstrPer > 0 {
						c := float64(op.InstrPer) * l.costCompute
						for j := uint64(0); j < k; j++ {
							o.work += c
							o.work += l.costL1
						}
						o.instr += k * op.InstrPer
					} else {
						for j := uint64(0); j < k; j++ {
							o.work += l.costL1
						}
					}
					o.instr += k
					if op.Write {
						o.stores += k
					} else {
						o.loads += k
					}
					l.hier.AddAccesses(k)
					l.tlb.TickN(k)
				}
				addr += op.Stride * int64(run)
				i += run
			}
		case OpGather:
			for _, a := range op.Addrs {
				if op.InstrPer > 0 {
					o.instr += op.InstrPer
					o.work += float64(op.InstrPer) * l.costCompute
				}
				l.access(a, op.Write, &lastWriteLine)
			}
		case OpCritical:
			lockHome := l.mem.Home(e.prog.LockAddr())
			cs := float64(cfg.Sync.LockInstr)*l.costCompute +
				float64(op.Instr)*l.costCompute +
				float64(l.net.RoundTripCycles(l.p, lockHome)+cfg.Lat.SyncAcquire)
			o.instr += uint64(cfg.Sync.LockInstr) + op.Instr
			o.stores++ // the lock fetchop
			if e.prog.Procs > 1 {
				o.storeShared++
			}
			o.work += cs
			o.cs += cs
			o.locks++
		}
	}

	if l.coh {
		o.readFills = sortedDistinct(l.readBuf)
		o.writes = sortedDistinct(l.writeBuf)
	}
}

// sortedDistinct sorts buf in place and compacts duplicates, returning the
// distinct prefix (nil when empty). The result aliases buf and is valid
// until the next beginRegion.
func sortedDistinct(buf []uint64) []uint64 {
	if len(buf) == 0 {
		return nil
	}
	slices.Sort(buf)
	return slices.Compact(buf)
}
