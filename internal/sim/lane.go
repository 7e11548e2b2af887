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
	msi         bool    // Protocol == machine.MSI
	coh         bool    // Procs > 1: coherence is possible, track read/write sets

	out procOut

	// Line-set buffers: every candidate line is appended, then the region's
	// distinct sorted set is produced by one sort+compact. Capacity persists
	// across regions and runs.
	readBuf, writeBuf []uint64
	lastWrite         uint64 // L2 line last appended to writeBuf this region

	// Per-home latencies, indexed by the home processor and computed once
	// per run: memLat is a 2-hop miss serviced at the home, upLat an
	// ownership upgrade's round trip to the home's directory. Each is the
	// same integer sum the per-access formula adds, converted once.
	memLat, upLat []float64

	probeHint int32 // directory entry of the lane's last probed line
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
	l.memLat = l.memLat[:0]
	l.upLat = l.upLat[:0]
	for home := 0; home < e.prog.Procs; home++ {
		rt := l.net.RoundTripCycles(p, home) + cfg.Lat.Directory
		l.memLat = append(l.memLat, float64(rt+cfg.Lat.MemLocal))
		l.upLat = append(l.upLat, float64(rt))
	}
	l.msi = cfg.Protocol == machine.MSI
	l.coh = e.prog.Procs > 1
	l.probeHint = -1
}

// beginRegion clears the per-region outputs, keeping buffer capacity.
func (l *lane) beginRegion() {
	l.readBuf = l.readBuf[:0]
	l.writeBuf = l.writeBuf[:0]
	l.lastWrite = 1<<64 - 1
	l.out = procOut{}
}

// fillMiss resolves an L2 miss against the immutable directory snapshot:
// it returns the state the line is granted in and the miss latency (2-hop
// home service or 3-hop dirty forward).
func (l *lane) fillMiss(line uint64, write bool) (cache.State, float64) {
	addr := line << l.l2Shift
	home := l.mem.Home(addr)
	if home < 0 {
		assert.Failf("sim: unhomed page for line %#x (pre-pass bug)", line)
	}
	if !l.coh {
		// Uniprocessor: no remote copy can exist, so the probe's answer is
		// known — uncached or self-owned, never a dirty remote — and the
		// directory (which a uniprocessor run leaves empty) is skipped.
		lat := l.memLat[home]
		if write {
			return cache.Modified, lat
		}
		if l.msi {
			return cache.Shared, lat
		}
		return cache.Exclusive, lat
	}
	var info directory.LineInfo
	info, l.probeHint = l.dir.Probe(line, l.probeHint)
	var lat float64
	if info.Cached && info.Dirty && info.Owner != l.p {
		// 3-hop: requester→home, directory, home→owner forward,
		// owner's cache intervention, owner→requester data.
		lat = float64(l.net.OneWayCycles(l.p, home) + l.latDir +
			l.net.OneWayCycles(home, info.Owner) + l.latDirtyFwd +
			l.net.OneWayCycles(info.Owner, l.p))
	} else {
		lat = l.memLat[home]
	}
	if write {
		return cache.Modified, lat
	}
	if l.msi {
		return cache.Shared, lat // no Exclusive state: every read fill is S
	}
	if !info.Cached || info.Sharers == 0 || (info.Owner == l.p && info.Sharers <= 1) {
		return cache.Exclusive, lat
	}
	return cache.Shared, lat
}

// access runs one load or store through the lane's TLB and hierarchy,
// records its coherence-buffer candidates, and returns work plus the
// access's cycles. The adds happen in one fixed order — TLB reload, level
// cost, ownership upgrade — so the float total is bit-identical whatever
// path served the access. The access's integer counters are not touched:
// run counts instructions and accesses per op and takes the miss and
// store-to-shared counts from the hierarchy's and TLB's own counters.
func (l *lane) access(addr uint64, write bool, work float64) float64 {
	if !l.hier.MemoHit(addr, write) {
		return l.newLine(addr, write, work)
	}
	// A repeat of the previous L1 line: a pure L1 hit on the same page,
	// which is the TLB's most recent one and so changes nothing.
	work += l.costL1
	if write && l.coh {
		l.noteWrite(addr >> l.l2Shift)
	}
	return work
}

// newLine is access for an address known not to be a memo hit: a sweep's
// every line after its first, whose previous access was on another line.
func (l *lane) newLine(addr uint64, write bool, work float64) float64 {
	if page := addr >> l.pageShift; !l.tlb.HitLast(page) && !l.tlb.Access(page) {
		work += l.costTLBMiss
	}
	h := l.hier
	lvl, upgrade := h.Lookup(addr, write)
	switch lvl {
	case cache.HitL1:
		work += l.costL1
	case cache.HitL2:
		work += l.costL2
	default:
		line := addr >> l.l2Shift
		st, lat := l.fillMiss(line, write)
		h.Fill(addr, write, st)
		work += l.costL2 + lat
		if !write && l.coh {
			l.readBuf = append(l.readBuf, line)
		}
	}
	if upgrade {
		// Ownership upgrade: round trip to the directory at the home.
		work += l.upLat[l.mem.Home(addr)]
	}
	if write && l.coh {
		l.noteWrite(addr >> l.l2Shift)
	}
	return work
}

// noteWrite records a written L2 line in the region's write set, skipping
// a repeat of the line written last.
func (l *lane) noteWrite(line uint64) {
	if line != l.lastWrite {
		l.writeBuf = append(l.writeBuf, line)
		l.lastWrite = line
	}
}

// run simulates the lane's stream for the current region. Safe to run
// concurrently across lanes: it only reads the directory snapshot, page
// homes and topology, and mutates the lane's own processor state.
//
// The busy total lives in a local for the whole stream, added to in the
// exact per-access order. Integer counters commute, so they are summed once
// per op (instructions, loads, stores) or taken as the region's change in
// the hierarchy's and TLB's own counters (misses, store-to-shared events).
func (l *lane) run(s *Stream) {
	l.beginRegion()
	if s.Empty() {
		return
	}
	e := l.e
	cfg := &e.cfg
	o := &l.out
	stats0, tlb0 := l.hier.Stats(), l.tlb.Misses()
	work := 0.0

	for i := range s.Ops {
		op := &s.Ops[i]
		switch op.Kind {
		case OpCompute:
			o.instr += op.Instr
			work += float64(op.Instr) * l.costCompute
		case OpSeq:
			work = l.seq(op, work)
			l.countAccesses(op, op.Count)
		case OpGather:
			c := float64(op.InstrPer) * l.costCompute
			for _, a := range op.Addrs {
				if op.InstrPer > 0 {
					work += c
				}
				work = l.access(a, op.Write, work)
			}
			l.countAccesses(op, uint64(len(op.Addrs)))
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
			work += cs
			o.cs += cs
			o.locks++
		}
	}
	o.work = work
	stats := l.hier.Stats()
	o.l1miss = stats.L1Misses - stats0.L1Misses
	o.l2miss = stats.L2Misses - stats0.L2Misses
	o.storeShared += stats.StoreShared - stats0.StoreShared
	o.tlbMiss = l.tlb.Misses() - tlb0

	if l.coh {
		o.readFills = sortedDistinct(l.readBuf)
		o.writes = sortedDistinct(l.writeBuf)
	}
}

// countAccesses charges n accesses of a sweep or gather: one instruction
// each plus its loop body, and a load or store each.
func (l *lane) countAccesses(op *Op, n uint64) {
	o := &l.out
	o.instr += n * (1 + op.InstrPer)
	if op.Write {
		o.stores += n
	} else {
		o.loads += n
	}
	l.hier.AddAccesses(n)
}

// seq runs a strided sweep at L1-line granularity and returns work plus
// its cycles. The first access of each line runs the full access path
// (establishing the hierarchy's memo on that line — for a write, in state
// Modified), after which every further access of the op that provably
// lands on the same line is a guaranteed memo hit: same page (the TLB's
// most recent), no state change, no coherence-buffer entry (the L2 line is
// already the last one written). Those follow-ups collapse to their exact
// per-access float adds, in order, so the work total is bit-identical.
//
// Only the op's first access can repeat the hierarchy's memo line: every
// later line-first access follows an access to another line, so it skips
// the memo check. A line's run length depends only on the address's offset
// within the line, and a sweep revisits the same offsets line after line,
// so the division computing it is memoized on the offset.
func (l *lane) seq(op *Op, work float64) float64 {
	addr := int64(op.Base)
	lineMask := int64(1)<<l.l1Shift - 1
	c := float64(op.InstrPer) * l.costCompute
	costL1 := l.costL1
	memoOff, memoRun := int64(-1), uint64(0)
	for i := uint64(0); i < op.Count; {
		var run uint64
		switch off := addr & lineMask; {
		case op.Stride == 0:
			run = op.Count - i
		case off == memoOff:
			run = memoRun
		case op.Stride > 0:
			run = 1 + uint64((lineMask-off)/op.Stride)
			memoOff, memoRun = off, run
		default:
			run = 1 + uint64(off/-op.Stride)
			memoOff, memoRun = off, run
		}
		if rem := op.Count - i; run > rem {
			run = rem
		}
		if op.InstrPer > 0 {
			work += c
		}
		if i == 0 {
			work = l.access(uint64(addr), op.Write, work)
		} else {
			work = l.newLine(uint64(addr), op.Write, work)
		}
		if op.InstrPer > 0 {
			for k := run - 1; k > 0; k-- {
				work += c
				work += costL1
			}
		} else {
			for k := run - 1; k > 0; k-- {
				work += costL1
			}
		}
		addr += op.Stride * int64(run)
		i += run
	}
	return work
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
