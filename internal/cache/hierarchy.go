package cache

import (
	"fmt"

	"scaltool/internal/assert"
	"scaltool/internal/machine"
)

// Level says where in the hierarchy an access was satisfied.
type Level uint8

// Access service levels.
const (
	HitL1 Level = iota
	HitL2
	MissAll // missed both levels; memory/directory involved
)

func (l Level) String() string {
	switch l {
	case HitL1:
		return "L1"
	case HitL2:
		return "L2"
	case MissAll:
		return "mem"
	}
	return fmt.Sprintf("Level(%d)", uint8(l))
}

// Stats aggregates ground-truth counts maintained by the hierarchy itself.
type Stats struct {
	Accesses    uint64
	L1Misses    uint64 // accesses that missed L1 (regardless of L2 outcome)
	L2Misses    uint64
	Compulsory  uint64
	Coherence   uint64
	Conflict    uint64
	Writebacks  uint64
	StoreShared uint64
}

// Hierarchy is one processor's private L1+L2 pair with inclusion
// maintenance, ground-truth miss classification and the store-to-shared
// event counter source.
//
// The per-line history the classifier needs (ever cached? invalidated by a
// remote write?) lives in one open-addressed flag table instead of two Go
// maps, and a one-entry MRU memo short-circuits the dominant access pattern
// of array codes — consecutive accesses to the same L1 line — without
// touching either cache's LRU machinery (the line is already at MRU, and a
// repeat read or an M-state repeat write changes no state anywhere).
//
// An access is three steps the simulator calls itself — MemoHit, Lookup,
// and on a miss in both levels Fill with the state the directory grants —
// and the simulator counts accesses through AddAccesses.
type Hierarchy struct {
	l1, l2   *Cache
	l1Shift  uint
	l2Shift  uint
	subLines uint64 // L1 lines per L2 line

	history lineFlags // per-L2-line everCached/invalidated flags

	// MRU memo: the L1 line of the previous access and its post-access
	// state. Valid only while no other cache operation has intervened;
	// every remote operation and L2 eviction clears it.
	memoLine  uint64
	memoState State
	memoOK    bool

	// L2 memo: the most recently probed-or-installed L2 line and its state.
	// While valid, that line is provably at MRU in its set (nothing else has
	// reordered L2 since), so a repeat L2 access can skip the probe: probeAt
	// would find it at the front and move nothing. Cleared by remote
	// operations and evictions; updated by state upgrades.
	memoL2Line  uint64
	memoL2State State
	memoL2OK    bool

	// The miss Lookup last reported, for Fill: each level's set base and
	// first free slot, so the installs need not probe again.
	missL1b, missL1free int
	missL2b, missL2free int

	stats Stats
}

// NewHierarchy builds the private hierarchy for one processor.
func NewHierarchy(cfg machine.Config) *Hierarchy {
	err := cfg.Validate()
	assert.True(err == nil, "cache: invalid machine config: %v", err)
	return &Hierarchy{
		l1:       New(cfg.L1, cfg.PageBytes),
		l2:       New(cfg.L2, cfg.PageBytes),
		l1Shift:  lineShift(cfg.L1.LineBytes),
		l2Shift:  lineShift(cfg.L2.LineBytes),
		subLines: uint64(cfg.L2.LineBytes / cfg.L1.LineBytes),
		history:  newLineFlags(),
	}
}

// L2LineOf maps a byte address to its L2 line number.
func (h *Hierarchy) L2LineOf(addr uint64) uint64 { return addr >> h.l2Shift }

// Lookup is the probe half of an access that is not a memo hit: it serves
// the access from L1 or L2 and reports the level and whether a store found
// its line Shared (the store-to-shared event, which is also an ownership
// upgrade the caller charges as a directory transaction). On MissAll
// neither cache has changed yet, and the caller must complete the access
// with Fill before any other call on the hierarchy.
func (h *Hierarchy) Lookup(addr uint64, write bool) (lvl Level, upgrade bool) {
	l1Line := addr >> h.l1Shift
	l1b := h.l1.base(l1Line)
	st, ok, l1free := h.l1.probeAt(l1b, l1Line)
	if ok {
		if write {
			upgrade = h.storeTo(st, l1Line, addr>>h.l2Shift)
			st = Modified
		}
		h.setMemo(l1Line, st)
		return HitL1, upgrade
	}
	h.stats.L1Misses++
	// From here on l1Line is known non-resident and l1free is its set's first
	// free slot. storeTo's L1 half is then a no-op probe, and the L1 install
	// can reuse l1free — valid on the two L2-hit paths below, where nothing
	// mutates L1 in between.
	l2Line := addr >> h.l2Shift
	if h.memoL2OK && l2Line == h.memoL2Line {
		// L2 memo: the most recent L2 line — in a sweep, the sibling L1
		// half of the line the previous access filled — is at MRU, so the
		// probe and its reorder are skipped.
		st = h.memoL2State
	} else {
		l2b := h.l2.base(l2Line)
		var l2free int
		if st, ok, l2free = h.l2.probeAt(l2b, l2Line); !ok {
			h.stats.L2Misses++
			h.missL1b, h.missL1free = l1b, l1free
			h.missL2b, h.missL2free = l2b, l2free
			return MissAll, false
		}
		h.setMemoL2(l2Line, st)
	}
	if write {
		upgrade = h.storeTo(st, l1Line, l2Line)
		st = Modified // storeTo upgraded the resident L2 line
	}
	h.l1.installAt(l1b, l1free, l1Line, st)
	h.setMemo(l1Line, st)
	return HitL2, upgrade
}

// Fill completes an access Lookup reported as MissAll: it classifies the
// miss against this processor's history, installs the line in both levels
// in the granted state st, and handles the L2 victim's inclusion and
// writeback. It reports the miss class and whether a Modified line was
// written back.
func (h *Hierarchy) Fill(addr uint64, write bool, st State) (kind MissKind, writeback bool) {
	l1Line := addr >> h.l1Shift
	l2Line := addr >> h.l2Shift
	switch flags := h.history.missClassify(l2Line); {
	case flags&flagEverCached == 0:
		kind = MissCompulsory
		h.stats.Compulsory++
	case flags&flagInvalidated != 0:
		kind = MissCoherence
		h.stats.Coherence++
	default:
		kind = MissConflict
		h.stats.Conflict++
	}
	if write && st != Modified {
		assert.Failf("cache: fill granted a write in non-Modified state %s", st)
	}
	if st == Invalid {
		assert.Failf("cache: fill granted Invalid state")
	}
	dropped := false
	if ev, ok := h.l2.installAt(h.missL2b, h.missL2free, l2Line, st); ok {
		writeback, dropped = h.evictL2(ev)
	}
	h.setMemoL2(l2Line, st)
	if dropped {
		// The victim's L1 sub-lines were invalidated, maybe out of this
		// very set: Lookup's free slot is stale, so rescan.
		b := h.l1.base(l1Line)
		h.l1.installAt(b, b+h.l1.used(b), l1Line, st)
	} else {
		h.l1.installAt(h.missL1b, h.missL1free, l1Line, st)
	}
	h.setMemo(l1Line, st)
	return kind, writeback
}

// MemoHit is the memo fast path of an access, small enough to inline into
// the simulator's per-access loop: if addr repeats the previous access's L1
// line (and a store finds it Modified, so the store is silent), the access
// is a pure L1 hit that changes no cache state — the line is at MRU in both
// levels. On false the caller runs Lookup.
func (h *Hierarchy) MemoHit(addr uint64, write bool) bool {
	return h.memoOK && addr>>h.l1Shift == h.memoLine && (!write || h.memoState == Modified)
}

// AddAccesses counts k accesses the simulator ran through MemoHit, Lookup
// and Fill: the simulator counts each op's accesses in one add instead of
// one per access.
func (h *Hierarchy) AddAccesses(k uint64) { h.stats.Accesses += k }

// L1Shift returns log2(L1 line bytes) — the simulator's batching needs the
// L1 line geometry to prove a run of accesses stays on the memo line.
func (h *Hierarchy) L1Shift() uint { return h.l1Shift }

// setMemo records the line and post-access state of the access that just
// completed.
func (h *Hierarchy) setMemo(l1Line uint64, st State) {
	h.memoLine = l1Line
	h.memoState = st
	h.memoOK = true
}

// storeTo handles the state transition of a store that hit (at either
// level), updating both cache levels to keep their states coherent. It
// reports whether the store found the line Shared.
func (h *Hierarchy) storeTo(st State, l1Line, l2Line uint64) bool {
	switch st {
	case Shared:
		h.stats.StoreShared++
	case Exclusive:
		// Silent E→M.
	case Modified:
		// Already Modified at the hit level — and by inclusion maintenance
		// the L2 copy of an M-state L1 line is itself M (every path that
		// makes an L1 line Modified made the L2 line Modified too), so the
		// state writes below would be no-ops. Skip both probes.
		return false
	case Invalid:
		assert.Failf("cache: store hit reported on Invalid line")
	}
	if h.l2.setStateIfResident(l2Line, Modified) && h.memoL2OK && h.memoL2Line == l2Line {
		h.memoL2State = Modified
	}
	h.l1.setStateIfResident(l1Line, Modified)
	return st == Shared
}

// setMemoL2 records the L2 line that was just touched or inserted (now at
// MRU) and its post-access state.
func (h *Hierarchy) setMemoL2(l2Line uint64, st State) {
	h.memoL2Line = l2Line
	h.memoL2State = st
	h.memoL2OK = true
}

// evictL2 handles inclusion and writeback accounting for a displaced L2
// line, reporting whether it was written back and whether any of its L1
// sub-lines was resident.
func (h *Hierarchy) evictL2(ev Eviction) (writeback, dropped bool) {
	if ev.State == Modified {
		h.stats.Writebacks++
	}
	dropped = h.invalidateL1(ev.Line)
	// The victim's sub-lines may include the memo line, and the set was
	// reordered; both memos are stale (the miss path re-establishes the L2
	// memo for the newly inserted line).
	h.memoOK = false
	h.memoL2OK = false
	return ev.State == Modified, dropped
}

// invalidateL1 drops every L1 sub-line of an L2 line, reporting whether
// any was resident.
func (h *Hierarchy) invalidateL1(l2Line uint64) bool {
	dropped := false
	base := l2Line * h.subLines
	for line := base; line < base+h.subLines; line++ {
		// The probe inlines; only a resident sub-line — the rare case for
		// an L2 victim — pays for the removal call.
		b := h.l1.base(line)
		if i := h.l1.find(line, b); i >= 0 {
			h.l1.removeAt(b, i)
			dropped = true
		}
	}
	return dropped
}

// InvalidateRemote applies a directory invalidation (a remote processor
// wrote the line). It reports whether the line was resident in L2, in which
// case the next miss on it is a coherence miss. The caller counts
// invalidation traffic.
func (h *Hierarchy) InvalidateRemote(l2Line uint64) bool {
	_, ok := h.l2.Invalidate(l2Line)
	if ok {
		h.history.or(l2Line, flagInvalidated)
	}
	h.invalidateL1(l2Line)
	h.memoOK = false
	h.memoL2OK = false
	return ok
}

// DowngradeRemote applies a directory downgrade (a remote processor read a
// line this processor holds in M or E). Returns the prior L2 state.
func (h *Hierarchy) DowngradeRemote(l2Line uint64) (State, bool) {
	prev, ok := h.l2.Downgrade(l2Line)
	if !ok {
		return Invalid, false
	}
	base := l2Line * h.subLines
	for line := base; line < base+h.subLines; line++ {
		h.l1.Downgrade(line)
	}
	h.memoOK = false
	h.memoL2OK = false
	return prev, ok
}

// HasLine reports whether the L2 currently holds the line, and its state.
func (h *Hierarchy) HasLine(l2Line uint64) (State, bool) { return h.l2.Lookup(l2Line) }

// Stats returns the ground-truth counters accumulated so far.
func (h *Hierarchy) Stats() Stats { return h.stats }

// ResidentL2 returns the number of lines in L2.
func (h *Hierarchy) ResidentL2() int { return h.l2.Resident() }

// EverCached returns how many distinct L2 lines this processor has ever
// cached (the per-processor footprint, used by the ssusage analogue).
func (h *Hierarchy) EverCached() int { return h.history.count() }

// Reset returns the hierarchy to its just-built state — empty caches, empty
// history, zero counters — reusing every backing array. The pooled run
// arena calls this between runs; the byte-identity gate holds it to being
// indistinguishable from NewHierarchy.
func (h *Hierarchy) Reset() {
	h.l1.Reset()
	h.l2.Reset()
	h.history.reset()
	h.memoOK = false
	h.memoL2OK = false
	h.stats = Stats{}
}
