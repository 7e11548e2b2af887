package cache

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"scaltool/internal/machine"
)

// testConfig returns a machine with a 256 B / 16 B-line / 2-way L1 and a
// 1 KiB / 16 B-line / 2-way L2 (so L1 and L2 lines coincide), which keeps
// the arithmetic in tests easy.
func testConfig() machine.Config { return machine.TinyTest() }

// grantFunc resolves an L2 miss the way the simulator's lane does against
// the directory snapshot: it returns the state the line is granted in.
type grantFunc func(l2Line uint64, write bool) State

// outcome is what one access reports to the lane.
type outcome struct {
	level     Level
	upgrade   bool     // a store found its line Shared
	kind      MissKind // valid only when level == MissAll
	writeback bool     // the fill displaced a Modified L2 line
}

// access runs one load or store through the hierarchy the way the
// simulator's lane does: MemoHit, then Lookup, then — on a miss in both
// levels — Fill with the state grant returns, with the access counted
// through AddAccesses. grant is called exactly when the access misses L2.
func access(h *Hierarchy, addr uint64, write bool, grant grantFunc) outcome {
	h.AddAccesses(1)
	if h.MemoHit(addr, write) {
		return outcome{level: HitL1}
	}
	var o outcome
	o.level, o.upgrade = h.Lookup(addr, write)
	if o.level == MissAll {
		o.kind, o.writeback = h.Fill(addr, write, grant(h.L2LineOf(addr), write))
	}
	return o
}

// grantRead grants Exclusive to reads and Modified to writes (the
// no-other-sharer directory answer).
func grantRead(_ uint64, write bool) State {
	if write {
		return Modified
	}
	return Exclusive
}

// grantShared grants Shared to reads (some other processor also caches it).
func grantShared(_ uint64, write bool) State {
	if write {
		return Modified
	}
	return Shared
}

func TestFirstAccessIsCompulsoryMiss(t *testing.T) {
	h := NewHierarchy(testConfig())
	out := access(h, 0x100, false, grantRead)
	if out.level != MissAll || out.kind != MissCompulsory {
		t.Fatalf("first access = %+v, want compulsory full miss", out)
	}
	if s := h.Stats(); s.Compulsory != 1 || s.L2Misses != 1 || s.L1Misses != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestRepeatAccessHitsL1(t *testing.T) {
	h := NewHierarchy(testConfig())
	access(h, 0x100, false, grantRead)
	out := access(h, 0x100, false, nil) // nil fill: must not be called
	if out.level != HitL1 {
		t.Fatalf("repeat access level = %v, want L1", out.level)
	}
	if out.upgrade {
		t.Fatal("read flagged a store to a Shared line")
	}
}

func TestSameLineDifferentWordHitsL1(t *testing.T) {
	h := NewHierarchy(testConfig())
	access(h, 0x100, false, grantRead)
	out := access(h, 0x104, false, nil) // same 16-byte line
	if out.level != HitL1 {
		t.Fatalf("same-line access = %v, want L1 hit", out.level)
	}
}

func TestL1EvictionFallsToL2(t *testing.T) {
	cfg := testConfig() // L1: 16 lines (8 sets... actually 256/16=16 lines, 8 sets × 2)
	h := NewHierarchy(cfg)
	l1Lines := cfg.L1.Lines()
	// Touch enough distinct lines to overflow L1 but stay inside L2.
	n := l1Lines * 2
	if n > cfg.L2.Lines() {
		t.Fatalf("test geometry broken: %d > L2 %d", n, cfg.L2.Lines())
	}
	for i := 0; i < n; i++ {
		access(h, uint64(i*cfg.L1.LineBytes), false, grantRead)
	}
	// Re-walk: everything is still in L2, so no new L2 misses.
	pre := h.Stats().L2Misses
	hitsL2 := 0
	for i := 0; i < n; i++ {
		out := access(h, uint64(i*cfg.L1.LineBytes), false, grantRead)
		if out.level == MissAll {
			t.Fatalf("line %d missed L2 on re-walk", i)
		}
		if out.level == HitL2 {
			hitsL2++
		}
	}
	if h.Stats().L2Misses != pre {
		t.Fatal("re-walk caused L2 misses")
	}
	if hitsL2 == 0 {
		t.Fatal("re-walk never hit L2; L1 eviction not happening?")
	}
}

func TestConflictMissAfterCapacityEviction(t *testing.T) {
	cfg := testConfig()
	h := NewHierarchy(cfg)
	l2Lines := cfg.L2.Lines()
	// Stream through 2× the L2 capacity, then return to line 0: it was
	// evicted, seen before, never invalidated → conflict miss.
	for i := 0; i < 2*l2Lines; i++ {
		access(h, uint64(i*cfg.L2.LineBytes), false, grantRead)
	}
	out := access(h, 0, false, grantRead)
	if out.level != MissAll || out.kind != MissConflict {
		t.Fatalf("return access = %+v, want conflict miss", out)
	}
}

func TestCoherenceMissAfterRemoteInvalidation(t *testing.T) {
	h := NewHierarchy(testConfig())
	access(h, 0x200, false, grantRead)
	line := h.L2LineOf(0x200)
	if !h.InvalidateRemote(line) {
		t.Fatal("InvalidateRemote did not find resident line")
	}
	out := access(h, 0x200, false, grantShared)
	if out.level != MissAll || out.kind != MissCoherence {
		t.Fatalf("post-invalidation access = %+v, want coherence miss", out)
	}
	// The classification mark must be consumed: evict it naturally next and
	// the following miss is conflict, not coherence.
	if s := h.Stats(); s.Coherence != 1 {
		t.Fatalf("coherence count = %d, want 1", s.Coherence)
	}
}

func TestInvalidateRemoteAbsentLine(t *testing.T) {
	h := NewHierarchy(testConfig())
	if h.InvalidateRemote(123) {
		t.Fatal("invalidation of absent line reported residency")
	}
	// Absent-line invalidation must NOT poison classification: a later
	// first access is compulsory.
	out := access(h, 123*uint64(testConfig().L2.LineBytes), false, grantRead)
	if out.kind != MissCompulsory {
		t.Fatalf("kind = %v, want compulsory", out.kind)
	}
}

func TestStoreToSharedEvent(t *testing.T) {
	h := NewHierarchy(testConfig())
	// Read the line granted Shared, then store to it: the store must report
	// the store-to-shared upgrade, and leave the line Modified.
	access(h, 0x300, false, grantShared)
	out := access(h, 0x300, true, nil)
	if out.level != HitL1 || !out.upgrade {
		t.Fatalf("store outcome = %+v", out)
	}
	if st, ok := h.HasLine(h.L2LineOf(0x300)); !ok || st != Modified {
		t.Fatalf("L2 state = %v,%v; want M", st, ok)
	}
	if s := h.Stats(); s.StoreShared != 1 {
		t.Fatalf("StoreShared = %d, want 1", s.StoreShared)
	}
	// A second store is a silent M hit.
	out = access(h, 0x300, true, nil)
	if out.upgrade {
		t.Fatal("second store flagged as a store to a Shared line again")
	}
}

func TestStoreToExclusiveSilentUpgrade(t *testing.T) {
	h := NewHierarchy(testConfig())
	access(h, 0x400, false, grantRead) // Exclusive
	out := access(h, 0x400, true, nil)
	if out.upgrade {
		t.Fatalf("E→M upgrade flagged as shared store: %+v", out)
	}
	if st, _ := h.HasLine(h.L2LineOf(0x400)); st != Modified {
		t.Fatalf("state = %v, want M", st)
	}
}

func TestWriteMissGrantsModified(t *testing.T) {
	h := NewHierarchy(testConfig())
	out := access(h, 0x500, true, grantRead)
	if out.level != MissAll {
		t.Fatalf("level = %v", out.level)
	}
	if st, _ := h.HasLine(h.L2LineOf(0x500)); st != Modified {
		t.Fatalf("state = %v, want M", st)
	}
}

func TestFillGrantValidation(t *testing.T) {
	for _, bad := range []struct {
		write bool
		st    State
	}{{true, Invalid}, {true, Shared}, {false, Invalid}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("fill of write=%v granting %v: want panic", bad.write, bad.st)
				}
			}()
			access(NewHierarchy(testConfig()), 0, bad.write, func(uint64, bool) State { return bad.st })
		}()
	}
}

func TestWritebackOnDirtyEviction(t *testing.T) {
	cfg := testConfig()
	h := NewHierarchy(cfg)
	// Dirty twice the L2 capacity in distinct lines: capacity evictions of
	// Modified lines must be counted as writebacks.
	for i := 0; i < 2*cfg.L2.Lines(); i++ {
		access(h, uint64(i*cfg.L2.LineBytes), true, grantRead)
	}
	if s := h.Stats(); s.Writebacks == 0 {
		t.Fatal("no writeback counted after dirty eviction")
	}
}

func TestInclusionL2EvictionClearsL1(t *testing.T) {
	cfg := testConfig()
	h := NewHierarchy(cfg)
	// Stream 2× the L2 capacity, then check: any line absent from L2 must
	// also miss in L1 (inclusion) — a stale L1 copy would serve it.
	total := 2 * cfg.L2.Lines()
	for i := 0; i < total; i++ {
		access(h, uint64(i*cfg.L2.LineBytes), false, grantRead)
	}
	checked := false
	for i := 0; i < total && !checked; i++ {
		addr := uint64(i * cfg.L2.LineBytes)
		if _, inL2 := h.HasLine(h.L2LineOf(addr)); !inL2 {
			out := access(h, addr, false, grantRead)
			if out.level != MissAll {
				t.Fatalf("evicted L2 line %#x still serviced at %v (inclusion broken)", addr, out.level)
			}
			checked = true
		}
	}
	if !checked {
		t.Fatal("no line was evicted despite 2x overflow")
	}
}

func TestDowngradeRemote(t *testing.T) {
	h := NewHierarchy(testConfig())
	access(h, 0x600, true, grantRead) // Modified
	prev, ok := h.DowngradeRemote(h.L2LineOf(0x600))
	if !ok || prev != Modified {
		t.Fatalf("DowngradeRemote = %v,%v", prev, ok)
	}
	// Now a store must report the store-to-shared upgrade (line is S).
	out := access(h, 0x600, true, nil)
	if !out.upgrade {
		t.Fatalf("store after downgrade: %+v, want the store-to-shared upgrade", out)
	}
	if _, ok := h.DowngradeRemote(9999); ok {
		t.Fatal("downgrade of absent line reported ok")
	}
}

func TestEverCachedFootprint(t *testing.T) {
	cfg := testConfig()
	h := NewHierarchy(cfg)
	for i := 0; i < 10; i++ {
		access(h, uint64(i*cfg.L2.LineBytes), false, grantRead)
	}
	// Revisits don't grow the footprint.
	access(h, 0, false, grantRead)
	if got := h.EverCached(); got != 10 {
		t.Fatalf("EverCached = %d, want 10", got)
	}
}

// modelHierarchy is an oracle for Hierarchy: two explicit LRU levels kept
// inclusive by hand, and the miss classifier's history as two sets. It has
// no memos and keeps no free slots between steps: every access probes from
// scratch, and a store hit sets both levels Modified even where Hierarchy
// proves that a no-op and skips it.
type modelHierarchy struct {
	l1, l2           *modelCache
	l1Shift, l2Shift uint
	subLines         uint64
	everCached       map[uint64]bool
	invalidated      map[uint64]bool
	stats            Stats
}

func newModelHierarchy(h *Hierarchy, cfg machine.Config) *modelHierarchy {
	return &modelHierarchy{
		l1:          newModel(h.l1, cfg.L1),
		l2:          newModel(h.l2, cfg.L2),
		l1Shift:     h.l1Shift,
		l2Shift:     h.l2Shift,
		subLines:    uint64(cfg.L2.LineBytes / cfg.L1.LineBytes),
		everCached:  map[uint64]bool{},
		invalidated: map[uint64]bool{},
	}
}

func (m *modelHierarchy) access(addr uint64, write bool, grant grantFunc) outcome {
	m.stats.Accesses++
	l1Line, l2Line := addr>>m.l1Shift, addr>>m.l2Shift
	if st, ok := m.l1.touch(l1Line); ok {
		return outcome{level: HitL1, upgrade: write && m.store(st, l1Line, l2Line)}
	}
	m.stats.L1Misses++
	if st, ok := m.l2.touch(l2Line); ok {
		o := outcome{level: HitL2}
		if write {
			o.upgrade = m.store(st, l1Line, l2Line)
			st = Modified
		}
		m.l1.insert(l1Line, st) // an L1 victim lives on in L2
		return o
	}
	m.stats.L2Misses++
	o := outcome{level: MissAll}
	switch {
	case !m.everCached[l2Line]:
		o.kind = MissCompulsory
		m.stats.Compulsory++
	case m.invalidated[l2Line]:
		o.kind = MissCoherence
		m.stats.Coherence++
	default:
		o.kind = MissConflict
		m.stats.Conflict++
	}
	m.everCached[l2Line] = true
	delete(m.invalidated, l2Line)
	st := grant(l2Line, write)
	if ev, ok := m.l2.insert(l2Line, st); ok {
		if ev.State == Modified {
			m.stats.Writebacks++
			o.writeback = true
		}
		m.dropL1(ev.Line)
	}
	m.l1.insert(l1Line, st)
	return o
}

// store makes a store hit's line Modified in both levels and reports
// whether it found the line Shared.
func (m *modelHierarchy) store(st State, l1Line, l2Line uint64) bool {
	if st == Shared {
		m.stats.StoreShared++
	}
	m.l1.setState(l1Line, Modified)
	m.l2.setState(l2Line, Modified)
	return st == Shared
}

// dropL1 removes every L1 sub-line of an L2 line (inclusion).
func (m *modelHierarchy) dropL1(l2Line uint64) {
	for line := l2Line * m.subLines; line < (l2Line+1)*m.subLines; line++ {
		m.l1.invalidate(line)
	}
}

func (m *modelHierarchy) invalidateRemote(l2Line uint64) bool {
	_, ok := m.l2.invalidate(l2Line)
	if ok {
		m.invalidated[l2Line] = true
	}
	m.dropL1(l2Line)
	return ok
}

func (m *modelHierarchy) downgradeRemote(l2Line uint64) (State, bool) {
	prev, ok := m.l2.downgrade(l2Line)
	if ok {
		for line := l2Line * m.subLines; line < (l2Line+1)*m.subLines; line++ {
			m.l1.downgrade(line)
		}
	}
	return prev, ok
}

// diff compares everything Hierarchy exposes with the model — both levels'
// exact contents and Resident, the counters and the footprint — describing
// the first difference, or "" when there is none.
func (m *modelHierarchy) diff(h *Hierarchy) string {
	if d := m.l1.diff(h.l1); d != "" {
		return "L1 " + d
	}
	if d := m.l2.diff(h.l2); d != "" {
		return "L2 " + d
	}
	if s := h.Stats(); s != m.stats {
		return fmt.Sprintf("Stats = %+v, model %+v", s, m.stats)
	}
	if got, want := h.EverCached(), len(m.everCached); got != want {
		return fmt.Sprintf("EverCached = %d, model %d", got, want)
	}
	return ""
}

// TestHierarchyStatsConsistencyProperty drives the hierarchy through the
// lane's steps, remote invalidations and remote downgrades, and after every
// step compares what it reports and everything it holds with the oracle.
// Two geometries: TinyTest (L1 and L2 lines coincide) and one whose L2
// lines hold two L1 lines, so inclusion drops and downgrades walk sub-lines.
// The stats must also be internally consistent: L2Misses = Compulsory +
// Coherence + Conflict and Accesses ≥ L1Misses ≥ L2Misses.
func TestHierarchyStatsConsistencyProperty(t *testing.T) {
	wide := testConfig()
	wide.L2.LineBytes = 32
	for _, cfg := range []machine.Config{testConfig(), wide} {
		f := func(seed int64) bool {
			rng := rand.New(rand.NewSource(seed))
			h := NewHierarchy(cfg)
			m := newModelHierarchy(h, cfg)
			words := 4 * cfg.L2.SizeBytes / 4 // 4× the L2 capacity, in 4-byte words
			var addr uint64
			for i := 0; i < 2000; i++ {
				what := ""
				switch r := rng.Intn(50); {
				case r == 0:
					line := h.L2LineOf(uint64(4 * rng.Intn(words)))
					if got, want := h.InvalidateRemote(line), m.invalidateRemote(line); got != want {
						what = fmt.Sprintf("InvalidateRemote(%d) = %v, model %v", line, got, want)
					}
				case r <= 2:
					line := h.L2LineOf(addr) // most often resident, in M or E
					if r == 2 {
						line = h.L2LineOf(uint64(4 * rng.Intn(words)))
					}
					st, ok := h.DowngradeRemote(line)
					if wantSt, wantOK := m.downgradeRemote(line); st != wantSt || ok != wantOK {
						what = fmt.Sprintf("DowngradeRemote(%d) = %v,%v; model %v,%v", line, st, ok, wantSt, wantOK)
					}
				default:
					if r < 20 {
						addr += 4 // the next word: memo hits and sibling lines
					} else {
						addr = uint64(4 * rng.Intn(words))
					}
					write := rng.Intn(3) == 0
					readGrant := []State{Exclusive, Shared}[rng.Intn(2)]
					grant := func(_ uint64, write bool) State {
						if write {
							return Modified
						}
						return readGrant
					}
					if got, want := access(h, addr, write, grant), m.access(addr, write, grant); got != want {
						what = fmt.Sprintf("access(%#x, write=%v) = %+v, model %+v", addr, write, got, want)
					}
				}
				if what == "" {
					what = m.diff(h)
				}
				if what != "" {
					t.Logf("L2 line %d B, seed %d, step %d: %s", cfg.L2.LineBytes, seed, i, what)
					return false
				}
			}
			s := h.Stats()
			return s.L2Misses == s.Compulsory+s.Coherence+s.Conflict &&
				s.Accesses >= s.L1Misses && s.L1Misses >= s.L2Misses
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
			t.Fatal(err)
		}
	}
}
