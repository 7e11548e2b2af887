// Package cache implements the private cache hierarchy of one simulated
// processor: a set-associative L1 data cache and a larger set-associative
// unified L2, both write-back with LRU replacement, holding lines in the
// Illinois-protocol states (Modified / Exclusive / Shared / Invalid) that the
// Origin 2000's coherence scheme uses.
//
// Beyond plain hit/miss simulation, the hierarchy classifies every L2 miss
// into the three categories the paper reasons about:
//
//   - compulsory — the processor has never cached the line before;
//   - coherence  — the line was removed by a remote write's invalidation;
//   - conflict   — everything else (the paper folds capacity and conflict
//     misses together under "conflict misses", §2.1).
//
// This classification is the simulator's ground truth. Scal-Tool never sees
// it; the model must *estimate* the same quantities from event-counter
// aggregates, and the tests compare the two.
package cache

import (
	"fmt"
	"math/bits"

	"scaltool/internal/assert"
	"scaltool/internal/machine"
)

// State is an Illinois/MESI cache-line state.
type State uint8

// Cache line states. The zero value is Invalid.
const (
	Invalid State = iota
	Shared
	Exclusive
	Modified
)

// String returns the conventional one-letter name.
func (s State) String() string {
	switch s {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	case Exclusive:
		return "E"
	case Modified:
		return "M"
	}
	return fmt.Sprintf("State(%d)", uint8(s))
}

// MissKind classifies an L2 miss.
type MissKind uint8

// L2 miss classes (ground truth, per §2.1 / Table 2 of the paper).
const (
	MissCompulsory MissKind = iota
	MissCoherence
	MissConflict // capacity + conflict, the paper's combined "conflict misses"
)

func (k MissKind) String() string {
	switch k {
	case MissCompulsory:
		return "compulsory"
	case MissCoherence:
		return "coherence"
	case MissConflict:
		return "conflict"
	}
	return fmt.Sprintf("MissKind(%d)", uint8(k))
}

// Cache is one set-associative, LRU, write-back cache. Lines are identified
// by line number (byte address >> log2(lineBytes)); the cache itself never
// sees byte addresses.
//
// The ways of all sets live in one flat slice indexed by set*assoc+way, each
// slot packing the line number and its state into a single word
// (line<<2 | state). Within a set the occupied ways come first, ordered MRU
// first, and the remaining slots hold 0 (state Invalid). A set probe
// therefore reads exactly one densely-packed word per way — the L2's way
// metadata is megabytes, so every probe is a *host* cache access, and one
// array instead of parallel line/state arrays halves that traffic. A line's
// set is its low line bits, with the page-number bits scrambled in only
// when the cache has more sets than a page has lines (see New).
type Cache struct {
	slots    []uint64 // flat ways: slots[set*assoc+way] = line<<2 | state
	assoc    int
	setMask  uint64
	pageBits uint // log2(lines per page) for physical-index emulation; 0 = plain modulo (see New)
	resident int

	// Frame-scramble memo: mix64 is a pure function of the page number, and
	// sequential sweeps stay on one page for hundreds of lines, so the
	// invariant memoFrame == mix64(memoPage) (established in New, maintained
	// on every update) lets set() skip the hash for repeat pages. Purely an
	// evaluation cache — no validity bit, no reset, no observable effect.
	memoPage  uint64
	memoFrame uint64
}

// stateBits is the slot width reserved for the packed State.
const stateBits = 2

func packSlot(line uint64, st State) uint64 { return line<<stateBits | uint64(st) }

func slotLine(s uint64) uint64 { return s >> stateBits }
func slotState(s uint64) State { return State(s & (1<<stateBits - 1)) }
func slotEmpty(s uint64) bool  { return s&(1<<stateBits-1) == uint64(Invalid) }
func (c *Cache) setSlotState(i int, st State) {
	c.slots[i] = c.slots[i]&^uint64(1<<stateBits-1) | uint64(st)
}

// New builds an empty cache with the given geometry. pageBytes, when
// positive, enables physical-index emulation: real machines index large
// caches with *physical* addresses, and the OS scatters physical page
// frames, so equal-offset blocks of different arrays land in uncorrelated
// sets. A simulator with virtual==physical and modulo indexing aliases such
// blocks pathologically (every array's block k maps onto the same sets).
// The emulation keeps the within-page index bits and deterministically
// scrambles the page-number bits — contiguous within a page, pseudo-random
// across pages, exactly like random frame allocation.
//
// The scramble only reaches the set index when the cache has more sets than
// a page has lines. Otherwise every set bit is a page-offset bit, the
// scrambled frame bits are masked off, and plain modulo indexing is the
// same function — so such a cache (the L1 of every built-in machine but
// TinyTest) skips the emulation entirely.
func New(cfg machine.CacheConfig, pageBytes int) *Cache {
	err := cfg.Validate()
	assert.True(err == nil, "cache: invalid config: %v", err)
	n := cfg.Sets() * cfg.Assoc
	c := &Cache{
		slots:   make([]uint64, n),
		assoc:   cfg.Assoc,
		setMask: uint64(cfg.Sets() - 1),
	}
	if linesPerPage := pageBytes / cfg.LineBytes; linesPerPage > 1 && cfg.Sets() > linesPerPage {
		c.pageBits = uint(bits.TrailingZeros(uint(linesPerPage)))
		c.memoFrame = mix64(c.memoPage)
	}
	return c
}

// set maps a line to its set index (see New for the indexing scheme). The
// modulo case inlines; the scramble is a call.
func (c *Cache) set(line uint64) int {
	if c.pageBits == 0 {
		return int(line & c.setMask)
	}
	return c.frameSet(line)
}

// frameSet is set under physical-index emulation. Kept out of line so set
// itself stays within the inlining budget.
//
//go:noinline
func (c *Cache) frameSet(line uint64) int {
	offset := line & (1<<c.pageBits - 1)
	if page := line >> c.pageBits; page != c.memoPage {
		c.memoPage = page
		c.memoFrame = mix64(page)
	}
	return int((offset | c.memoFrame<<c.pageBits) & c.setMask)
}

// mix64 is a splitmix64-style finalizer: a fixed, deterministic bijection
// standing in for the OS's physical frame assignment.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// SetOf exposes the line→set mapping (useful for constructing aliasing
// access patterns in tests and conflict studies).
func (c *Cache) SetOf(line uint64) int { return c.set(line) }

// find returns the slot index of line within its set, or -1. b is the set's
// base slot. Scanning stops at the first Invalid slot: occupied ways are
// always compacted to the front of the set.
func (c *Cache) find(line uint64, b int) int {
	want := packSlot(line, 0)
	for i, s := range c.slots[b : b+c.assoc] {
		if slotEmpty(s) {
			return -1
		}
		if s&^uint64(1<<stateBits-1) == want {
			return b + i
		}
	}
	return -1
}

// used returns the number of occupied ways of the set at base slot b.
func (c *Cache) used(b int) int {
	n := 0
	for n < c.assoc && !slotEmpty(c.slots[b+n]) {
		n++
	}
	return n
}

// toFront moves slot i of the set at base b to the MRU position, shifting
// the ways before it down by one. The shift is a scalar loop, not copy():
// the windows are at most assoc-1 elements, far below where memmove wins.
func (c *Cache) toFront(b, i int) {
	s := c.slots[i]
	for j := i; j > b; j-- {
		c.slots[j] = c.slots[j-1]
	}
	c.slots[b] = s
}

// base returns the first slot of line's set — the b every probe helper
// takes. The hierarchy's access path computes it once per line and reuses it
// across the probe, install and state-change steps of one access, instead of
// re-deriving the set (and its mix64 frame scramble) in every call.
func (c *Cache) base(line uint64) int { return c.set(line) * c.assoc }

// Lookup reports the state of a line without touching LRU order.
func (c *Cache) Lookup(line uint64) (State, bool) {
	if i := c.find(line, c.base(line)); i >= 0 {
		return slotState(c.slots[i]), true
	}
	return Invalid, false
}

// probeAt probes the set at base b for line and, on a hit, moves the line
// to MRU — the probe and the reorder fused into one pass (an MRU hit, the
// dominant case, moves nothing). It returns the line's state and whether it
// is resident. On a miss it also reports the first free slot of the set
// (b+assoc when the set is full), so a following installAt need not
// rescan; on a hit the slot result is meaningless.
func (c *Cache) probeAt(b int, line uint64) (State, bool, int) {
	want := packSlot(line, 0)
	for i, s := range c.slots[b : b+c.assoc] {
		if slotEmpty(s) {
			return Invalid, false, b + i
		}
		if s&^uint64(1<<stateBits-1) == want {
			if i > 0 {
				c.toFront(b, b+i)
			}
			return slotState(s), true, 0
		}
	}
	return Invalid, false, b + c.assoc
}

// installAt installs a known-non-resident line at MRU, given the set's first
// free slot as reported by probeAt with no intervening mutation of the set.
// free == b+assoc means the set is full: the LRU way is displaced and
// returned (an L1 caller ignores it — L1 evictions are silent under
// inclusion, the data lives on in L2).
func (c *Cache) installAt(b, free int, line uint64, st State) (ev Eviction, evicted bool) {
	if free == b+c.assoc {
		free--
		ev, evicted = Eviction{Line: slotLine(c.slots[free]), State: slotState(c.slots[free])}, true
	} else {
		c.resident++
	}
	for j := free; j > b; j-- {
		c.slots[j] = c.slots[j-1]
	}
	c.slots[b] = packSlot(line, st)
	return ev, evicted
}

// setStateIfResident changes a line's state if resident, reporting whether
// it was. It does not touch LRU order.
func (c *Cache) setStateIfResident(line uint64, st State) bool {
	if i := c.find(line, c.base(line)); i >= 0 {
		c.setSlotState(i, st)
		return true
	}
	return false
}

// Eviction describes a line displaced by installAt.
type Eviction struct {
	Line  uint64
	State State
}

// Invalidate removes a line if resident, returning its prior state. This is
// the path the directory's remote-write invalidations take. The remaining
// ways compact toward the front (preserving LRU order) and the vacated tail
// slot is cleared — no stale way value survives in the set.
func (c *Cache) Invalidate(line uint64) (State, bool) {
	b := c.base(line)
	i := c.find(line, b)
	if i < 0 {
		return Invalid, false
	}
	return c.removeAt(b, i), true
}

// removeAt removes the line in slot i of the set at base b, returning its
// state (see Invalidate).
func (c *Cache) removeAt(b, i int) State {
	prev := slotState(c.slots[i])
	n := c.used(b)
	last := b + n - 1
	for j := i; j < last; j++ {
		c.slots[j] = c.slots[j+1]
	}
	c.slots[last] = 0
	c.resident--
	return prev
}

// Downgrade moves a resident Modified/Exclusive line to Shared (a remote
// read hitting a dirty or exclusive line). Returns the prior state.
func (c *Cache) Downgrade(line uint64) (State, bool) {
	i := c.find(line, c.base(line))
	if i < 0 {
		return Invalid, false
	}
	prev := slotState(c.slots[i])
	if prev == Modified || prev == Exclusive {
		c.setSlotState(i, Shared)
	}
	return prev, true
}

// Resident returns the number of lines currently cached.
func (c *Cache) Resident() int { return c.resident }

// ForEach calls fn for every resident line in unspecified (but
// deterministic: set-major, MRU-first) order.
func (c *Cache) ForEach(fn func(line uint64, st State)) {
	for b := 0; b < len(c.slots); b += c.assoc {
		for i := b; i < b+c.assoc; i++ {
			s := c.slots[i]
			if slotEmpty(s) {
				break
			}
			fn(slotLine(s), slotState(s))
		}
	}
}

// Reset empties the cache — the pooled run arena's path back to a provably
// fresh cache. Equivalent to New for every observable behavior.
func (c *Cache) Reset() {
	clear(c.slots)
	c.resident = 0
}

// lineShift returns log2(lineBytes).
func lineShift(lineBytes int) uint {
	return uint(bits.TrailingZeros(uint(lineBytes)))
}
