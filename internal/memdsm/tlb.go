package memdsm

import "scaltool/internal/assert"

// TLB models one processor's translation lookaside buffer: fully
// associative over page numbers with LRU replacement (the R10000's 64-entry
// TLB, software-reloaded — the reload cost is the machine's TLBMiss
// latency). Scal-Tool's model deliberately neglects TLB misses, exactly as
// the paper does; simulating them makes that neglect a measured
// approximation instead of an omission (perfex does report TLB misses,
// §5: "perfex outputs the number of data and instruction misses in the
// caches and the number of TLB misses").
//
// LRU order is an intrusive doubly linked list over the slots, most
// recently used first, and a small open-addressed index maps a page to its
// slot, so every operation is O(1): a repeat of the most recent page is
// one compare against the list head and changes nothing, any other hit
// unlinks its slot and pushes it to the head, and a miss reuses the tail
// slot, which is exactly the least recently used page.
type TLB struct {
	entries int
	pages   []uint64 // slot → page, slots [0,used)
	prev    []int32  // slot → more recently used slot, -1 at the head
	next    []int32  // slot → less recently used slot, -1 at the tail
	head    int32    // most recently used slot, -1 when empty
	tail    int32    // least recently used slot, -1 when empty
	mru     uint64   // page+1 of the head slot, 0 when empty
	used    int32
	misses  uint64

	// index maps page+1 (0 marks a free cell) to its slot, with linear
	// probing at a load of at most 1/4 and backward-shift deletion.
	keys  []uint64
	slots []int32
	shift uint // 64 - log2(len(keys)), for Fibonacci hashing
}

// NewTLB creates a TLB with the given entry count (0 disables: every access
// hits).
func NewTLB(entries int) *TLB {
	assert.True(entries >= 0 && entries < 1<<30, "memdsm: bad TLB entries %d", entries)
	cells, shift := 4, uint(62)
	for cells < 4*entries {
		cells <<= 1
		shift--
	}
	return &TLB{
		entries: entries,
		pages:   make([]uint64, entries),
		prev:    make([]int32, entries),
		next:    make([]int32, entries),
		head:    -1,
		tail:    -1,
		keys:    make([]uint64, cells),
		slots:   make([]int32, cells),
		shift:   shift,
	}
}

// HitLast reports whether page is the most recently used page — small
// enough to inline into the simulator's per-access loop, and, since a
// repeat of the head changes no LRU state, exactly what Access would do
// for it. On false the caller must run Access (a disabled TLB reports
// false here and hits in Access).
func (t *TLB) HitLast(page uint64) bool {
	return t.mru == page+1
}

// Access looks up a page, updating LRU order; it returns true on a hit.
// A disabled TLB (0 entries) always hits.
func (t *TLB) Access(page uint64) bool {
	if t.entries == 0 {
		return true
	}
	if t.HitLast(page) {
		return true
	}
	if s := t.find(page); s >= 0 {
		t.unlink(s)
		t.pushFront(s)
		return true
	}
	t.misses++
	s := t.used
	if int(t.used) < t.entries {
		t.used++
	} else {
		s = t.tail
		t.unlink(s)
		t.remove(t.pages[s])
	}
	t.pages[s] = page
	t.insert(page, s)
	t.pushFront(s)
	return false
}

// cell returns page's home cell in the index.
func (t *TLB) cell(page uint64) int {
	return int((page + 1) * 0x9e3779b97f4a7c15 >> t.shift)
}

// find returns page's slot, or -1.
func (t *TLB) find(page uint64) int32 {
	mask := len(t.keys) - 1
	for i := t.cell(page); t.keys[i] != 0; i = (i + 1) & mask {
		if t.keys[i] == page+1 {
			return t.slots[i]
		}
	}
	return -1
}

// insert indexes a page that is not resident.
func (t *TLB) insert(page uint64, s int32) {
	mask := len(t.keys) - 1
	i := t.cell(page)
	for t.keys[i] != 0 {
		i = (i + 1) & mask
	}
	t.keys[i], t.slots[i] = page+1, s
}

// remove drops a resident page from the index, shifting later cells of
// its probe run back so no lookup chain is broken.
func (t *TLB) remove(page uint64) {
	mask := len(t.keys) - 1
	i := t.cell(page)
	for t.keys[i] != page+1 {
		i = (i + 1) & mask
	}
	for j := (i + 1) & mask; t.keys[j] != 0; j = (j + 1) & mask {
		// The entry at j may fill the hole at i only if its home cell does
		// not lie cyclically in (i, j].
		if home := t.cell(t.keys[j] - 1); (j-home)&mask >= (j-i)&mask {
			t.keys[i], t.slots[i] = t.keys[j], t.slots[j]
			i = j
		}
	}
	t.keys[i] = 0
}

func (t *TLB) unlink(s int32) {
	p, n := t.prev[s], t.next[s]
	if p >= 0 {
		t.next[p] = n
	} else {
		t.head = n
	}
	if n >= 0 {
		t.prev[n] = p
	} else {
		t.tail = p
	}
}

func (t *TLB) pushFront(s int32) {
	t.prev[s], t.next[s] = -1, t.head
	if t.head >= 0 {
		t.prev[t.head] = s
	} else {
		t.tail = s
	}
	t.head = s
	t.mru = t.pages[s] + 1
}

// Misses returns the cumulative miss count.
func (t *TLB) Misses() uint64 { return t.misses }

// Resident returns the number of cached translations.
func (t *TLB) Resident() int { return int(t.used) }

// Reset empties the TLB and zeroes its miss counter, reusing the slot and
// index arrays — the pooled run arena's path back to a fresh TLB.
func (t *TLB) Reset() {
	t.used = 0
	t.head, t.tail = -1, -1
	t.mru = 0
	t.misses = 0
	clear(t.keys)
}
