// Package directory implements the bit-vector cache-coherence directory of
// the simulated DSM machine, at region granularity.
//
// The simulator executes barrier-delimited parallel regions. Within a
// region every processor runs against an *immutable* directory snapshot
// (deterministic and embarrassingly parallel); each processor buffers the
// set of lines it read-filled and wrote. At the region's closing barrier the
// buffers are merged, in processor order, into the directory:
//
//   - a written line's previous cached copies elsewhere are invalidated
//     (they become coherence misses on their owners' next access),
//   - read lines gain sharers,
//   - lines touched by several processors with at least one writer in the
//     same region are counted as true/false-sharing events (the effect the
//     paper's model deliberately neglects and lists as future work).
//
// Like the real Origin directory, sharer bits are conservative: caches evict
// silently, so an invalidation may target a processor that no longer holds
// the line — the cache model treats that as a no-op, exactly as hardware
// does.
//
// Directory state is laid out flat: an open-addressed table maps a line
// number to an index into dense struct-of-arrays entry storage, and every
// entry's sharer bit-vector lives in one shared word arena (d.words
// words per entry). Nothing on the probe path chases a pointer, and the
// merge works entirely out of scratch buffers that are reused from region
// to region — after warm-up a Merge allocates only when the region's
// footprint outgrows every previous region's.
package directory

import (
	"math/bits"
	"slices"
	"strconv"
)

// LineInfo is the immutable answer to a snapshot probe.
type LineInfo struct {
	Cached  bool // some processor may hold the line
	Owner   int  // exclusive owner, -1 if none
	Dirty   bool // owner's copy is Modified
	Sharers int  // number of sharers (including a clean owner)
}

// lineIndex is an open-addressed hash table from line number to a dense
// entry index. Entries are only ever added (directory state persists for
// the whole run), so there are no tombstones; a slot is free iff its value
// is -1.
type lineIndex struct {
	keys []uint64
	vals []int32
	mask uint64
	n    int
}

const lineIndexMinCap = 1024

func newLineIndex(capHint int) lineIndex {
	c := lineIndexMinCap
	for c < capHint {
		c <<= 1
	}
	ix := lineIndex{keys: make([]uint64, c), vals: make([]int32, c), mask: uint64(c - 1)}
	for i := range ix.vals {
		ix.vals[i] = -1
	}
	return ix
}

// hashLine is a splitmix64-style finalizer.
func hashLine(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// slotOf maps a line to its preferred table slot. A pure function —
// concurrent get calls from the in-region simulation goroutines share no
// state.
func (ix *lineIndex) slotOf(line uint64) uint64 {
	return hashLine(line) & ix.mask
}

// get returns the dense index of line, or -1.
func (ix *lineIndex) get(line uint64) int32 {
	i := ix.slotOf(line)
	for {
		v := ix.vals[i]
		if v < 0 || ix.keys[i] == line {
			return v
		}
		i = (i + 1) & ix.mask
	}
}

// put inserts line→idx (line must not be present).
func (ix *lineIndex) put(line uint64, idx int32) {
	if ix.n+1 >= len(ix.keys)-len(ix.keys)/4 {
		ix.grow()
	}
	i := ix.slotOf(line)
	for ix.vals[i] >= 0 {
		i = (i + 1) & ix.mask
	}
	ix.keys[i] = line
	ix.vals[i] = idx
	ix.n++
}

func (ix *lineIndex) grow() { ix.growTo(len(ix.keys) * 2) }

// reserve grows the table in one step until n entries fit within the load
// bound — Merge sizes the table from its input so the per-region insert
// storm rehashes zero times instead of log(n) times.
func (ix *lineIndex) reserve(n int) {
	c := len(ix.keys)
	if n+1 < c-c/4 {
		return
	}
	for n+1 >= c-c/4 {
		c <<= 1
	}
	ix.growTo(c)
}

func (ix *lineIndex) growTo(c int) {
	oldKeys, oldVals := ix.keys, ix.vals
	ix.keys = make([]uint64, c)
	ix.vals = make([]int32, c)
	ix.mask = uint64(c - 1)
	for i := range ix.vals {
		ix.vals[i] = -1
	}
	for i, v := range oldVals {
		if v < 0 {
			continue
		}
		k := oldKeys[i]
		j := ix.slotOf(k)
		for ix.vals[j] >= 0 {
			j = (j + 1) & ix.mask
		}
		ix.keys[j] = k
		ix.vals[j] = v
	}
}

// reset empties the table, keeping capacity.
func (ix *lineIndex) reset() {
	for i := range ix.vals {
		ix.vals[i] = -1
	}
	ix.n = 0
}

// Directory tracks the global coherence state of every line that has ever
// been cached.
type Directory struct {
	procs int
	words int // sharer bit-vector words per entry

	idx     lineIndex
	lines   []uint64 // dense: entry index → line number
	owner   []int16  // -1 when the line is shared or uncached
	dirty   []bool
	sharers []uint64 // word arena: entry i's vector at [i*words, (i+1)*words)

	invalidationsSent uint64
	sharingLines      uint64 // region-sharing events (≥2 procs, ≥1 writer)

	// ensure's run memo: the merge passes walk each processor's sorted line
	// sets, and the dense entry arrays were filled by those same sorted
	// walks, so line k+1 usually lives at entry e+1. The guess is verified
	// against lines[] before use (a sequential read), replacing a scattered
	// hash probe for the common case. Only Merge — single-threaded — calls
	// ensure, so the memo never races with concurrent Probes.
	lastLine  uint64
	lastEntry int32

	scratch mergeScratch
}

// mergeScratch holds the per-Merge working state, reused across regions.
type mergeScratch struct {
	// marks is the sharing count's word per directory entry (parallel to
	// the entry arrays): the stamp of the last region that touched the
	// entry, the first processor that did, and whether a writer and a
	// second processor have touched it since. A stale stamp reads as
	// untouched, so nothing is cleared between regions.
	marks   []uint64
	stamp   uint32  // this region's stamp; 0 is never used
	entries []int32 // pass 0's entry of every record, in walk order
	inv     []Invalidation
	down    []Invalidation
}

// A mark word: the region stamp in the high half, the first processor in
// bits 2–31, and two flags.
const (
	markWrote = 1 << 0 // some processor wrote the line
	markMulti = 1 << 1 // a second processor touched the line
	markProc  = (1<<32 - 1) &^ (markWrote | markMulti)
)

// mark records one access of entry e for the sharing count. stamp is the
// region's stamp shifted into the high half, p the processor shifted past
// the flags and w markWrote or 0. It reports whether the line has just
// become shared: ≥2 distinct processors, at least one writing.
func (s *mergeScratch) mark(e int32, stamp, p, w uint64) bool {
	old := s.marks[e]
	if old&^(1<<32-1) != stamp {
		s.marks[e] = stamp | p | w
		return false
	}
	m := old | w
	if m&markProc != p {
		m |= markMulti
	}
	s.marks[e] = m
	const shared = markWrote | markMulti
	return m&shared == shared && old&shared != shared
}

// New creates an empty directory for a machine with procs processors.
func New(procs int) *Directory {
	if procs <= 0 {
		panic("directory: bad processor count " + strconv.Itoa(procs))
	}
	d := &Directory{}
	d.init(procs)
	return d
}

func (d *Directory) init(procs int) {
	d.procs = procs
	d.words = (procs + 63) / 64
	d.idx = newLineIndex(lineIndexMinCap)
	d.lastEntry = -1
}

// Reset returns the directory to its just-built state for a machine with
// procs processors, reusing the backing arrays. The pooled run arena calls
// this between runs.
func (d *Directory) Reset(procs int) {
	if procs <= 0 {
		panic("directory: bad processor count " + strconv.Itoa(procs))
	}
	d.procs = procs
	d.words = (procs + 63) / 64
	d.idx.reset()
	d.lines = d.lines[:0]
	d.owner = d.owner[:0]
	d.dirty = d.dirty[:0]
	d.sharers = d.sharers[:0]
	d.scratch.marks = d.scratch.marks[:0]
	d.invalidationsSent = 0
	d.sharingLines = 0
	d.lastLine = 0
	d.lastEntry = -1
}

// Probe returns the current (snapshot) state of a line. During a region the
// directory is only probed, never mutated, so concurrent probes from the
// per-processor simulation goroutines are safe.
//
// hint is the caller's own run memo: the entry its previous probe
// returned, or -1. A sweep probes lines in ascending order, and merges
// create their entries in that same order, so the entry after hint is
// checked against lines[] first and the hash probe runs only when the
// guess is wrong. Probe returns the line's entry (-1 if uncached) as the
// next hint; the memo is the caller's, so concurrent probes still share
// no state.
func (d *Directory) Probe(line uint64, hint int32) (LineInfo, int32) {
	e := hint + 1
	if int(e) >= len(d.lines) || d.lines[e] != line {
		if e = d.idx.get(line); e < 0 {
			return LineInfo{Owner: -1}, hint
		}
	}
	return LineInfo{
		Cached:  true,
		Owner:   int(d.owner[e]),
		Dirty:   d.dirty[e],
		Sharers: d.countSharers(int(e)),
	}, e
}

func (d *Directory) countSharers(e int) int {
	if d.words == 1 {
		return bits.OnesCount64(d.sharers[e])
	}
	c := 0
	for _, w := range d.sharers[e*d.words : (e+1)*d.words] {
		c += bits.OnesCount64(w)
	}
	return c
}

// RegionAccess is one processor's buffered coherence activity for a region.
// ReadFills lists lines the processor filled (L2 misses serviced) for
// reading; Writes lists lines it wrote (write misses and S→M upgrades).
// Slices must not contain duplicates; order is irrelevant.
type RegionAccess struct {
	Proc      int
	ReadFills []uint64
	Writes    []uint64
}

// Invalidation directs the simulator to remove a line from a processor's
// caches.
type Invalidation struct {
	Line uint64
	Proc int
}

// MergeResult reports the cache maintenance the simulator must apply and
// the sharing statistics of the region. The Invalidations and Downgrades
// slices are owned by the directory and valid only until the next Merge;
// callers that need them longer must copy.
type MergeResult struct {
	// Invalidations lists (line, processor) pairs whose cached copies are
	// stale after the region's writes. Deterministic order: by merge
	// sequence, then processor.
	Invalidations []Invalidation
	// Downgrades lists dirty/exclusive copies that must fall to Shared
	// because a remote processor read the line this region.
	Downgrades []Invalidation
	// SharingLines counts lines accessed by ≥2 processors with ≥1 writer
	// within this region (true or false sharing at line granularity).
	SharingLines int
}

// Merge folds a region's buffered accesses into the directory, in processor
// order, and returns the invalidations/downgrades to apply to the caches.
func (d *Directory) Merge(accesses []RegionAccess) MergeResult {
	var res MergeResult
	s := &d.scratch
	s.inv = s.inv[:0]
	s.down = s.down[:0]
	W := d.words

	total := 0
	for _, a := range accesses {
		total += len(a.ReadFills) + len(a.Writes)
	}
	// Presize the directory for the worst case (every record a new line)
	// before the passes run: the index rehashes once while still small and
	// the dense arrays stop doubling mid-merge — no multi-megabyte memmove
	// or rehash storm in the middle of a pass.
	d.idx.reserve(d.idx.n + total)
	d.lines = slices.Grow(d.lines, total)
	d.owner = slices.Grow(d.owner, total)
	d.dirty = slices.Grow(d.dirty, total)
	d.sharers = slices.Grow(d.sharers, total*W)

	for _, a := range accesses {
		d.checkProc(a.Proc)
	}

	// Pass 0: resolve every record's directory entry once, creating the
	// entries of lines the directory has not seen (each region's lines get
	// entries in passes 1 and 2 anyway; entry order is not observable,
	// since entries are only reached through their line). s.entries holds
	// them in walk order — each access's read fills, then its writes — so
	// the later passes index it instead of re-probing the index.
	s.entries = growCap32(s.entries, total)
	for _, a := range accesses {
		for _, l := range a.ReadFills {
			s.entries = append(s.entries, int32(d.ensure(l)))
		}
		for _, l := range a.Writes {
			s.entries = append(s.entries, int32(d.ensure(l)))
		}
	}

	// Intra-region sharing: ≥2 distinct procs touching a line, at least
	// one writing it, counted in the per-entry mark words, so a line costs
	// one array index, no hash insert. With a single access list ≥2
	// distinct processors is impossible and the count is zero.
	if len(accesses) > 1 {
		for len(s.marks) < len(d.lines) {
			s.marks = append(s.marks, 0)
		}
		if s.stamp++; s.stamp == 0 {
			clear(s.marks)
			s.stamp = 1
		}
		stamp := uint64(s.stamp) << 32
		k := 0
		for _, a := range accesses {
			p := uint64(a.Proc) << 2
			for range a.ReadFills {
				if s.mark(s.entries[k], stamp, p, 0) {
					res.SharingLines++
				}
				k++
			}
			for range a.Writes {
				if s.mark(s.entries[k], stamp, p, markWrote) {
					res.SharingLines++
				}
				k++
			}
		}
		d.sharingLines += uint64(res.SharingLines)
	}

	// Pass 1: writes, in processor order. The last writer in processor
	// order becomes the owner; every other holder is invalidated. The
	// W == 1 body (≤64 processors, every current machine) works on the
	// single vector word directly — same invalidation order (ascending
	// processor), same final state, no slice loop per line.
	if W == 1 {
		off := 0
		for _, a := range accesses {
			bit := uint64(1) << (uint(a.Proc) & 63)
			ents := s.entries[off+len(a.ReadFills) : off+len(a.ReadFills)+len(a.Writes)]
			off += len(a.ReadFills) + len(a.Writes)
			for k, line := range a.Writes {
				e := ents[k]
				w := d.sharers[e]
				for v := w; v != 0; v &= v - 1 {
					p := bits.TrailingZeros64(v)
					if p != a.Proc {
						s.inv = append(s.inv, Invalidation{Line: line, Proc: p})
						d.invalidationsSent++
					}
				}
				if own := d.owner[e]; own >= 0 && int(own) != a.Proc && w&(1<<(uint(own)&63)) == 0 {
					s.inv = append(s.inv, Invalidation{Line: line, Proc: int(own)})
					d.invalidationsSent++
				}
				d.sharers[e] = bit
				d.owner[e] = int16(a.Proc)
				d.dirty[e] = true
			}
		}
	} else {
		off := 0
		for _, a := range accesses {
			ents := s.entries[off+len(a.ReadFills) : off+len(a.ReadFills)+len(a.Writes)]
			off += len(a.ReadFills) + len(a.Writes)
			for k, line := range a.Writes {
				e := int(ents[k])
				// Invalidate all current holders except the writer.
				vec := d.sharers[e*W : (e+1)*W]
				for wi, w := range vec {
					for w != 0 {
						p := wi<<6 + bits.TrailingZeros64(w)
						w &= w - 1
						if p != a.Proc {
							s.inv = append(s.inv, Invalidation{Line: line, Proc: p})
							d.invalidationsSent++
						}
					}
				}
				if own := d.owner[e]; own >= 0 && int(own) != a.Proc && !d.hasSharer(e, int(own)) {
					s.inv = append(s.inv, Invalidation{Line: line, Proc: int(own)})
					d.invalidationsSent++
				}
				clearWords(vec)
				d.setSharer(e, a.Proc)
				d.owner[e] = int16(a.Proc)
				d.dirty[e] = true
			}
		}
	}

	// Pass 2: read fills. Readers join the sharer set; a dirty owner other
	// than the reader is downgraded to Shared. W == 1 specialized like
	// pass 1.
	if W == 1 {
		off := 0
		for _, a := range accesses {
			bit := uint64(1) << (uint(a.Proc) & 63)
			ents := s.entries[off : off+len(a.ReadFills)]
			off += len(a.ReadFills) + len(a.Writes)
			for k, line := range a.ReadFills {
				e := ents[k]
				if own := d.owner[e]; own >= 0 && int(own) != a.Proc {
					if d.dirty[e] {
						s.down = append(s.down, Invalidation{Line: line, Proc: int(own)})
					}
					d.dirty[e] = false
					d.owner[e] = -1
				}
				sh := d.sharers[e]
				if sh == 0 && d.owner[e] < 0 {
					// First and only holder: becomes clean exclusive owner.
					d.owner[e] = int16(a.Proc)
					d.dirty[e] = false
				}
				sh |= bit
				d.sharers[e] = sh
				if bits.OnesCount64(sh) > 1 {
					d.owner[e] = -1
					d.dirty[e] = false
				}
			}
		}
	} else {
		off := 0
		for _, a := range accesses {
			ents := s.entries[off : off+len(a.ReadFills)]
			off += len(a.ReadFills) + len(a.Writes)
			for k, line := range a.ReadFills {
				e := int(ents[k])
				if own := d.owner[e]; own >= 0 && int(own) != a.Proc {
					if d.dirty[e] {
						s.down = append(s.down, Invalidation{Line: line, Proc: int(own)})
					}
					d.dirty[e] = false
					d.owner[e] = -1
				}
				if d.countSharers(e) == 0 && d.owner[e] < 0 {
					// First and only holder: becomes clean exclusive owner.
					d.owner[e] = int16(a.Proc)
					d.dirty[e] = false
				}
				d.setSharer(e, a.Proc)
				if d.countSharers(e) > 1 {
					d.owner[e] = -1
					d.dirty[e] = false
				}
			}
		}
	}
	res.Invalidations = s.inv
	res.Downgrades = s.down
	return res
}

// growCap32 truncates b to length 0, reallocating when its capacity is
// below n — one allocation up front instead of a doubling cascade of
// memmoves during the merge's append storm.
func growCap32(b []int32, n int) []int32 {
	if cap(b) < n {
		return make([]int32, 0, n)
	}
	return b[:0]
}

func (d *Directory) setSharer(e, p int) {
	d.sharers[e*d.words+p>>6] |= 1 << (uint(p) & 63)
}

func (d *Directory) hasSharer(e, p int) bool {
	return d.sharers[e*d.words+p>>6]&(1<<(uint(p)&63)) != 0
}

func clearWords(w []uint64) {
	for i := range w {
		w[i] = 0
	}
}

// InvalidationsSent returns the total invalidation messages generated.
func (d *Directory) InvalidationsSent() uint64 { return d.invalidationsSent }

// SharingLineEvents returns the cumulative region-sharing events observed.
func (d *Directory) SharingLineEvents() uint64 { return d.sharingLines }

// ensure returns the dense entry index of line, creating the entry if new.
func (d *Directory) ensure(line uint64) int {
	if g := d.lastEntry + 1; line == d.lastLine+1 && int(g) < len(d.lines) && d.lines[g] == line {
		d.lastLine, d.lastEntry = line, g
		return int(g)
	}
	if e := d.idx.get(line); e >= 0 {
		d.lastLine, d.lastEntry = line, e
		return int(e)
	}
	e := len(d.lines)
	d.idx.put(line, int32(e))
	d.lines = append(d.lines, line)
	d.owner = append(d.owner, -1)
	d.dirty = append(d.dirty, false)
	for i := 0; i < d.words; i++ {
		d.sharers = append(d.sharers, 0)
	}
	d.lastLine, d.lastEntry = line, int32(e)
	return e
}

func (d *Directory) checkProc(p int) {
	if p < 0 || p >= d.procs {
		panic("directory: processor " + strconv.Itoa(p) + " out of range [0," + strconv.Itoa(d.procs) + ")")
	}
}
