package cache

// lineFlags is an open-addressed hash table from L2 line number to a small
// flag set, the per-line history the miss classifier reads: one table, one
// lookup, zero steady-state allocation once grown, and a Reset that
// recycles the backing array for the pooled run arena.
//
// Each cell packs a line and its flags into one word (line<<2 | flags), so
// a probe touches one host cache line, not a key array and a parallel value
// array. Lines are only ever added (flagEverCached never clears), so the
// table needs no tombstones: a cell is occupied iff its flag bits are
// non-zero. Linear probing from a Fibonacci hash — one multiply, and it
// spreads the contiguous line ranges of array sweeps evenly — keeps probe
// chains short at the 7/8 load bound.
type lineFlags struct {
	cells []uint64
	shift uint // 64 - log2(len(cells))
	n     int  // occupied cells
}

// Flag bits. flagEverCached marks lines this processor has ever held;
// flagInvalidated marks lines removed by a remote write's invalidation while
// resident (cleared again when the resulting coherence miss is consumed).
const (
	flagEverCached  uint8 = 1 << 0
	flagInvalidated uint8 = 1 << 1
	flagBits              = 2
)

const lineFlagsMinCap = 1024

func newLineFlags() lineFlags {
	return lineFlags{cells: make([]uint64, lineFlagsMinCap), shift: 64 - 10}
}

// slot returns the index of line's cell, or of the empty cell where it
// would be inserted.
func (f *lineFlags) slot(line uint64) int {
	mask := len(f.cells) - 1
	i := int(line * 0x9e3779b97f4a7c15 >> f.shift)
	for c := f.cells[i]; c != 0 && c>>flagBits != line; c = f.cells[i] {
		i = (i + 1) & mask
	}
	return i
}

// or sets the given flag bits on line, inserting it if new.
func (f *lineFlags) or(line uint64, bits uint8) {
	i := f.claim(line)
	f.cells[i] |= line<<flagBits | uint64(bits)
}

// missClassify returns line's flags as they stood before this miss and
// leaves the cell holding exactly flagEverCached — a get plus an or plus
// (for coherence misses) a clear, in one probe. The probe is a dependent
// random-index load, so on large footprints each call is a real host cache
// miss; this is the L2-miss path's single hottest table.
func (f *lineFlags) missClassify(line uint64) uint8 {
	i := f.claim(line)
	prev := uint8(f.cells[i] & (1<<flagBits - 1))
	f.cells[i] = line<<flagBits | uint64(flagEverCached)
	return prev
}

// claim returns line's cell, counting it (and growing first if the table
// is at its load bound) when the line is new.
func (f *lineFlags) claim(line uint64) int {
	i := f.slot(line)
	if f.cells[i] == 0 {
		if f.n+1 >= len(f.cells)-len(f.cells)/8 {
			f.grow()
			i = f.slot(line)
		}
		f.n++
	}
	return i
}

// count returns the number of tracked lines.
func (f *lineFlags) count() int { return f.n }

// reset empties the table, keeping capacity.
func (f *lineFlags) reset() {
	clear(f.cells)
	f.n = 0
}

func (f *lineFlags) grow() {
	old := f.cells
	f.cells = make([]uint64, 2*len(old))
	f.shift--
	for _, c := range old {
		if c != 0 {
			f.cells[f.slot(c>>flagBits)] = c
		}
	}
}
