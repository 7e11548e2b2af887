// Package memdsm models the distributed main memory of the DSM machine: a
// flat simulated address space carved into pages, where each page has a
// *home node* chosen by a placement policy. The Origin 2000 default the
// paper uses is first-touch: a page's home is the node of the first
// processor that references it. The directory for a line lives at the line's
// home, so page placement determines how far an L2 miss must travel — the
// physical origin of the model's tm(n).
package memdsm

import (
	"errors"
	"fmt"
	"math/bits"

	"scaltool/internal/assert"
)

// Placement selects the page-placement policy.
type Placement uint8

// Placement policies.
const (
	// FirstTouch homes a page at the first processor that references it
	// (the SGI MP-library default the paper's applications run under).
	FirstTouch Placement = iota
	// RoundRobin stripes pages across processors — a common alternative
	// policy, exposed for what-if studies of placement sensitivity.
	RoundRobin
	// AllOnZero homes every page at processor 0, modeling a centralized
	// memory (the worst case for tm(n) scaling).
	AllOnZero
)

func (p Placement) String() string {
	switch p {
	case FirstTouch:
		return "first-touch"
	case RoundRobin:
		return "round-robin"
	case AllOnZero:
		return "all-on-zero"
	}
	return fmt.Sprintf("Placement(%d)", uint8(p))
}

// Region is an allocated span of the simulated address space.
type Region struct {
	Name string
	Base uint64
	Size uint64
}

// End returns one past the last byte.
func (r Region) End() uint64 { return r.Base + r.Size }

// Addr returns the byte address at offset off, panicking on overflow —
// application generators index arrays with it, so out-of-bounds math is a
// bug in the app, not a runtime condition.
func (r Region) Addr(off uint64) uint64 {
	if off >= r.Size {
		assert.Failf("memdsm: offset %d out of region %q (size %d)", off, r.Name, r.Size)
	}
	return r.Base + off
}

// AddressSpace hands out non-overlapping page-aligned regions of the
// simulated memory. Each simulated run builds its own space.
type AddressSpace struct {
	pageBytes uint64
	next      uint64
	regions   []Region
}

// NewAddressSpace creates an allocator whose regions are aligned to
// pageBytes (a power of two).
func NewAddressSpace(pageBytes int) (*AddressSpace, error) {
	if pageBytes <= 0 || pageBytes&(pageBytes-1) != 0 {
		return nil, fmt.Errorf("memdsm: page size %d not a positive power of two", pageBytes)
	}
	return &AddressSpace{pageBytes: uint64(pageBytes)}, nil
}

// Alloc reserves size bytes under the given name. Regions are page-aligned
// and padded to whole pages so distinct arrays never share a page (and hence
// never share an L2 line — the paper's applications are array codes where
// inter-array false sharing is negligible).
func (a *AddressSpace) Alloc(name string, size uint64) (Region, error) {
	if size == 0 {
		return Region{}, errors.New("memdsm: zero-size allocation")
	}
	r := Region{Name: name, Base: a.next, Size: size}
	pages := (size + a.pageBytes - 1) / a.pageBytes
	a.next += pages * a.pageBytes
	a.regions = append(a.regions, r)
	return r, nil
}

// MustAlloc is Alloc for application setup code, where a failure is a
// programming error.
func (a *AddressSpace) MustAlloc(name string, size uint64) Region {
	r, err := a.Alloc(name, size)
	if err != nil {
		panic(err)
	}
	return r
}

// Bytes returns the total reserved bytes (page-padded).
func (a *AddressSpace) Bytes() uint64 { return a.next }

// Regions returns the allocations made so far, in allocation order.
func (a *AddressSpace) Regions() []Region {
	out := make([]Region, len(a.regions))
	copy(out, a.regions)
	return out
}

// Memory tracks page homes for one run.
type Memory struct {
	pageShift uint
	policy    Placement
	procs     int
	homes     []int16 // page → home processor; -1 = untouched
	touched   int
}

// NewMemory creates the page-home table for a run with the given processor
// count and policy.
func NewMemory(pageBytes, procs int, policy Placement) (*Memory, error) {
	if pageBytes <= 0 || pageBytes&(pageBytes-1) != 0 {
		return nil, fmt.Errorf("memdsm: page size %d not a positive power of two", pageBytes)
	}
	if procs <= 0 || procs > 1<<15 {
		return nil, fmt.Errorf("memdsm: bad processor count %d", procs)
	}
	return &Memory{
		pageShift: uint(bits.TrailingZeros(uint(pageBytes))),
		policy:    policy,
		procs:     procs,
	}, nil
}

// PageOf maps an address to its page index.
func (m *Memory) PageOf(addr uint64) uint64 { return addr >> m.pageShift }

// HomeOf returns the home processor of the page containing addr, assigning
// it per the placement policy on first touch. toucher is the referencing
// processor (used by FirstTouch).
func (m *Memory) HomeOf(addr uint64, toucher int) int {
	if toucher < 0 || toucher >= m.procs {
		assert.Failf("memdsm: toucher %d out of range [0,%d)", toucher, m.procs)
	}
	page := m.PageOf(addr)
	for uint64(len(m.homes)) <= page {
		m.homes = append(m.homes, -1)
	}
	if h := m.homes[page]; h >= 0 {
		return int(h)
	}
	var home int
	switch m.policy {
	case FirstTouch:
		home = toucher
	case RoundRobin:
		home = int(page % uint64(m.procs))
	case AllOnZero:
		home = 0
	default:
		assert.Unreachable("memdsm: unknown placement policy")
	}
	m.homes[page] = int16(home)
	m.touched++
	return home
}

// Home returns the page home without assigning (-1 if untouched).
func (m *Memory) Home(addr uint64) int {
	page := m.PageOf(addr)
	if page >= uint64(len(m.homes)) {
		return -1
	}
	return int(m.homes[page])
}

// TouchedPages returns the number of pages with assigned homes — the
// quantity the ssusage analogue reports as the application's resident size.
func (m *Memory) TouchedPages() int { return m.touched }

// Reset empties the page-home table for a new run with the given processor
// count and policy, reusing the backing array (page size is fixed at
// construction). The pooled run arena calls this between runs.
func (m *Memory) Reset(procs int, policy Placement) error {
	if procs <= 0 || procs > 1<<15 {
		return fmt.Errorf("memdsm: bad processor count %d", procs)
	}
	m.homes = m.homes[:0]
	m.touched = 0
	m.procs = procs
	m.policy = policy
	return nil
}
