// Package sim is the execution-driven simulator of the DSM multiprocessor.
//
// A simulated application is a Program: an ordered list of barrier-delimited
// parallel Regions, matching the structure of the paper's applications (MP
// DOACROSS loops end in implicit barriers; PCF codes use explicit barriers
// and serial sections). Within a region every processor executes its own
// Stream of batched operations — compute bursts, sequential/strided array
// sweeps, gathers, and critical sections.
//
// The engine (engine.go) runs each region's streams through per-processor
// cache hierarchies against an immutable coherence snapshot, merges
// coherence state at the closing barrier, and charges a detailed barrier
// cost model (fetchop round trip, serialization at the barrier variable's
// home, release invalidation, spin-wait). Every cycle is attributed to one
// of three ground-truth buckets — busy, synchronization, load imbalance —
// which the perftools package exposes as the speedshop analogue used to
// validate Scal-Tool.
package sim

import (
	"fmt"

	"scaltool/internal/memdsm"
)

// OpKind discriminates stream operations.
type OpKind uint8

// Stream operation kinds.
const (
	// OpCompute executes Instr non-memory instructions.
	OpCompute OpKind = iota
	// OpSeq performs Count memory accesses starting at Base, advancing
	// Stride bytes per access, with InstrPer extra compute instructions
	// interleaved before each access (the loop body).
	OpSeq
	// OpGather performs one access per element of Addrs, with InstrPer
	// compute instructions before each (indirect/irregular access).
	OpGather
	// OpCritical executes a lock-protected critical section of Instr
	// compute instructions. Critical sections of different processors in
	// the same region serialize.
	OpCritical
)

// Op is one batched stream operation. Exactly the fields relevant to Kind
// are used.
type Op struct {
	Kind     OpKind
	Instr    uint64   // OpCompute, OpCritical: compute instructions; OpSeq/OpGather: unused
	Base     uint64   // OpSeq: first byte address
	Count    uint64   // OpSeq: number of accesses
	Stride   int64    // OpSeq: bytes between accesses (may be negative)
	Write    bool     // OpSeq/OpGather: store vs load
	InstrPer uint64   // OpSeq/OpGather: compute instructions per access
	Addrs    []uint64 // OpGather: explicit addresses
}

// Stream is one processor's work in one region.
type Stream struct {
	Ops []Op
}

// Compute appends a compute burst.
func (s *Stream) Compute(instr uint64) {
	if instr == 0 {
		return
	}
	s.Ops = append(s.Ops, Op{Kind: OpCompute, Instr: instr})
}

// Seq appends a strided sweep of count accesses.
func (s *Stream) Seq(base uint64, count uint64, stride int64, write bool, instrPer uint64) {
	if count == 0 {
		return
	}
	s.Ops = append(s.Ops, Op{Kind: OpSeq, Base: base, Count: count, Stride: stride, Write: write, InstrPer: instrPer})
}

// Read is Seq with write=false.
func (s *Stream) Read(base, count uint64, stride int64, instrPer uint64) {
	s.Seq(base, count, stride, false, instrPer)
}

// Write is Seq with write=true.
func (s *Stream) Write(base, count uint64, stride int64, instrPer uint64) {
	s.Seq(base, count, stride, true, instrPer)
}

// Gather appends an irregular access list. The slice is retained; callers
// must not mutate it afterwards.
func (s *Stream) Gather(addrs []uint64, write bool, instrPer uint64) {
	if len(addrs) == 0 {
		return
	}
	s.Ops = append(s.Ops, Op{Kind: OpGather, Addrs: addrs, Write: write, InstrPer: instrPer})
}

// Critical appends a lock-protected critical section of instr compute
// instructions.
func (s *Stream) Critical(instr uint64) {
	s.Ops = append(s.Ops, Op{Kind: OpCritical, Instr: instr})
}

// Empty reports whether the stream has no work (an idle processor this
// region — e.g. a serial section on another processor).
func (s *Stream) Empty() bool { return len(s.Ops) == 0 }

// Region is one barrier-delimited parallel phase.
type Region struct {
	Name    string
	Streams []Stream // one per processor
}

// Proc returns the stream of processor p for in-place construction.
func (r *Region) Proc(p int) *Stream { return &r.Streams[p] }

// Program is a complete simulated application run: the processor count and
// data-set size it was built for, its address space, and its regions.
type Program struct {
	Name      string
	Procs     int
	DataBytes uint64 // nominal data-set size s (the model's independent variable)
	Placement memdsm.Placement

	space   *memdsm.AddressSpace
	regions []Region

	// syncVar is the page holding the barrier and lock variables, homed by
	// first touch like everything else (processor 0 initializes it).
	syncVar memdsm.Region
}

// NewProgram starts a program for the given processor count. pageBytes must
// match the machine configuration the program will run on (the builder
// needs it to lay out the address space).
func NewProgram(name string, procs int, dataBytes uint64, pageBytes int) (*Program, error) {
	if procs <= 0 {
		return nil, fmt.Errorf("sim: processor count %d", procs)
	}
	if dataBytes == 0 {
		return nil, fmt.Errorf("sim: zero data size")
	}
	space, err := memdsm.NewAddressSpace(pageBytes)
	if err != nil {
		return nil, err
	}
	p := &Program{
		Name:      name,
		Procs:     procs,
		DataBytes: dataBytes,
		Placement: memdsm.FirstTouch,
		space:     space,
	}
	// The sync region holds the barrier variable at offset 0 and the lock
	// variable at offset 64; on machines with tiny pages it must still
	// cover both (Alloc pads to whole pages).
	syncBytes := uint64(pageBytes)
	if syncBytes < 128 {
		syncBytes = 128
	}
	p.syncVar = space.MustAlloc("__sync", syncBytes)
	return p, nil
}

// Alloc reserves a named array in the program's address space.
func (p *Program) Alloc(name string, size uint64) (memdsm.Region, error) {
	return p.space.Alloc(name, size)
}

// MustAlloc is Alloc that panics on error, for builder code.
func (p *Program) MustAlloc(name string, size uint64) memdsm.Region {
	return p.space.MustAlloc(name, size)
}

// AddRegion appends a region and returns it for stream construction.
func (p *Program) AddRegion(name string) *Region {
	p.regions = append(p.regions, Region{Name: name, Streams: make([]Stream, p.Procs)})
	return &p.regions[len(p.regions)-1]
}

// Regions returns the program's regions (shared slice; engine reads only).
func (p *Program) Regions() []Region { return p.regions }

// SpaceBytes returns the total allocated address-space bytes.
func (p *Program) SpaceBytes() uint64 { return p.space.Bytes() }

// BarrierAddr returns the simulated address of the barrier variable.
func (p *Program) BarrierAddr() uint64 { return p.syncVar.Base }

// LockAddr returns the simulated address of the (single, global) lock
// variable.
func (p *Program) LockAddr() uint64 { return p.syncVar.Base + 64 }

// Validate checks the program is runnable.
func (p *Program) Validate() error {
	if len(p.regions) == 0 {
		return fmt.Errorf("sim: program %q has no regions", p.Name)
	}
	for i := range p.regions {
		r := &p.regions[i]
		if len(r.Streams) != p.Procs {
			return fmt.Errorf("sim: region %d (%s) has %d streams for %d processors", i, r.Name, len(r.Streams), p.Procs)
		}
		for pr := range r.Streams {
			for oi, op := range r.Streams[pr].Ops {
				if op.Kind == OpSeq && op.Count == 0 {
					return fmt.Errorf("sim: region %d proc %d op %d: zero-count Seq", i, pr, oi)
				}
			}
		}
	}
	return nil
}

// Census is a program's static operation totals: everything a cost
// estimate reads from a built program, without its op and address lists.
// Instruction counts exclude lock acquire/release, which depend on the
// machine; CriticalOps counts the critical sections that pay them. The
// instruction and access totals are float64, accumulated in op order, so a
// hostile count saturates precision instead of wrapping.
type Census struct {
	Procs         int
	SpaceBytes    uint64
	Regions       int
	Instr         float64 // compute bursts, per-access loop bodies and critical-section bodies
	Accesses      float64 // memory accesses of sweeps and gathers
	CriticalInstr float64 // instructions inside critical sections
	CriticalOps   uint64  // critical sections entered
	GatherAddrs   uint64  // retained gather addresses
}

// Census walks the program once and returns its operation totals.
func (p *Program) Census() Census {
	c := Census{Procs: p.Procs, SpaceBytes: p.SpaceBytes(), Regions: len(p.regions)}
	for ri := range p.regions {
		for pi := range p.regions[ri].Streams {
			for _, op := range p.regions[ri].Streams[pi].Ops {
				switch op.Kind {
				case OpCompute:
					c.Instr += float64(op.Instr)
				case OpSeq:
					c.Accesses += float64(op.Count)
					c.Instr += float64(op.Count) * float64(op.InstrPer)
				case OpGather:
					n := float64(len(op.Addrs))
					c.Accesses += n
					c.Instr += n * float64(op.InstrPer)
					c.GatherAddrs += uint64(len(op.Addrs))
				case OpCritical:
					c.Instr += float64(op.Instr)
					c.CriticalInstr += float64(op.Instr)
					c.CriticalOps++
				}
			}
		}
	}
	return c
}
