package admission

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"net/http"
	"strings"

	"scaltool/internal/apps"
	"scaltool/internal/machine"
	"scaltool/internal/sim"
)

// User-submitted programs. A ProgramSpec is the untrusted-client analogue of
// a built-in apps.App: a JSON description of a barrier-delimited region
// structure (compute bursts, partitioned array sweeps with halo sharing,
// gathers, critical sections, serial sections) that the server turns into
// sim.Programs for the standard campaign pipeline.
//
// Everything here is attacker-controlled, so the spec is bounded twice:
// hard shape caps on the document itself (Validate, 422 — a spec over these
// caps is not a bigger job, it is malformed), and the closed-form
// RunEstimator implementation (EstimateRun), which prices a run from the
// spec's counts without allocating anything proportional to them. App (the
// apps.App adapter) is only built after both gates have passed.

// Shape caps for user-submitted program specs. These bound the *description*,
// not the work — work is bounded by Budget.
const (
	MaxSpecArrays       = 16
	MaxSpecRegions      = 64
	MaxSpecOpsPerRegion = 16
	MaxSpecNameLen      = 64
	// MaxSpecInstr caps per-op instruction counts; 2^44 instructions is
	// ~hours of simulated time, far past any cycle budget.
	MaxSpecInstr = uint64(1) << 44
	// MaxSpecElems caps one array's base element count (2^31 elements =
	// 16 GiB); the dataset budget gates real size.
	MaxSpecElems = uint64(1) << 31
)

// ProgramSpec describes a user-submitted program.
type ProgramSpec struct {
	// Name labels the program; the adapter serves it as "user:"+Name.
	Name string `json:"name"`
	// Arrays declares the data arrays at the base data-set size; campaign
	// runs scale every array by the run's dataset fraction.
	Arrays []ArraySpec `json:"arrays"`
	// Regions are the barrier-delimited phases, in execution order.
	Regions []RegionSpec `json:"regions"`
}

// ArraySpec declares one named array.
type ArraySpec struct {
	Name  string `json:"name"`
	Elems uint64 `json:"elems"` // element count (8 bytes each) at the base size
}

// RegionSpec is one barrier-delimited phase.
type RegionSpec struct {
	Name string `json:"name"`
	// Serial runs the region's ops on processor 0 only, over whole arrays —
	// the paper's serial sections.
	Serial bool     `json:"serial,omitempty"`
	Ops    []OpSpec `json:"ops"`
}

// OpSpec is one operation every participating processor performs.
type OpSpec struct {
	// Kind is one of "compute", "read", "write", "gather", "critical".
	Kind string `json:"kind"`
	// Array names the target of read/write/gather ops.
	Array string `json:"array,omitempty"`
	// Instr is the instruction count of compute/critical ops.
	Instr uint64 `json:"instr,omitempty"`
	// InstrPer is the compute instructions interleaved per access of
	// read/write/gather ops (the loop body).
	InstrPer uint64 `json:"instr_per,omitempty"`
	// HaloElems extends a read/write op's window this many elements into the
	// next processor's block — the boundary sharing of stencil codes.
	HaloElems uint64 `json:"halo_elems,omitempty"`
	// GatherEvery makes a gather touch one element per this many of the
	// processor's block (default 64) — irregular, TLB-hostile access.
	GatherEvery uint64 `json:"gather_every,omitempty"`
}

// Validate checks the spec's shape against the hard caps and its internal
// references. Violations are semantic: 422 rejections with stable codes.
func (s *ProgramSpec) Validate() *Rejection {
	badShape := func(code, format string, args ...any) *Rejection {
		return Reject(http.StatusUnprocessableEntity, code, format, args...)
	}
	if s.Name == "" || len(s.Name) > MaxSpecNameLen {
		return badShape("spec_name", "program name must be 1..%d characters", MaxSpecNameLen)
	}
	if len(s.Arrays) == 0 || len(s.Arrays) > MaxSpecArrays {
		return badShape("spec_arrays", "program must declare 1..%d arrays, has %d", MaxSpecArrays, len(s.Arrays))
	}
	if len(s.Regions) == 0 || len(s.Regions) > MaxSpecRegions {
		return badShape("spec_regions", "program must declare 1..%d regions, has %d", MaxSpecRegions, len(s.Regions))
	}
	arrays := map[string]bool{}
	for i, a := range s.Arrays {
		if a.Name == "" || len(a.Name) > MaxSpecNameLen {
			return badShape("spec_array_name", "array %d: name must be 1..%d characters", i, MaxSpecNameLen) //scalvet:ignore rejection early-exit: at most one fires per request, then returns
		}
		if arrays[a.Name] {
			return badShape("spec_array_dup", "array %q declared twice", a.Name) //scalvet:ignore rejection early-exit: at most one fires per request, then returns
		}
		arrays[a.Name] = true
		if a.Elems == 0 || a.Elems > MaxSpecElems {
			return badShape("spec_array_elems", "array %q: elems must be 1..%d, has %d", a.Name, MaxSpecElems, a.Elems) //scalvet:ignore rejection early-exit: at most one fires per request, then returns
		}
	}
	for ri, r := range s.Regions {
		if r.Name == "" || len(r.Name) > MaxSpecNameLen {
			return badShape("spec_region_name", "region %d: name must be 1..%d characters", ri, MaxSpecNameLen) //scalvet:ignore rejection early-exit: at most one fires per request, then returns
		}
		if len(r.Ops) == 0 || len(r.Ops) > MaxSpecOpsPerRegion {
			return badShape("spec_region_ops", "region %q must have 1..%d ops, has %d", r.Name, MaxSpecOpsPerRegion, len(r.Ops)) //scalvet:ignore rejection early-exit: at most one fires per request, then returns
		}
		for oi, op := range r.Ops {
			if op.Instr > MaxSpecInstr || op.InstrPer > MaxSpecInstr {
				return badShape("spec_op_instr", "region %q op %d: instruction counts capped at %d", r.Name, oi, MaxSpecInstr) //scalvet:ignore rejection early-exit: at most one fires per request, then returns
			}
			switch op.Kind {
			case "compute", "critical":
				if op.Instr == 0 {
					return badShape("spec_op_instr", "region %q op %d: %s op needs instr > 0", r.Name, oi, op.Kind) //scalvet:ignore rejection early-exit: at most one fires per request, then returns
				}
				if op.Array != "" {
					return badShape("spec_op_array", "region %q op %d: %s op takes no array", r.Name, oi, op.Kind) //scalvet:ignore rejection early-exit: at most one fires per request, then returns
				}
			case "read", "write", "gather":
				if !arrays[op.Array] {
					return badShape("spec_op_array", "region %q op %d: references undeclared array %q", r.Name, oi, op.Array) //scalvet:ignore rejection early-exit: at most one fires per request, then returns
				}
				if op.Kind == "gather" {
					if op.GatherEvery > MaxSpecElems {
						return badShape("spec_op_gather", "region %q op %d: gather_every capped at %d", r.Name, oi, MaxSpecElems) //scalvet:ignore rejection early-exit: at most one fires per request, then returns
					}
				} else if op.GatherEvery != 0 {
					return badShape("spec_op_gather", "region %q op %d: gather_every only applies to gather ops", r.Name, oi) //scalvet:ignore rejection early-exit: at most one fires per request, then returns
				}
				if op.HaloElems > MaxSpecElems {
					return badShape("spec_op_halo", "region %q op %d: halo_elems capped at %d", r.Name, oi, MaxSpecElems) //scalvet:ignore rejection early-exit: at most one fires per request, then returns
				}
			default:
				return badShape("spec_op_kind", "region %q op %d: unknown kind %q (want compute, read, write, gather, critical)", r.Name, oi, op.Kind) //scalvet:ignore rejection early-exit: at most one fires per request, then returns
			}
		}
	}
	return nil
}

// TotalElems returns the spec's base element count across arrays.
func (s *ProgramSpec) TotalElems() uint64 {
	var total uint64
	for _, a := range s.Arrays {
		total += a.Elems
	}
	return total
}

// App adapts a validated spec to the apps.App interface, so the standard
// campaign/plan/model pipeline runs user programs unchanged. The adapter
// also implements RunEstimator, which is what EstimatePlan uses in place of
// Build during admission.
func (s *ProgramSpec) App() apps.App { return &specApp{spec: s, id: s.digest()} }

type specApp struct {
	spec *ProgramSpec
	id   specDigest
}

// specDigest is a spec's content identity: a SHA-256 over every field, each
// length-prefixed, so two specs share it only if they build the same
// programs — a shared Name is not enough.
type specDigest [sha256.Size]byte

// Identity implements recipe.Identifier: the recipe table keys user
// programs by content. The digest is taken when App adapts the spec; the
// serving path never mutates a spec after that.
func (a *specApp) Identity() any { return a.id }

// digest computes the spec's content identity.
func (s *ProgramSpec) digest() specDigest {
	h := sha256.New()
	var buf [8]byte
	u64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	str := func(v string) {
		u64(uint64(len(v)))
		h.Write([]byte(v))
	}
	str(s.Name)
	u64(uint64(len(s.Arrays)))
	for _, a := range s.Arrays {
		str(a.Name)
		u64(a.Elems)
	}
	u64(uint64(len(s.Regions)))
	for _, r := range s.Regions {
		str(r.Name)
		if r.Serial {
			u64(1)
		} else {
			u64(0)
		}
		u64(uint64(len(r.Ops)))
		for _, op := range r.Ops {
			str(op.Kind)
			str(op.Array)
			u64(op.Instr)
			u64(op.InstrPer)
			u64(op.HaloElems)
			u64(op.GatherEvery)
		}
	}
	var d specDigest
	h.Sum(d[:0])
	return d
}

func (a *specApp) Name() string        { return "user:" + a.spec.Name }
func (a *specApp) Description() string { return "user-submitted program spec" }

// ParallelModel reports "MP" unless any region is serial, matching how the
// paper distinguishes MP DOACROSS codes from PCF codes with serial sections.
func (a *specApp) ParallelModel() string {
	for _, r := range a.spec.Regions {
		if r.Serial {
			return "PCF"
		}
	}
	return "MP"
}

// DefaultBytes is the declared base size (arrays at their spec'd element
// counts), independent of the machine.
func (a *specApp) DefaultBytes(machine.Config) uint64 {
	return a.spec.TotalElems() * apps.ElemBytes
}

// scaledElems scales one array's element count to a run's dataset fraction,
// aligned up to whole cache lines so block boundaries stay line-aligned.
func scaledElems(base, dataBytes, defaultBytes, lineElems uint64) uint64 {
	e := base
	if dataBytes != defaultBytes && defaultBytes > 0 {
		e = uint64(float64(base) * (float64(dataBytes) / float64(defaultBytes)))
	}
	if e < lineElems {
		e = lineElems
	}
	return (e + lineElems - 1) / lineElems * lineElems
}

// Build generates the program for one campaign run. The caller (admission)
// has already bounded dataBytes; build allocations are O(dataBytes).
func (a *specApp) Build(cfg machine.Config, procs int, dataBytes uint64) (*sim.Program, error) {
	s := a.spec
	lineElems := uint64(cfg.L2.LineBytes) / apps.ElemBytes
	if lineElems == 0 {
		lineElems = 1
	}
	defaultBytes := a.DefaultBytes(cfg)

	layouts := map[string]*arrayLayout{}
	var achieved uint64
	for _, ar := range s.Arrays {
		elems := scaledElems(ar.Elems, dataBytes, defaultBytes, lineElems)
		layouts[ar.Name] = &arrayLayout{elems: elems}
		achieved += elems * apps.ElemBytes
	}
	// A run whose per-processor blocks would vanish is below the program's
	// grid; the campaign skips such sizes, like any other application.
	for name, l := range layouts {
		if l.elems < uint64(procs)*lineElems {
			return nil, fmt.Errorf("admission: user program %q: array %q too small for %d processors at %d bytes",
				s.Name, name, procs, dataBytes)
		}
	}

	prog, err := sim.NewProgram(a.Name(), procs, achieved, cfg.PageBytes)
	if err != nil {
		return nil, err
	}
	for _, ar := range s.Arrays {
		l := layouts[ar.Name]
		reg, err := prog.Alloc(ar.Name, l.elems*apps.ElemBytes)
		if err != nil {
			return nil, err
		}
		l.base = reg.Base
		l.blocks = apps.BlockPartitionAligned(l.elems, procs, lineElems)
	}

	for _, rs := range s.Regions {
		region := prog.AddRegion(rs.Name)
		workers := procs
		if rs.Serial {
			workers = 1
		}
		for p := 0; p < workers; p++ {
			st := region.Proc(p)
			for _, op := range rs.Ops {
				buildOp(st, op, layouts[op.Array], p, procs, rs.Serial)
			}
		}
	}
	return prog, nil
}

// arrayLayout is one array's placement in a built run: simulated base
// address, scaled element count, and per-processor blocks.
type arrayLayout struct {
	base   uint64
	elems  uint64
	blocks []apps.Range
}

// window returns the element range one processor touches: its whole array
// when serial, otherwise its aligned block extended by the halo (clamped to
// the array) — boundary elements shared with the next processor.
func (l *arrayLayout) window(p, procs int, serial bool, halo uint64) (start, count uint64) {
	if serial {
		return 0, l.elems
	}
	blk := l.blocks[p]
	start, count = blk.Start, blk.Count
	if halo > 0 && p != procs-1 {
		count += halo
		if start+count > l.elems {
			count = l.elems - start
		}
	}
	return start, count
}

// buildOp appends one spec op to a processor's stream.
func buildOp(st *sim.Stream, op OpSpec, l *arrayLayout, p, procs int, serial bool) {
	switch op.Kind {
	case "compute":
		st.Compute(op.Instr)
	case "critical":
		st.Critical(op.Instr)
	case "read", "write":
		start, count := l.window(p, procs, serial, op.HaloElems)
		st.Seq(l.base+start*apps.ElemBytes, count, apps.ElemBytes, op.Kind == "write", op.InstrPer)
	case "gather":
		start, count := l.window(p, procs, serial, 0)
		every := op.GatherEvery
		if every == 0 {
			every = defaultGatherEvery
		}
		n := count / every
		if n == 0 {
			return
		}
		addrs := make([]uint64, 0, n)
		for i := uint64(0); i < n; i++ {
			addrs = append(addrs, l.base+(start+i*every)*apps.ElemBytes)
		}
		st.Gather(addrs, op.Kind == "write", op.InstrPer)
	}
}

// defaultGatherEvery spaces gathers one access per this many block elements
// when the spec does not say.
const defaultGatherEvery = 64

// EstimateRun prices one campaign run of this spec in closed form — no
// building, no allocation proportional to any client-controlled count. The
// unit prices match EstimateProgram's exactly.
func (a *specApp) EstimateRun(cfg machine.Config, procs int, dataBytes uint64) Cost {
	s := a.spec
	lineElems := uint64(cfg.L2.LineBytes) / apps.ElemBytes
	if lineElems == 0 {
		lineElems = 1
	}
	defaultBytes := a.DefaultBytes(cfg)

	var t opTally
	t.regions = len(s.Regions)
	var space uint64
	elems := map[string]uint64{}
	for _, ar := range s.Arrays {
		e := scaledElems(ar.Elems, dataBytes, defaultBytes, lineElems)
		elems[ar.Name] = e
		space += e * apps.ElemBytes
	}
	for _, rs := range s.Regions {
		workers := float64(procs)
		if rs.Serial {
			workers = 1
		}
		for _, op := range rs.Ops {
			switch op.Kind {
			case "compute":
				t.instr += workers * float64(op.Instr)
			case "critical":
				t.instr += workers * (float64(op.Instr) + float64(cfg.Sync.LockInstr))
				t.criticalInstr += workers * float64(op.Instr)
			case "read", "write", "gather":
				// Across all participants one pass covers the whole array
				// (serial: one processor covers it alone), plus halo overlap.
				accesses := float64(elems[op.Array]) + float64(procs)*float64(op.HaloElems)
				if op.Kind == "gather" {
					every := op.GatherEvery
					if every == 0 {
						every = defaultGatherEvery
					}
					accesses = float64(elems[op.Array]) / float64(every)
					t.gatherBytes += int64(accesses+float64(procs)) * 8
				}
				t.accesses += accesses
				t.instr += accesses * float64(op.InstrPer)
			}
		}
	}
	return t.cost(cfg, procs, space)
}

// String renders a short human identity for logs.
func (s *ProgramSpec) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "user:%s(%d arrays, %d regions)", s.Name, len(s.Arrays), len(s.Regions))
	return b.String()
}
