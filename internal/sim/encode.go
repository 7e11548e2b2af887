package sim

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"

	"scaltool/internal/counters"
)

// Clone returns a copy of the Result that is safe to hand to a caller that
// may mutate the counter Report: the run cache gives every caller its own,
// so no caller can change the cached entry another request reads. The
// Report and its PerProc sets are deep-copied; the ground truth and segment
// counters — read-only once a run completes — are shared with the receiver.
func (r *Result) Clone() *Result {
	if r == nil {
		return nil
	}
	out := *r
	out.Report.PerProc = append([]counters.Set(nil), r.Report.PerProc...)
	return &out
}

// resultDTO is the JSON form of a Result, including the unexported
// per-region segment counters.
type resultDTO struct {
	Version     int                `json:"version"`
	MachineName string             `json:"machine_name"`
	Procs       int                `json:"procs"`
	DataBytes   uint64             `json:"data_bytes"`
	WallCycles  float64            `json:"wall_cycles"`
	Report      counters.RunReport `json:"report"`
	Ground      GroundTruth        `json:"ground"`
	Segments    []segRegionDTO     `json:"segments,omitempty"`
}

type segRegionDTO struct {
	Name    string         `json:"name"`
	PerProc []counters.Set `json:"per_proc"`
}

// encodeVersion is the "version" field of the JSON form.
const encodeVersion = 1

// EncodeResult serializes a Result — counter report, ground truth, and the
// per-region segment counters — as one JSON document. The encoding is
// deterministic for a given Result: it is the canonical form the committed
// golden SHA-256s (testdata/sim_golden_sha256.json) and the byte-identity
// checks hash.
func EncodeResult(w io.Writer, r *Result) error {
	if r == nil {
		return fmt.Errorf("sim: encode nil Result")
	}
	dto := resultDTO{
		Version:     encodeVersion,
		MachineName: r.MachineName,
		Procs:       r.Procs,
		DataBytes:   r.DataBytes,
		WallCycles:  r.WallCycles,
		Report:      r.Report,
		Ground:      r.Ground,
	}
	dto.Report.PerProc = append([]counters.Set(nil), r.Report.PerProc...)
	for _, seg := range r.segments {
		dto.Segments = append(dto.Segments, segRegionDTO{Name: seg.name, PerProc: seg.perProc})
	}
	return json.NewEncoder(w).Encode(dto)
}

// The binary form of a Result (AppendBinary, DecodeBinary) is the run
// cache's spill payload. Every field is a little-endian u64 (integers, and
// float64 as its IEEE-754 bits) in the fixed order AppendBinary writes.
// A string is its byte length then its bytes. A slice is a count prefix
// then its elements, where the prefix is 0 for a nil slice and len+1
// otherwise, so nil and empty slices survive the round trip (the JSON form
// tells them apart). The layout carries no version of its own: the
// container that stores it versions it (the spill frame's magic).

// Minimum encoded bytes of one element of each variable-length slice: the
// decoder refuses a count the remaining bytes cannot hold before it
// allocates, so a frame allocates at most a small multiple of its length.
const (
	setBinBytes     = counters.NumEvents * 8
	phasesBinBytes  = 3 * 8
	regionBinBytes  = 8 + 3*8 + 8 // name length, Busy/Sync/Imb, PerProc prefix
	segmentBinBytes = 8 + 8       // name length, PerProc prefix
)

// AppendBinary appends the binary form of r to dst and returns the
// extended slice. r must be non-nil.
func AppendBinary(dst []byte, r *Result) []byte {
	dst = appendString(dst, r.MachineName)
	dst = appendU64(dst, uint64(r.Procs))
	dst = appendU64(dst, r.DataBytes)
	dst = appendF64(dst, r.WallCycles)

	rep := &r.Report
	dst = appendString(dst, rep.Machine)
	dst = appendString(dst, rep.App)
	dst = appendU64(dst, uint64(rep.Procs))
	dst = appendU64(dst, rep.DataBytes)
	dst = appendSets(dst, rep.PerProc)
	dst = appendU64(dst, rep.WallCycles)
	dst = appendU64(dst, rep.Barriers)
	dst = appendU64(dst, rep.Locks)
	dst = appendU64(dst, uint64(rep.TouchedPages))
	dst = appendU64(dst, uint64(rep.PageBytes))

	g := &r.Ground
	dst = appendF64(dst, g.BusyCycles)
	dst = appendF64(dst, g.SyncCycles)
	dst = appendF64(dst, g.ImbCycles)
	dst = appendF64s(dst, g.PerProcBusy)
	dst = appendF64s(dst, g.PerProcSync)
	dst = appendF64s(dst, g.PerProcImb)
	dst = appendU64(dst, g.Compulsory)
	dst = appendU64(dst, g.Coherence)
	dst = appendU64(dst, g.Conflict)
	dst = appendU64(dst, g.SharingLines)
	dst = appendU64(dst, g.Invalidations)
	dst = appendCount(dst, g.Regions == nil, len(g.Regions))
	for i := range g.Regions {
		reg := &g.Regions[i]
		dst = appendString(dst, reg.Name)
		dst = appendF64(dst, reg.Busy)
		dst = appendF64(dst, reg.Sync)
		dst = appendF64(dst, reg.Imb)
		dst = appendCount(dst, reg.PerProc == nil, len(reg.PerProc))
		for _, ph := range reg.PerProc {
			dst = appendF64(dst, ph.Busy)
			dst = appendF64(dst, ph.Sync)
			dst = appendF64(dst, ph.Imb)
		}
	}

	dst = appendCount(dst, r.segments == nil, len(r.segments))
	for _, seg := range r.segments {
		dst = appendString(dst, seg.name)
		dst = appendSets(dst, seg.perProc)
	}
	return dst
}

func appendU64(dst []byte, v uint64) []byte  { return binary.LittleEndian.AppendUint64(dst, v) }
func appendF64(dst []byte, v float64) []byte { return appendU64(dst, math.Float64bits(v)) }

func appendString(dst []byte, s string) []byte {
	return append(appendU64(dst, uint64(len(s))), s...)
}

// appendCount writes a slice's count prefix: 0 for nil, len+1 otherwise.
func appendCount(dst []byte, isNil bool, n int) []byte {
	if isNil {
		return appendU64(dst, 0)
	}
	return appendU64(dst, uint64(n)+1)
}

func appendF64s(dst []byte, vs []float64) []byte {
	dst = appendCount(dst, vs == nil, len(vs))
	for _, v := range vs {
		dst = appendF64(dst, v)
	}
	return dst
}

func appendSets(dst []byte, sets []counters.Set) []byte {
	dst = appendCount(dst, sets == nil, len(sets))
	for i := range sets {
		for _, v := range sets[i] {
			dst = appendU64(dst, v)
		}
	}
	return dst
}

// errTruncated is the sticky error of a binary read past the end of the
// input.
var errTruncated = errors.New("truncated")

// binReader consumes a binary Result. The first failure sticks: every later
// read returns zero values, and DecodeBinary reports that first error.
type binReader struct {
	b   []byte
	err error
}

func (d *binReader) fail(err error) {
	if d.err == nil {
		d.err = err
	}
	d.b = nil
}

func (d *binReader) u64() uint64 {
	if len(d.b) < 8 {
		d.fail(errTruncated)
		return 0
	}
	v := binary.LittleEndian.Uint64(d.b)
	d.b = d.b[8:]
	return v
}

func (d *binReader) f64() float64 { return math.Float64frombits(d.u64()) }

// int reads a u64 that must fit a non-negative int.
func (d *binReader) int() int {
	v := d.u64()
	if v > math.MaxInt {
		d.fail(fmt.Errorf("integer %d out of range", v))
		return 0
	}
	return int(v)
}

func (d *binReader) string() string {
	n := d.u64()
	if n > uint64(len(d.b)) {
		d.fail(errTruncated)
		return ""
	}
	s := string(d.b[:n])
	d.b = d.b[n:]
	return s
}

// count reads a slice's count prefix and checks that the remaining input
// can hold that many elements of at least elemBytes each, so the caller may
// allocate the slice. isNil reports a 0 prefix.
func (d *binReader) count(elemBytes int) (n int, isNil bool) {
	p := d.u64()
	if p == 0 || d.err != nil {
		return 0, true
	}
	if p-1 > uint64(len(d.b)/elemBytes) {
		d.fail(fmt.Errorf("count %d exceeds the %d bytes left", p-1, len(d.b)))
		return 0, true
	}
	return int(p - 1), false
}

func (d *binReader) f64s() []float64 {
	n, isNil := d.count(8)
	if isNil {
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = d.f64()
	}
	return out
}

func (d *binReader) sets() []counters.Set {
	n, isNil := d.count(setBinBytes)
	if isNil {
		return nil
	}
	out := make([]counters.Set, n)
	for i := range out {
		for e := range out[i] {
			out[i][e] = d.u64()
		}
	}
	return out
}

// DecodeBinary reads a Result written by AppendBinary. The input must hold
// exactly one Result. Besides the layout it checks the engine's structural
// invariants — a positive processor count that the report, every
// per-processor slice, every segment and every region's PerProc (when
// present) agree with — so a decoded Result is safe for every accessor.
func DecodeBinary(data []byte) (*Result, error) {
	d := &binReader{b: data}
	r := &Result{}
	r.MachineName = d.string()
	r.Procs = d.int()
	r.DataBytes = d.u64()
	r.WallCycles = d.f64()

	rep := &r.Report
	rep.Machine = d.string()
	rep.App = d.string()
	rep.Procs = d.int()
	rep.DataBytes = d.u64()
	rep.PerProc = d.sets()
	rep.WallCycles = d.u64()
	rep.Barriers = d.u64()
	rep.Locks = d.u64()
	rep.TouchedPages = d.int()
	rep.PageBytes = d.int()

	g := &r.Ground
	g.BusyCycles = d.f64()
	g.SyncCycles = d.f64()
	g.ImbCycles = d.f64()
	g.PerProcBusy = d.f64s()
	g.PerProcSync = d.f64s()
	g.PerProcImb = d.f64s()
	g.Compulsory = d.u64()
	g.Coherence = d.u64()
	g.Conflict = d.u64()
	g.SharingLines = d.u64()
	g.Invalidations = d.u64()
	if n, isNil := d.count(regionBinBytes); !isNil {
		g.Regions = make([]RegionAttribution, n)
		for i := range g.Regions {
			reg := &g.Regions[i]
			reg.Name = d.string()
			reg.Busy = d.f64()
			reg.Sync = d.f64()
			reg.Imb = d.f64()
			if np, isNil := d.count(phasesBinBytes); !isNil {
				reg.PerProc = make([]ProcPhases, np) //scalvet:ignore retained result: one per decoded region, as the engine allocates it
				for p := range reg.PerProc {
					reg.PerProc[p] = ProcPhases{Busy: d.f64(), Sync: d.f64(), Imb: d.f64()}
				}
			}
		}
	}

	if n, isNil := d.count(segmentBinBytes); !isNil {
		r.segments = make([]segRegion, n)
		for i := range r.segments {
			r.segments[i] = segRegion{name: d.string(), perProc: d.sets()}
		}
	}

	if d.err == nil && len(d.b) != 0 {
		d.fail(fmt.Errorf("%d trailing bytes", len(d.b)))
	}
	if d.err == nil {
		d.err = r.checkShape()
	}
	if d.err != nil {
		return nil, fmt.Errorf("sim: decoding binary Result: %w", d.err)
	}
	return r, nil
}

// checkShape verifies the per-processor shape every engine Result has.
func (r *Result) checkShape() error {
	n := r.Procs
	if n < 1 || r.Report.Procs != n {
		return fmt.Errorf("processor count %d (report %d)", n, r.Report.Procs)
	}
	g := &r.Ground
	if len(r.Report.PerProc) != n || len(g.PerProcBusy) != n || len(g.PerProcSync) != n || len(g.PerProcImb) != n {
		return fmt.Errorf("per-processor slices do not match %d processors", n)
	}
	for _, reg := range g.Regions {
		if len(reg.PerProc) != 0 && len(reg.PerProc) != n {
			return fmt.Errorf("region %q has %d per-processor phases for %d processors", reg.Name, len(reg.PerProc), n)
		}
	}
	for _, seg := range r.segments {
		if len(seg.perProc) != n {
			return fmt.Errorf("segment %q has %d per-processor sets for %d processors", seg.name, len(seg.perProc), n)
		}
	}
	return nil
}

// SizeEstimate returns an approximate in-memory footprint of the Result in
// bytes — the run cache's unit of accounting for its byte budget. It counts
// the dominant slices (per-processor counter sets, region attribution,
// segment counters, ground-truth lanes) plus a fixed struct overhead; it is
// deliberately cheap and slightly conservative rather than exact.
func (r *Result) SizeEstimate() int64 {
	if r == nil {
		return 0
	}
	const setBytes = int64(len(counters.Set{})) * 8
	sz := int64(512) // struct headers, strings, map slots
	sz += int64(len(r.Report.PerProc)) * setBytes
	sz += int64(len(r.Ground.PerProcBusy)+len(r.Ground.PerProcSync)+len(r.Ground.PerProcImb)) * 8
	for _, reg := range r.Ground.Regions {
		sz += int64(len(reg.Name)) + 64 + int64(len(reg.PerProc))*24
	}
	for _, seg := range r.segments {
		sz += int64(len(seg.name)) + 32 + int64(len(seg.perProc))*setBytes
	}
	return sz
}
