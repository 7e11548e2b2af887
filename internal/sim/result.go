package sim

import (
	"fmt"
	"strings"

	"scaltool/internal/counters"
)

// RegionAttribution is the ground-truth cycle breakdown of one region,
// summed over processors.
type RegionAttribution struct {
	Name string
	Busy float64 // compute + memory-stall cycles
	Sync float64 // barrier entry/exit, fetchop, lock transactions and lock-contention waits
	Imb  float64 // spin-waiting for stragglers at barriers

	// PerProc is the per-processor split of the same attribution (index =
	// processor). For every processor Busy+Sync+Imb spans the region's
	// elapsed cycles exactly, so the slices concatenate into a gap-free
	// per-processor timeline (AppendTimeline exports it as trace_event).
	// AggregateRegions sums it element-wise across a name's instances.
	PerProc []ProcPhases
}

// ProcPhases is one processor's cycle attribution within one region.
type ProcPhases struct {
	Busy float64
	Sync float64
	Imb  float64
}

// GroundTruth is everything the simulator knows that real hardware counters
// would not reveal. Scal-Tool never reads it; the validation experiments
// (the paper's Figures 7, 10, 13) compare the model's estimates against it.
type GroundTruth struct {
	BusyCycles float64 // totals over all processors
	SyncCycles float64
	ImbCycles  float64

	PerProcBusy []float64
	PerProcSync []float64
	PerProcImb  []float64

	// L2 miss classes, aggregated over processors. Includes the barrier
	// release-flag misses (classified coherence).
	Compulsory uint64
	Coherence  uint64
	Conflict   uint64

	SharingLines  uint64 // intra-region true/false-sharing line events
	Invalidations uint64 // directory invalidation messages

	Regions []RegionAttribution
}

// MPCycles returns the total multiprocessor overhead (the paper's
// MP = Sync + Imb), in cycles accumulated over all processors.
func (g *GroundTruth) MPCycles() float64 { return g.SyncCycles + g.ImbCycles }

// Result is the outcome of one simulated run.
type Result struct {
	MachineName string
	Procs       int
	DataBytes   uint64

	// WallCycles is the elapsed execution time in cycles.
	WallCycles float64

	// Report is what the hardware would let you measure: event counters per
	// processor plus run-time instrumentation counts. This is Scal-Tool's
	// entire view of the run.
	Report counters.RunReport

	// Ground is the simulator's ground truth, for validation only.
	Ground GroundTruth

	segments []segRegion
}

// SegmentReport builds a counter report restricted to the regions whose
// names contain substr — the paper's "segment of the application that is
// considered particularly important" (§2.1). The report carries the
// segment's barrier count (one per matching region) so the model's
// instrumented methods work on it; cycles are the segment's own elapsed
// cycles (every processor participates in every region).
func (r *Result) SegmentReport(substr string) (*counters.RunReport, error) {
	out := counters.RunReport{
		Machine:      r.Report.Machine,
		App:          r.Report.App + "#" + substr,
		Procs:        r.Procs,
		DataBytes:    r.DataBytes,
		PerProc:      make([]counters.Set, r.Procs),
		Locks:        0,
		TouchedPages: r.Report.TouchedPages,
		PageBytes:    r.Report.PageBytes,
	}
	matched := 0
	for _, seg := range r.segments {
		if !strings.Contains(seg.name, substr) {
			continue
		}
		matched++
		for p := range seg.perProc {
			out.PerProc[p].Merge(seg.perProc[p])
		}
	}
	if matched == 0 {
		return nil, fmt.Errorf("sim: no region matches segment %q", substr)
	}
	out.Barriers = uint64(matched)
	out.WallCycles = out.PerProc[0][counters.Cycles]
	if err := out.Validate(); err != nil {
		return nil, fmt.Errorf("sim: segment %q: %w", substr, err)
	}
	return &out, nil
}

// AggregateRegions merges the run's region attribution by name, in
// first-appearance order, keeping the per-processor split (summed
// element-wise across a name's instances). This is the attribution export
// internal/diagnose overlays across a campaign's processor sweep: it
// preserves PerProc, so a straggler processor stays identifiable after
// aggregation. For every name the merged Busy+Sync+Imb
// still tiles the sum of its instances' elapsed cycles.
func (r *Result) AggregateRegions() []RegionAttribution {
	idx := make(map[string]int, len(r.Ground.Regions))
	out := make([]RegionAttribution, 0, len(r.Ground.Regions))
	for _, reg := range r.Ground.Regions {
		i, ok := idx[reg.Name]
		if !ok {
			i = len(out)
			idx[reg.Name] = i
			out = append(out, RegionAttribution{Name: reg.Name, PerProc: make([]ProcPhases, r.Procs)}) //scalvet:ignore retained result: one per distinct region name, returned to the caller
		}
		out[i].Busy += reg.Busy
		out[i].Sync += reg.Sync
		out[i].Imb += reg.Imb
		for p, ph := range reg.PerProc {
			if p >= len(out[i].PerProc) {
				break
			}
			out[i].PerProc[p].Busy += ph.Busy
			out[i].PerProc[p].Sync += ph.Sync
			out[i].PerProc[p].Imb += ph.Imb
		}
	}
	return out
}

// Segments lists the distinct region names of the run, in first-appearance
// order.
func (r *Result) Segments() []string {
	seen := map[string]bool{}
	var out []string
	for _, seg := range r.segments {
		if !seen[seg.name] {
			seen[seg.name] = true
			out = append(out, seg.name)
		}
	}
	return out
}
