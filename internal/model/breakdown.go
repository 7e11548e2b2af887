package model

import "scaltool/internal/counters"

// BreakdownPoint is one processor count of the Figure 6/9/12 charts. All
// quantities are cycles accumulated over every processor of the run ("the
// curves accumulate the cycles from all the processors", §4.1).
type BreakdownPoint struct {
	Procs int

	// Base is the measured cycles (the top curve).
	Base float64
	// NoL2 is Base with the insufficient-caching-space effect removed
	// (the paper's Base−L2Lim curve).
	NoL2 float64
	// Sync and Imb are the estimated synchronization and load-imbalance
	// effects.
	Sync float64
	Imb  float64
	// NoMP is Base with both the caching-space and all multiprocessor
	// effects removed (the bottom curve, Base−L2Lim−MP).
	NoMP float64

	// Interpolated flags that this point's coherence estimate rests on an
	// interpolated hit-rate sample (degraded input set) — plot it hollow.
	Interpolated bool
}

// L2Lim returns the estimated insufficient-caching-space cycles.
func (b BreakdownPoint) L2Lim() float64 { return b.Base - b.NoL2 }

// MP returns the total multiprocessor effect (Sync + Imb).
func (b BreakdownPoint) MP() float64 { return b.Sync + b.Imb }

// Breakdown computes the paper's cycle-breakdown curves for every measured
// processor count.
func (m *Model) Breakdown() []BreakdownPoint {
	out := make([]BreakdownPoint, 0, len(m.Points))
	for _, pe := range m.Points {
		inst := counters.ToFloat(pe.Meas.Instr)
		bp := BreakdownPoint{
			Procs:        pe.Procs,
			Base:         counters.ToFloat(pe.Meas.Cycles),
			NoL2:         pe.CPIInf * inst,
			Sync:         pe.CpiSync * pe.FracSync * inst,
			Imb:          m.CpiImb * pe.FracImb * inst,
			Interpolated: pe.CohInterpolated,
		}
		bp.NoMP = pe.CPIInfInf * (1 - pe.FracSync - pe.FracImb) * inst
		out = append(out, bp)
	}
	return out
}

// SpeedupPoint is one point of the measured speedup curve (Figures 5/8/11).
type SpeedupPoint struct {
	Procs   int
	Wall    float64
	Speedup float64
}

// Speedups returns the measured speedup curve from the base runs.
func (m *Model) Speedups() []SpeedupPoint {
	out := make([]SpeedupPoint, 0, len(m.Points))
	var wall1 float64
	for _, pe := range m.Points {
		if pe.Procs == 1 {
			wall1 = counters.ToFloat(pe.Meas.Wall)
		}
	}
	for _, pe := range m.Points {
		sp := SpeedupPoint{Procs: pe.Procs, Wall: counters.ToFloat(pe.Meas.Wall)}
		if sp.Wall > 0 && wall1 > 0 {
			sp.Speedup = wall1 / sp.Wall
		}
		out = append(out, sp)
	}
	return out
}

// InfHitRatePoint is one point of Figure 3b: the estimated infinite-L2 hit
// rate against the measured multiprocessor hit rate.
type InfHitRatePoint struct {
	Procs    int
	Measured float64 // L2hitr(s0, n)
	Infinite float64 // L2hitr∞(s0, n)
}

// InfiniteHitRates returns the Figure 3b series.
func (m *Model) InfiniteHitRates() []InfHitRatePoint {
	out := make([]InfHitRatePoint, 0, len(m.Points))
	for _, pe := range m.Points {
		out = append(out, InfHitRatePoint{Procs: pe.Procs, Measured: pe.Meas.L2HitRate, Infinite: pe.L2HitInf})
	}
	return out
}
