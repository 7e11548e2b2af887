package model

import (
	"fmt"
	"math"
	"sort"

	"scaltool/internal/counters"
	"scaltool/internal/stats"
)

// PointEstimate holds the model's per-processor-count quantities for the
// base data-set size s0.
type PointEstimate struct {
	Procs int
	Meas  Measurement // the base run the estimates derive from

	TmN float64 // tm(n): main-memory penalty at this machine size

	Coh float64 // estimated coherence miss rate, Coh(s0, n)
	// CohInterpolated flags that the hit-rate curve had no measured sample
	// near s0/n, so Coh rests on interpolation across a gap (a degraded
	// input set).
	CohInterpolated bool

	L2HitInf      float64 // L2hitr∞(s0, n): infinite-L2 hit rate
	CPIInf        float64 // cpi∞(s0, n): CPI without caching-space limits (Eq. 8)
	L1HitInfInf   float64 // L1hitr(s0/n, 1)
	MemFracInfInf float64 // m(s0/n, 1)
	CPIInfInf     float64 // cpi∞,∞(s0, n): CPI without cache limits or MP factors

	CpiSync float64 // cpi_sync(n) from the barrier kernel
	TSync   float64 // tsync(n): fetchop latency estimate

	FracSync float64 // fraction of instructions due to synchronization
	FracImb  float64 // fraction of instructions due to imbalance spinning

	// ImbDegenerate flags that cpi_imb ≈ cpi∞,∞ made Eq. 9 ill-conditioned
	// and FracImb was zeroed.
	ImbDegenerate bool
}

// Model is the fitted scalability model for one application on one machine.
type Model struct {
	Opts Options
	S0   uint64 // base data-set size

	CPI0Initial float64 // Lubeck's small-data-set estimate (biased)
	CPI0        float64 // the paper's unbiased estimator (Eq. 2)
	T2          float64 // L2-hit penalty beyond cpi0
	Tm1         float64 // memory penalty on the uniprocessor
	FitRMSE     float64 // residual of the t2/tm least squares
	FitR2       float64 // coefficient of determination of the t2/tm fit over the overflowing sizes
	FitSizes    int     // number of L2-overflowing sizes the fit used
	TSync1      float64 // per-barrier overhead on one processor (used to decontaminate small uniproc runs)

	Compulsory float64 // compulsory miss rate (1 − peak of Fig. 3a)
	SMax       float64 // data-set size at the hit-rate peak

	CpiImb float64 // spin-loop CPI from the spin kernel

	Points []PointEstimate // ascending by processor count; Points[0].Procs == 1

	// Degradation records what the fit had to do without (missing sizes,
	// missing processor counts, interpolated coherence points, dropped
	// runs). Its zero value means the input set was complete.
	Degradation Degradation

	hitCurve *stats.Interpolator // L2hitr(s, 1)
	l1Curve  *stats.Interpolator // L1hitr(s, 1)
	mCurve   *stats.Interpolator // m(s, 1)
}

// fitModel is the uninstrumented fit, following §2.2–2.4. Fit and FitContext
// (fit.go) wrap it with the public API and observability.
func fitModel(in Inputs, opt Options) (*Model, error) {
	if err := in.validate(opt); err != nil {
		return nil, err
	}
	base := sortedByProcs(in.Base)
	uni := sortedBySize(in.Uniproc)
	s0 := base[0].DataBytes

	m := &Model{Opts: opt, S0: s0, CpiImb: in.SpinCPI}

	// Uniprocessor curves vs data-set size (Fig. 3a and the s0/n rules).
	var hitPts, l1Pts, mPts []stats.Point
	for _, u := range uni {
		x := counters.ToFloat(u.DataBytes)
		hitPts = append(hitPts, stats.Point{X: x, Y: u.L2HitRate})
		l1Pts = append(l1Pts, stats.Point{X: x, Y: u.L1HitRate})
		mPts = append(mPts, stats.Point{X: x, Y: u.MemFrac})
	}
	var err error
	if m.hitCurve, err = stats.NewInterpolator(hitPts); err != nil {
		return nil, err
	}
	if m.l1Curve, err = stats.NewInterpolator(l1Pts); err != nil {
		return nil, err
	}
	if m.mCurve, err = stats.NewInterpolator(mPts); err != nil {
		return nil, err
	}

	// Per-barrier uniprocessor overhead, bootstrapped from the 1-processor
	// sync kernel. At the simulated scale the small uniprocessor runs do
	// little work per barrier, so their CPI is contaminated by the
	// fetchop/entry cost of the barrier at every region end; the kernel
	// measures that cost directly, and subtracting it restores Lubeck's
	// assumption that the small run's CPI ≈ cpi0 (+ miss terms that Eq. 2
	// strips). On the paper's full-size runs this correction is negligible.
	small := uni[0]
	if k1, ok := in.SyncKernel[1]; ok && k1.Barriers > 0 && k1.Instr > 0 {
		guess := small.CPI
		for i := 0; i < 2; i++ {
			ts := (counters.ToFloat(k1.Cycles) - guess*counters.ToFloat(k1.Instr)) / counters.ToFloat(k1.Barriers)
			if ts < 0 {
				ts = 0
			}
			m.TSync1 = ts
			if c := (counters.ToFloat(small.Cycles) - counters.ToFloat(small.Barriers)*ts) / counters.ToFloat(small.Instr); c > 0 {
				guess = c
			}
		}
	}
	// corrCPI is a uniprocessor run's CPI with the barrier overhead removed.
	corrCPI := func(u Measurement) float64 {
		if u.Instr == 0 {
			return u.CPI
		}
		c := (counters.ToFloat(u.Cycles) - counters.ToFloat(u.Barriers)*m.TSync1) / counters.ToFloat(u.Instr)
		if c <= 0 {
			return u.CPI
		}
		return c
	}

	// §2.2 — cpi0, Lubeck initial estimate: the smallest uniprocessor run.
	m.CPI0Initial = corrCPI(small)

	// §2.3 — t2 and tm. The paper jointly least-squares Eq. 3 over
	// L2-overflowing sizes; on fully-overflowing runs h2 and hm are nearly
	// collinear, so we first estimate t2 from the L2-*fitting* sizes
	// (where hm ≈ 0 and h2 dominates) and then tm from the overflowing
	// sizes given t2, iterating to a joint fixed point. When no L2-fitting
	// sizes exist the paper's joint fit is used directly.
	overflowAt := OverflowThreshold(opt.L2Bytes)
	midAt := uint64(0.75 * float64(opt.L2Bytes))
	fit := func(cpi0 float64) (t2, tm, rmse float64, err error) {
		m.FitSizes = 0
		var mid, over []Measurement
		for _, u := range uni {
			switch {
			case u.DataBytes >= overflowAt:
				over = append(over, u)
			case u.DataBytes <= midAt && u.H2 > 1e-9:
				mid = append(mid, u)
			}
		}
		if len(over) < 2 {
			return 0, 0, 0, in.insufficient("model: only %d uniproc runs overflow the L2 (threshold %d bytes); need ≥ 2 for the t2/tm least squares",
				len(over), overflowAt)
		}
		// A measurement set with essentially no cache misses (e.g. a
		// compute/barrier-only segment) cannot identify t2/tm — and does
		// not need them: the miss terms of Eq. 1 are zero.
		maxMiss := 0.0
		for _, u := range uni {
			if v := u.H2 + u.Hm; v > maxMiss {
				maxMiss = v
			}
		}
		if maxMiss < 1e-7 {
			m.FitSizes = len(over)
			m.FitR2 = 1
			return 0, 0, 0, nil
		}
		solve1 := func(ms []Measurement, x func(Measurement) float64, y func(Measurement) float64) float64 {
			var num, den float64
			for _, u := range ms {
				num += x(u) * y(u)
				den += x(u) * x(u)
			}
			if !(den > 0) { // den is a sum of squares; also rejects NaN
				return 0
			}
			return num / den
		}
		if len(mid) == 0 {
			rows := make([][]float64, len(over))
			ys := make([]float64, len(over))
			for i, u := range over {
				rows[i] = []float64{u.H2, u.Hm}
				ys[i] = corrCPI(u) - cpi0
			}
			beta, err := stats.LeastSquares(rows, ys)
			if err != nil {
				return 0, 0, 0, fmt.Errorf("model: t2/tm joint fit: %w", err)
			}
			t2, tm = beta[0], beta[1]
		} else {
			for i := 0; i < 3; i++ {
				tm = solve1(over, func(u Measurement) float64 { return u.Hm },
					func(u Measurement) float64 { return corrCPI(u) - cpi0 - u.H2*t2 })
				t2 = solve1(mid, func(u Measurement) float64 { return u.H2 },
					func(u Measurement) float64 { return corrCPI(u) - cpi0 - u.Hm*tm })
				if t2 < 0 {
					t2 = 0
				}
			}
		}
		if t2 < 0 {
			t2 = 0
		}
		if tm < 0 {
			return 0, 0, 0, fmt.Errorf("model: fitted tm = %.2f < 0 (inconsistent inputs)", tm)
		}
		var sq, sy, syy float64
		for _, u := range over {
			r := corrCPI(u) - cpi0 - u.H2*t2 - u.Hm*tm
			sq += r * r
			y := corrCPI(u) - cpi0
			sy += y
			syy += y * y
		}
		rmse = math.Sqrt(sq / float64(len(over)))
		m.FitSizes = len(over)
		if sst := syy - sy*sy/float64(len(over)); sst > 1e-12 {
			m.FitR2 = 1 - sq/sst
		} else {
			m.FitR2 = 1 // degenerate: no variance to explain
		}
		return t2, tm, rmse, nil
	}
	if m.T2, m.Tm1, m.FitRMSE, err = fit(m.CPI0Initial); err != nil {
		return nil, err
	}

	// §2.2 — the unbiased adjustment (Eq. 2): strip the compulsory-miss
	// cycles present in the small run.
	m.CPI0 = m.CPI0Initial - small.H2*m.T2 - small.Hm*m.Tm1
	if m.CPI0 <= 0 {
		return nil, fmt.Errorf("model: adjusted cpi0 = %.4f ≤ 0 (inconsistent inputs)", m.CPI0)
	}
	if opt.Refit {
		if m.T2, m.Tm1, m.FitRMSE, err = fit(m.CPI0); err != nil {
			return nil, err
		}
	}

	// §2.4.1 — compulsory miss rate: the peak of the uniprocessor hit-rate
	// scan (Fig. 3a).
	peak := m.hitCurve.ArgMaxY()
	m.Compulsory = stats.Clamp(1-peak.Y, 0, 1)
	m.SMax = peak.X

	// Sync-kernel curves, keyed by processor count.
	kernProcs := make([]int, 0, len(in.SyncKernel))
	for p := range in.SyncKernel {
		kernProcs = append(kernProcs, p)
	}
	sort.Ints(kernProcs)
	var cpiSyncPts, tsyncPts []stats.Point
	for _, p := range kernProcs {
		k := in.SyncKernel[p]
		if k.Barriers == 0 || k.Instr == 0 {
			return nil, fmt.Errorf("model: sync kernel at %d procs has no barriers/instructions", p)
		}
		cpiSyncPts = append(cpiSyncPts, stats.Point{X: float64(p), Y: k.CPI})
		// tsync: per-processor kernel cycles beyond the base instruction
		// cost, per barrier (§2.4.2, "proceeding like we did to calculate
		// tm").
		perProcCycles := counters.ToFloat(k.Cycles) / float64(k.Procs)
		perProcInstr := counters.ToFloat(k.Instr) / float64(k.Procs)
		ts := (perProcCycles - m.CPI0*perProcInstr) / counters.ToFloat(k.Barriers)
		if ts < 0 {
			ts = 0
		}
		tsyncPts = append(tsyncPts, stats.Point{X: float64(p), Y: ts})
	}
	cpiSyncCurve, err := stats.NewInterpolator(cpiSyncPts)
	if err != nil {
		return nil, err
	}
	tsyncCurve, err := stats.NewInterpolator(tsyncPts)
	if err != nil {
		return nil, err
	}

	// §2.3/§2.4 — per-processor-count estimates.
	for _, b := range base {
		pe := PointEstimate{Procs: b.Procs, Meas: b}

		// tm(n) from Eq. 1 with cpi0 and t2 known. Synchronization and
		// spin cycles flow through Eq. 1 into tm(n) (they are cycles the
		// equation can only attribute to the hm term); rawTm is therefore
		// an upper bound. Unless Options.RawTmN keeps the paper's
		// single-pass estimate, the loop below iteratively removes the
		// estimated MP cycles and instructions — including the one
		// release-flag miss per barrier per processor — and re-solves
		// Eq. 1, converging to an MP-decontaminated tm(n).
		rawTm := m.Tm1
		if b.Hm > 1e-12 {
			if v := (b.CPI - m.CPI0 - b.H2*m.T2) / b.Hm; v > 0 {
				rawTm = v
			}
		}
		if rawTm < m.Tm1 {
			rawTm = m.Tm1
		}
		pe.TmN = rawTm

		sOverN := float64(s0) / float64(b.Procs)

		// Quantities independent of tm(n). Coh reads the uniprocessor
		// hit-rate curve at s0/n; with a degraded input set there may be no
		// measured sample near that size, and the flag records that the
		// estimate rests on interpolation across the gap.
		pe.Coh = stats.Clamp(m.hitCurve.At(sOverN)-b.L2HitRate, 0, 1)
		pe.CohInterpolated = b.Procs > 1 && !hasSampleNear(uni, sOverN)
		pe.L2HitInf = stats.Clamp(1-m.Compulsory-pe.Coh, 0, 1)
		pe.L1HitInfInf = m.l1Curve.At(sOverN)
		pe.MemFracInfInf = m.mCurve.At(sOverN)
		l2InfInf := stats.Clamp(1-m.Compulsory, 0, 1)
		pe.CpiSync = cpiSyncCurve.At(float64(b.Procs))
		pe.TSync = tsyncCurve.At(float64(b.Procs))
		if b.Procs > 1 {
			// Eq. 10: ostsync = ntsync · (cpi0 + tsync); then
			// frac_sync = ostsync / (cpi_sync · instructions).
			ostsync := counters.ToFloat(b.NtSync) * (m.CPI0 + pe.TSync)
			if pe.CpiSync > 0 && b.Instr > 0 {
				pe.FracSync = stats.Clamp(ostsync/(pe.CpiSync*counters.ToFloat(b.Instr)), 0, 0.95)
			}
		}

		// cpisAt is Eq. 9's two CPIs at a candidate tm. cpi∞ is the CPI
		// with the conflict misses' cycles removed — algebraically
		// identical to Eq. 8 when tm is the raw Eq. 1 solution, and exact
		// under a decontaminated tm. Removing a conflict miss converts it
		// into an L2 hit, so each removed miss saves (tm − t2) cycles, not
		// tm. The conflict-miss rate does not depend on tm.
		hmInf := (1 - b.L1HitRate) * b.MemFrac * (1 - pe.L2HitInf)
		conflict := math.Max(b.Hm-hmInf, 0)
		cpisAt := func(tm float64) (cpiInf, cpiInfInf float64) {
			return b.CPI - conflict*math.Max(tm-m.T2, 0),
				eq8(m.CPI0, pe.L1HitInfInf, pe.MemFracInfInf, m.T2, tm, l2InfInf)
		}
		// finish records the tm-dependent quantities of the chosen
		// (tm, fi) pair.
		finish := func(tm, fi float64) {
			pe.TmN = tm
			pe.FracImb = fi
			pe.CPIInf, pe.CPIInfInf = cpisAt(tm)
		}

		if opt.RawTmN || b.Procs == 1 || b.Hm <= 1e-12 {
			finish(rawTm, 0)
			if b.Procs > 1 {
				// Paper-faithful closed form: Eq. 9 solved for frac_imb
				// at the raw tm(n).
				denom := m.CpiImb - pe.CPIInfInf
				if math.Abs(denom) < 1e-3 {
					pe.ImbDegenerate = true
				} else {
					fi := (pe.CPIInf - pe.CPIInfInf - pe.FracSync*(pe.CpiSync-pe.CPIInfInf)) / denom
					pe.FracImb = stats.Clamp(fi, 0, 0.95-pe.FracSync)
				}
			}
			m.Points = append(m.Points, pe)
			continue
		}

		// Joint solve of (tm, frac_imb): for a candidate frac_imb, the
		// MP-decontaminated Eq. 1 determines tm directly; the pair must
		// then satisfy Eq. 9. A grid scan over frac_imb picks the most
		// consistent pair — robust where a fixed-point iteration
		// oscillates (Eq. 9 is not monotone in frac_imb once tm reacts).
		instr := counters.ToFloat(b.Instr)
		syncCycles := pe.CpiSync * pe.FracSync * instr
		barrierMisses := counters.ToFloat(b.Barriers) * float64(b.Procs)
		cleanL2 := b.Hm*instr - barrierMisses
		cleanL1L2 := b.H2 * instr // the L1-miss/L2-hit count is sync-free
		tmOf := func(fi float64) float64 {
			if cleanL2 <= 0 {
				return rawTm
			}
			cleanInstr := (1 - pe.FracSync - fi) * instr
			cleanCycles := counters.ToFloat(b.Cycles) - syncCycles - m.CpiImb*fi*instr
			if cleanInstr <= 0 || cleanCycles <= 0 {
				return m.Tm1
			}
			tm := (cleanCycles - m.CPI0*cleanInstr - m.T2*cleanL1L2) / cleanL2
			return stats.Clamp(tm, m.Tm1, rawTm)
		}
		bestFi, bestRes := 0.0, math.Inf(1)
		maxFi := 0.95 - pe.FracSync
		const steps = 400
		for k := 0; k <= steps; k++ {
			fi := maxFi * float64(k) / steps
			cpiB, cpiII := cpisAt(tmOf(fi))
			res := cpiB - (cpiII*(1-pe.FracSync-fi) + pe.CpiSync*pe.FracSync + m.CpiImb*fi)
			if math.Abs(res) < bestRes {
				bestRes, bestFi = math.Abs(res), fi
			}
		}
		finish(tmOf(bestFi), bestFi)
		m.Points = append(m.Points, pe)
	}
	if m.Points[0].Procs != 1 {
		return nil, in.insufficient("model: base runs must include a uniprocessor run")
	}
	m.Degradation = degradationOf(&in, uni, base, m.Points)
	return m, nil
}

// eq8 is the paper's Equation 8:
// cpi = cpi0 + (1 − L1hitr)·m·(t2·L2hitr + tm·(1 − L2hitr)).
func eq8(cpi0, l1hit, memFrac, t2, tm, l2hit float64) float64 {
	return cpi0 + (1-l1hit)*memFrac*(t2*l2hit+tm*(1-l2hit))
}

// Point returns the estimate for a processor count.
func (m *Model) Point(procs int) (PointEstimate, bool) {
	for _, p := range m.Points {
		if p.Procs == procs {
			return p, true
		}
	}
	return PointEstimate{}, false
}

// HitRateScan returns the uniprocessor L2 hit-rate curve samples (Fig. 3a).
func (m *Model) HitRateScan() []stats.Point { return m.hitCurve.Points() }

// HitRateAt evaluates the uniprocessor L2 hit-rate curve at a data-set size
// (used by the what-if L2-scaling estimate, Eq. 11's uniprocessor
// component).
func (m *Model) HitRateAt(dataBytes float64) float64 { return m.hitCurve.At(dataBytes) }
