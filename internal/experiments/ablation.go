package experiments

import (
	"fmt"
	"strings"

	"scaltool/internal/apps"
	"scaltool/internal/campaign"
	"scaltool/internal/counters"
	"scaltool/internal/machine"
	"scaltool/internal/memdsm"
	"scaltool/internal/model"
	"scaltool/internal/sim"
	"scaltool/internal/table"
)

// ExtSharing exercises the paper's stated future work (§6): estimating the
// true/false-sharing effect from counters, and cross-checking the two
// frac_sync methods of §2.4.2 (ntsync counter vs instrumented barrier
// count) — their gap measures exactly the ntsync pollution behind the
// paper's Swim caveat.
func (s *Suite) ExtSharing() string {
	var b strings.Builder
	for _, name := range PaperApps() {
		a := s.mustAnalysis(name)
		tb := table.New(fmt.Sprintf("sharing estimate — %s", name),
			"#procs", "#coh misses (est)", "#sync-induced", "#data sharing", "#sharing cycles",
			"#ntsync pollution", "#fs(ntsync)", "#fs(barriers)")
		for _, pe := range a.model.Points {
			est, ok := a.model.Sharing(pe.Procs)
			if !ok {
				continue
			}
			tb.Row(pe.Procs, est.CoherenceMisses, est.SyncInduced, est.DataMisses,
				est.Cycles, int(est.NtSyncPollution), est.FracSyncNtSync, est.FracSyncBarriers)
		}
		b.WriteString(tb.String())
		b.WriteString("\n")
	}
	b.WriteString("Swim's fs(ntsync) ≫ fs(barriers) at high counts — the §4.3 pollution made\nmeasurable; Hydro2d's methods agree (its DOACROSS bodies share nothing).\n")
	return b.String()
}

// AblationRawTm compares the default MP-decontaminated tm(n) against the
// paper's single-pass Eq. 1 estimate (ModelOptions.RawTmN): validation
// error and the Sync/Imb split at the largest count.
func (s *Suite) AblationRawTm() string {
	var b strings.Builder
	for _, name := range PaperApps() {
		a := s.mustAnalysis(name)
		raw, err := a.campaign.Fit(model.Options{L2Bytes: s.Cfg.L2.SizeBytes, RawTmN: true})
		if err != nil {
			panic(err)
		}
		measured := a.campaign.MeasuredMP()
		tb := table.New(fmt.Sprintf("tm(n) ablation — %s (MP error, %% of Base)", name),
			"#procs", "#tm(n) decon", "#tm(n) raw", "#err decon", "#err raw")
		for i, bp := range a.model.Breakdown() {
			rb := raw.Breakdown()[i]
			pe := a.model.Points[i]
			rpe := raw.Points[i]
			tb.Row(bp.Procs, pe.TmN, rpe.TmN,
				pct(bp.MP()-measured[bp.Procs], bp.Base),
				pct(rb.MP()-measured[rb.Procs], rb.Base))
		}
		b.WriteString(tb.String())
		b.WriteString("\n")
	}
	b.WriteString("The raw Eq. 1 tm(n) absorbs barrier-drain and spin cycles at high counts,\ninflating tm by up to ~10x and with it the MP estimate; the decontaminated\nsolve (DESIGN.md §6) keeps the validation inside the paper's band.\n")
	return b.String()
}

// AblationPlacement re-runs Swim's base points under the three page
// placement policies: first-touch (the paper's default), round-robin, and
// centralized (all pages on node 0).
func (s *Suite) AblationPlacement() string {
	app, err := apps.ByName("swim")
	if err != nil {
		panic(err)
	}
	s0 := app.DefaultBytes(s.Cfg)
	policies := []memdsm.Placement{memdsm.FirstTouch, memdsm.RoundRobin, memdsm.AllOnZero}
	walls := map[memdsm.Placement]map[int]float64{}
	for _, pol := range policies {
		walls[pol] = map[int]float64{}
		for n := 1; n <= s.MaxProcs; n *= 2 {
			prog, err := app.Build(s.Cfg, n, s0)
			if err != nil {
				panic(err)
			}
			prog.Placement = pol
			res, err := sim.Run(s.Cfg, prog)
			if err != nil {
				panic(err)
			}
			walls[pol][n] = res.WallCycles
		}
	}
	tb := table.New("page-placement ablation — Swim speedups",
		"#procs", "#first-touch", "#round-robin", "#all-on-node-0")
	for n := 1; n <= s.MaxProcs; n *= 2 {
		tb.Row(n,
			walls[memdsm.FirstTouch][1]/walls[memdsm.FirstTouch][n],
			walls[memdsm.RoundRobin][1]/walls[memdsm.RoundRobin][n],
			walls[memdsm.AllOnZero][1]/walls[memdsm.AllOnZero][n])
	}
	var b strings.Builder
	b.WriteString(tb.String())
	b.WriteString("\nFirst-touch keeps each processor's misses local (the Origin default the\npaper's applications rely on); round-robin pays average-distance latency;\na centralized memory also bottlenecks every miss on one node.\n")
	return b.String()
}

// AblationMux refits the model from two-counter multiplexed measurements
// (perfex -a -mp emulation) and reports how much the breakdown moves — the
// measurement-realism robustness check.
func (s *Suite) AblationMux() string {
	a := s.mustAnalysis("t3dheat")
	in, err := a.campaign.Inputs()
	if err != nil {
		panic(err)
	}
	// Re-derive every measurement from a multiplexed view of its report.
	muxIn := model.Inputs{SyncKernel: map[int]model.Measurement{}, SpinCPI: in.SpinCPI}
	muxReport := func(r *counters.RunReport) model.Measurement {
		mr := counters.MultiplexReport(r, counters.DefaultMux(r.DataBytes^uint64(r.Procs)))
		return model.FromReport(mr)
	}
	for n, res := range a.campaign.BaseRuns {
		_ = n
		muxIn.Base = append(muxIn.Base, muxReport(&res.Report))
	}
	for _, res := range a.campaign.UniRuns {
		muxIn.Uniproc = append(muxIn.Uniproc, muxReport(&res.Report))
	}
	for n, res := range a.campaign.SyncKernels {
		muxIn.SyncKernel[n] = muxReport(&res.Report)
	}
	muxModel, err := model.Fit(muxIn, model.DefaultOptions(s.Cfg.L2.SizeBytes))
	if err != nil {
		panic(err)
	}
	tb := table.New("2-counter multiplexed measurement — T3dheat breakdown drift",
		"#procs", "#L2Lim% exact", "#L2Lim% mux", "#MP% exact", "#MP% mux")
	exact := a.model.Breakdown()
	muxed := muxModel.Breakdown()
	for i := range exact {
		tb.Row(exact[i].Procs,
			pct(exact[i].L2Lim(), exact[i].Base), pct(muxed[i].L2Lim(), muxed[i].Base),
			pct(exact[i].MP(), exact[i].Base), pct(muxed[i].MP(), muxed[i].Base))
	}
	var b strings.Builder
	b.WriteString(tb.String())
	fmt.Fprintf(&b, "\nmodel under multiplexing: cpi0 %.3f vs %.3f, tm(1) %.1f vs %.1f — the 2%%\ncounter jitter of perfex multiplexing barely moves the conclusions.\n",
		a.model.CPI0, muxModel.CPI0, a.model.Tm1, muxModel.Tm1)
	return b.String()
}

// AblationProtocol demonstrates the paper's dependence on the Illinois
// protocol: "Since the Origin 2000 uses the Illinois cache coherence
// protocol, such operations largely imply sharing transactions" (§2.4.2).
// Re-running Swim's campaign on an MSI machine (no Exclusive state) makes
// every first write to read data fire the store-to-shared event, drowning
// ntsync and wrecking the frac_sync estimate.
func (s *Suite) AblationProtocol() string {
	app, err := apps.ByName("swim")
	if err != nil {
		panic(err)
	}
	msiCfg := s.Cfg
	msiCfg.Protocol = machine.MSI
	msiCfg.Name = s.Cfg.Name + "-msi"
	plan, err := campaign.NewPlan(app, msiCfg, s.MaxProcs, 0)
	if err != nil {
		panic(err)
	}
	rn := &campaign.Runner{Cfg: msiCfg}
	res, err := rn.Run(app, plan)
	if err != nil {
		panic(err)
	}
	msiModel, err := res.Fit(model.DefaultOptions(msiCfg.L2.SizeBytes))
	if err != nil {
		panic(err)
	}
	illinois := s.mustAnalysis("swim")
	msiMeasured := res.MeasuredMP()
	illMeasured := illinois.campaign.MeasuredMP()

	tb := table.New("coherence-protocol ablation — Swim ntsync, Sync share, MP error",
		"#procs", "#ntsync (Ill.)", "#ntsync (MSI)", "#Sync% (Ill.)", "#Sync% (MSI)",
		"#MP err% (Ill.)", "#MP err% (MSI)")
	msiBps := msiModel.Breakdown()
	for i, bp := range illinois.model.Breakdown() {
		pe := illinois.model.Points[i]
		mpe := msiModel.Points[i]
		mbp := msiBps[i]
		tb.Row(bp.Procs, pe.Meas.NtSync, mpe.Meas.NtSync,
			pct(bp.Sync, bp.Base), pct(mbp.Sync, mbp.Base),
			pct(bp.MP()-illMeasured[bp.Procs], bp.Base),
			pct(mbp.MP()-msiMeasured[mbp.Procs], mbp.Base))
	}
	var b strings.Builder
	b.WriteString(tb.String())
	b.WriteString("\nWithout the Exclusive state, every first write to read data fires the\nstore-to-shared event: ntsync multiplies, the Sync share absorbs cycles that\nare really imbalance, and the frac_sync estimate stops meaning\nsynchronization — exactly why the paper leans on the Illinois protocol for\nthis counter.\n")
	return b.String()
}

// ExtSegment exercises the paper's per-segment analysis ("these plots can
// be obtained for the overall application or for a segment of the
// application that is considered particularly important", §2.1): T3dheat's
// matvec segment against its reduction/barrier machinery.
func (s *Suite) ExtSegment() string {
	a := s.mustAnalysis("t3dheat")
	opts := model.DefaultOptions(s.Cfg.L2.SizeBytes)
	var b strings.Builder
	for _, seg := range []string{"matvec", "dot", "pcf_barrier"} {
		m, err := a.campaign.FitSegment(seg, opts)
		if err != nil {
			panic(err)
		}
		tb := table.New(fmt.Sprintf("segment %q — T3dheat", seg),
			"#procs", "#Base", "#L2Lim%", "#Sync%", "#Imb%")
		for _, bp := range m.Breakdown() {
			tb.Row(bp.Procs, bp.Base, pct(bp.L2Lim(), bp.Base), pct(bp.Sync, bp.Base), pct(bp.Imb, bp.Base))
		}
		b.WriteString(tb.String())
		b.WriteString("\n")
	}
	b.WriteString("The matvec segment is caching-space bound at low counts; the reduction and\nexplicit-barrier segments are synchronization bound at high counts — the\nwhole-application chart is the sum of very different per-segment stories.\n")
	return b.String()
}
