package scaltool_test

// BenchmarkSimRun measures one raw simulator run — no HTTP, no campaign, no
// cache, no program build — so the engine's per-access cost and allocation
// behavior are visible without serving-path noise. Each case runs with the
// observer off (a bare context) and on (a live tracer and metrics registry,
// as a traced CLI campaign has), so the pair also bounds the observability
// layer's hot-path overhead. The 32-processor cases keep the per-region
// path (page homes, lane scheduling, directory merge) visible beside the
// per-access one:
//
//	go test -bench 'SimRun/swim/p8' -benchtime 20x .

import (
	"context"
	"strconv"
	"testing"

	"scaltool/internal/apps"
	"scaltool/internal/machine"
	"scaltool/internal/obs"
	"scaltool/internal/sim"
)

func BenchmarkSimRun(b *testing.B) {
	cfg := machine.ScaledOrigin()
	for _, bc := range []struct {
		app   string
		procs int
	}{
		{"swim", 8},
		{"hydro2d", 8},
		{"swim", 1},
		// Heavy per region: 531 regions x 32 lanes, each region ending in a
		// directory merge and an invalidation pass.
		{"t3dheat", 32},
		{"hydro2d", 32},
	} {
		app, err := apps.ByName(bc.app)
		if err != nil {
			b.Fatal(err)
		}
		prog, err := app.Build(cfg, bc.procs, app.DefaultBytes(cfg))
		if err != nil {
			b.Fatal(err)
		}
		observed := &obs.Observer{Trace: obs.NewTracer(), Metrics: obs.NewMetrics()}
		for _, mode := range []struct {
			name string
			ctx  context.Context
		}{
			{"obs-off", context.Background()},
			{"obs-on", obs.NewContext(context.Background(), observed)},
		} {
			b.Run(bc.app+"/p"+strconv.Itoa(bc.procs)+"/"+mode.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := sim.RunContext(mode.ctx, cfg, prog); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
