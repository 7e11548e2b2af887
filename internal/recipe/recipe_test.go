package recipe

import (
	"context"
	"sync"
	"testing"

	"scaltool/internal/apps"
	"scaltool/internal/machine"
	"scaltool/internal/obs"
	"scaltool/internal/runcache"
	"scaltool/internal/sim"
)

// meter returns a context whose observer counts builds, and a reader for
// the count of one cause.
func meter() (context.Context, func(cause string) uint64) {
	mt := obs.NewMetrics()
	ctx := obs.NewContext(context.Background(), &obs.Observer{Metrics: mt})
	return ctx, func(cause string) uint64 {
		return mt.Counter("scaltool_program_builds_total", "", "cause", cause).Value()
	}
}

// swimWith is a swim app whose Steps make its recipes unique to one test.
func swimWith(steps int) *apps.Swim {
	a := apps.NewSwim()
	a.Params.Steps = steps
	return a
}

func TestResolveServesWhatTheFirstBuildProduced(t *testing.T) {
	cfg := machine.ScaledOrigin()
	tab := newTable(16)
	ctx, builds := meter()
	r := ForApp(swimWith(3), cfg, 4, 200_000)

	first, prog := tab.Resolve(ctx, r)
	if first.Err != nil || prog == nil {
		t.Fatalf("first sight: err %v, program %v; want the built program", first.Err, prog)
	}
	again, prog2 := tab.Resolve(ctx, r)
	if prog2 != nil {
		t.Fatal("a warm recipe returned a program: it was built again")
	}
	if again != first {
		t.Fatalf("warm entry %+v differs from the first build's %+v", again, first)
	}
	if got := builds(CauseRecipe); got != 1 {
		t.Fatalf("%d recipe builds for one recipe resolved twice, want 1", got)
	}
	if k := runcache.KeyFor(cfg, prog); k != first.Key {
		t.Fatal("tabled key differs from KeyFor of the built program")
	}
	if c := prog.Census(); c != first.Census {
		t.Fatalf("tabled census %+v differs from the program's %+v", first.Census, c)
	}
}

func TestBuildErrorsReplayVerbatim(t *testing.T) {
	cfg := machine.ScaledOrigin()
	tab := newTable(16)
	ctx, builds := meter()
	app := swimWith(4)
	r := ForApp(app, cfg, 1, 100) // below swim's 4×4 grid
	_, want := app.Build(cfg, 1, 100)
	if want == nil {
		t.Fatal("size 100 built; the test needs a size below the grid")
	}
	for i := 0; i < 3; i++ {
		e, prog := tab.Resolve(ctx, r)
		if prog != nil || e.Err == nil || e.Err.Error() != want.Error() {
			t.Fatalf("resolve %d: err %v, want %v", i, e.Err, want)
		}
	}
	if got := builds(CauseRecipe); got != 1 {
		t.Fatalf("a refused build ran %d times, want 1", got)
	}
}

func TestChangedParamsMiss(t *testing.T) {
	cfg := machine.ScaledOrigin()
	tab := newTable(16)
	ctx, builds := meter()
	app := swimWith(5)
	a, _ := tab.Resolve(ctx, ForApp(app, cfg, 2, 150_000))
	app.Params.FlopsSweep++
	b, prog := tab.Resolve(ctx, ForApp(app, cfg, 2, 150_000))
	if prog == nil || builds(CauseRecipe) != 2 {
		t.Fatal("an app whose Params changed was served its old entry")
	}
	if a.Key == b.Key {
		t.Fatal("changed Params produced the same content key")
	}
}

func TestRecipeFieldsSeparateEntries(t *testing.T) {
	cfg := machine.ScaledOrigin()
	other := cfg
	other.Lat.RouterHop++
	app := swimWith(6)
	tab := newTable(64)
	ctx, builds := meter()
	recipes := []Recipe{
		ForApp(app, cfg, 2, 150_000),
		ForApp(app, cfg, 4, 150_000),
		ForApp(app, cfg, 2, 160_000),
		ForApp(app, other, 2, 150_000),
		ForApp(apps.NewHydro2d(), cfg, 2, 150_000),
		ForSyncKernel(cfg, 2, 10),
		ForSyncKernel(cfg, 2, 11),
		ForSpinKernel(cfg, 2, 3, 100),
		ForSpinKernel(cfg, 2, 3, 101),
	}
	for _, r := range recipes {
		tab.Resolve(ctx, r)
	}
	if got := builds(CauseRecipe); got != uint64(len(recipes)) {
		t.Fatalf("%d builds for %d distinct recipes", got, len(recipes))
	}
	if tab.Len() != len(recipes) {
		t.Fatalf("table holds %d entries, want %d", tab.Len(), len(recipes))
	}
}

func TestKernelRecipesMatchTheirBuilders(t *testing.T) {
	cfg := machine.ScaledOrigin()
	tab := newTable(8)
	ctx := context.Background()
	syncK, _ := apps.BuildSyncKernel(cfg, 8, apps.SyncKernelBarriers)
	spin, _ := apps.BuildSpinKernel(cfg, 8, apps.SpinKernelPhases, apps.SpinKernelWork)
	if e, _ := tab.Resolve(ctx, ForSyncKernel(cfg, 8, apps.SyncKernelBarriers)); e.Key != runcache.KeyFor(cfg, syncK) {
		t.Fatal("sync-kernel recipe keys a different program")
	}
	if e, _ := tab.Resolve(ctx, ForSpinKernel(cfg, 8, apps.SpinKernelPhases, apps.SpinKernelWork)); e.Key != runcache.KeyFor(cfg, spin) {
		t.Fatal("spin-kernel recipe keys a different program")
	}
}

func TestCapacityIsFixed(t *testing.T) {
	cfg := machine.ScaledOrigin()
	tab := newTable(8)
	ctx := context.Background()
	app := swimWith(7)
	for i := 0; i < 40; i++ {
		tab.Resolve(ctx, ForApp(app, cfg, 1, 4096+uint64(i)*512))
		if n := tab.Len(); n > 8 {
			t.Fatalf("after %d distinct recipes the table holds %d entries, over its cap of 8", i+1, n)
		}
	}
	// The most recent entries survive; the oldest were evicted and rebuild.
	ctx2, builds := meter()
	tab.Resolve(ctx2, ForApp(app, cfg, 1, 4096+39*512))
	tab.Resolve(ctx2, ForApp(app, cfg, 1, 4096))
	if got := builds(CauseRecipe); got != 1 {
		t.Fatalf("%d rebuilds, want exactly 1 (the evicted oldest recipe)", got)
	}
}

// plainApp has no Identity, so its recipes are never tabled.
type plainApp struct{ builds *int }

func (plainApp) Name() string                       { return "plain" }
func (plainApp) Description() string                { return "untabled test app" }
func (plainApp) ParallelModel() string              { return "MP" }
func (plainApp) DefaultBytes(machine.Config) uint64 { return 1 << 16 }
func (a plainApp) Build(cfg machine.Config, procs int, size uint64) (*sim.Program, error) {
	*a.builds++
	return apps.NewSwim().Build(cfg, procs, size)
}

func TestUntabledAppsBuildEveryTime(t *testing.T) {
	cfg := machine.ScaledOrigin()
	tab := newTable(8)
	n := 0
	r := ForApp(plainApp{builds: &n}, cfg, 2, 100_000)
	for i := 0; i < 3; i++ {
		if _, prog := tab.Resolve(context.Background(), r); prog == nil {
			t.Fatal("an untabled resolve returned no program")
		}
	}
	if n != 3 || tab.Len() != 0 {
		t.Fatalf("untabled app: %d builds and %d entries, want 3 and 0", n, tab.Len())
	}
}

// TestConcurrentIdenticalResolvesShareOneBuild is the race-detector gate:
// many requests for one recipe at once build it once and all see the same
// entry.
func TestConcurrentIdenticalResolvesShareOneBuild(t *testing.T) {
	cfg := machine.ScaledOrigin()
	tab := newTable(16)
	ctx, builds := meter()
	r := ForApp(swimWith(8), cfg, 8, 250_000)
	const n = 16
	entries := make([]Entry, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			entries[i], _ = tab.Resolve(ctx, r)
		}(i)
	}
	wg.Wait()
	if got := builds(CauseRecipe); got != 1 {
		t.Fatalf("%d concurrent identical resolves built %d times, want 1", n, got)
	}
	for i := range entries {
		if entries[i] != entries[0] || entries[i].Err != nil {
			t.Fatalf("resolver %d saw %+v, resolver 0 %+v", i, entries[i], entries[0])
		}
	}
}

// panicApp panics in Build.
type panicApp struct{ plainApp }

func (panicApp) Identity() any { return "panicApp" }
func (panicApp) Build(machine.Config, int, uint64) (*sim.Program, error) {
	panic("boom")
}

func TestPanickingBuildLeavesNoEntry(t *testing.T) {
	tab := newTable(8)
	r := ForApp(panicApp{}, machine.ScaledOrigin(), 1, 1000)
	for i := 0; i < 2; i++ {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("the build's panic did not propagate")
				}
			}()
			tab.Resolve(context.Background(), r)
		}()
		if tab.Len() != 0 {
			t.Fatal("a panicking build left an entry behind")
		}
	}
}

// blockApp's Build waits for release, so a test can look a recipe up while
// its first build is still running.
type blockApp struct {
	plainApp
	started, release chan struct{}
}

func (blockApp) Identity() any { return "blockApp" }
func (a blockApp) Build(cfg machine.Config, procs int, size uint64) (*sim.Program, error) {
	close(a.started)
	<-a.release
	return apps.NewSwim().Build(cfg, procs, size)
}

// TestLookupNeverBuilds: Lookup answers only from a final table entry. An
// unseen recipe, an untabled application and a recipe whose first build is
// still running all miss at once, building and waiting for nothing.
func TestLookupNeverBuilds(t *testing.T) {
	cfg := machine.ScaledOrigin()
	tab := newTable(16)
	ctx, builds := meter()
	r := ForApp(swimWith(5), cfg, 4, 200_000)
	if _, ok := tab.Lookup(r); ok || builds(CauseRecipe) != 0 || tab.Len() != 0 {
		t.Fatalf("Lookup of an unseen recipe hit (%v), built %d times or tabled %d entries", ok, builds(CauseRecipe), tab.Len())
	}
	want, _ := tab.Resolve(ctx, r)
	if got, ok := tab.Lookup(r); !ok || got != want {
		t.Fatalf("Lookup after Resolve: %+v, %v; want %+v", got, ok, want)
	}
	if builds(CauseRecipe) != 1 {
		t.Fatalf("%d builds, want the one Resolve made", builds(CauseRecipe))
	}

	if _, ok := tab.Lookup(ForApp(plainApp{}, cfg, 2, 1<<16)); ok {
		t.Fatal("Lookup hit for an untabled application")
	}

	b := blockApp{started: make(chan struct{}), release: make(chan struct{})}
	br := ForApp(b, cfg, 2, 1<<16)
	done := make(chan struct{})
	go func() {
		defer close(done)
		tab.Resolve(context.Background(), br)
	}()
	<-b.started
	if _, ok := tab.Lookup(br); ok {
		t.Fatal("Lookup hit a recipe whose first build is still running")
	}
	close(b.release)
	<-done
	if e, ok := tab.Lookup(br); !ok || e.Err != nil {
		t.Fatalf("Lookup after the build finished: %+v, %v", e, ok)
	}
}

// TestKeepHandsTheBuildToOneTake: a program kept in a request's hold is
// handed to exactly one Take on that request's context, and to none on a
// context without the hold.
func TestKeepHandsTheBuildToOneTake(t *testing.T) {
	cfg := machine.ScaledOrigin()
	tab := newTable(4)
	r1 := ForApp(swimWith(7), cfg, 2, 200_000)
	r2 := ForApp(swimWith(7), cfg, 4, 200_000)

	plain := context.Background()
	ctx := WithHold(plain)
	_, p1 := tab.Resolve(ctx, r1)
	Keep(ctx, r1, p1)
	Keep(plain, r2, p1) // no hold: nothing kept
	if Take(plain, r1) != nil {
		t.Fatal("Take on a context without the hold got its program")
	}
	if got := Take(ctx, r2); got != nil {
		t.Fatal("Take got a program kept on a context without a hold")
	}
	if got := Take(ctx, r1); got != p1 {
		t.Fatalf("Take returned %p, want the kept program %p", got, p1)
	}
	if got := Take(ctx, r1); got != nil {
		t.Fatal("a second Take got the program again")
	}
	if _, again := tab.Resolve(ctx, r1); again != nil {
		t.Fatal("a warm Resolve built again")
	}
}
