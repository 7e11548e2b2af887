package runcache

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"scaltool/internal/machine"
	"scaltool/internal/obs"
	"scaltool/internal/sim"
)

func testProg(t testing.TB, cfg machine.Config, name string, procs int, regions int) *sim.Program {
	t.Helper()
	prog, err := sim.NewProgram(name, procs, 1<<14, cfg.PageBytes)
	if err != nil {
		t.Fatal(err)
	}
	arr := prog.MustAlloc("a", 1<<14)
	for r := 0; r < regions; r++ {
		reg := prog.AddRegion(fmt.Sprintf("r%d", r))
		for p := 0; p < procs; p++ {
			st := reg.Proc(p)
			st.Compute(200)
			st.Read(arr.Base+uint64(p)*1024, 32, 32, 1)
		}
	}
	return prog
}

func encode(t testing.TB, r *sim.Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := sim.EncodeResult(&buf, r); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestKeyCoversConfig pins the field census of machine.Config (and its
// sub-structs) so a newly added field cannot silently escape KeyFor's
// canonicalization: whoever adds a field must update KeyFor AND this count.
func TestKeyCoversConfig(t *testing.T) {
	counts := map[string]int{
		"Config":      11,
		"CacheConfig": 3,
		"Latencies":   8,
		"CostModel":   2,
		"SyncCosts":   4,
	}
	for name, want := range counts {
		var typ reflect.Type
		switch name {
		case "Config":
			typ = reflect.TypeOf(machine.Config{})
		case "CacheConfig":
			typ = reflect.TypeOf(machine.CacheConfig{})
		case "Latencies":
			typ = reflect.TypeOf(machine.Latencies{})
		case "CostModel":
			typ = reflect.TypeOf(machine.CostModel{})
		case "SyncCosts":
			typ = reflect.TypeOf(machine.SyncCosts{})
		}
		if got := typ.NumField(); got != want {
			t.Errorf("machine.%s has %d fields, canonicalization was written for %d — update runcache.KeyFor and this census together",
				name, got, want)
		}
	}
}

// TestKeySensitivity checks the content address moves with every input that
// changes a simulation, and stays put for a byte-identical rebuild.
func TestKeySensitivity(t *testing.T) {
	cfg := machine.TinyTest()
	base := KeyFor(cfg, testProg(t, cfg, "app", 2, 2))

	if k := KeyFor(cfg, testProg(t, cfg, "app", 2, 2)); k != base {
		t.Error("identical rebuild changed the key")
	}
	if k := KeyFor(cfg, testProg(t, cfg, "app", 4, 2)); k == base {
		t.Error("processor count not in the key")
	}
	if k := KeyFor(cfg, testProg(t, cfg, "app", 2, 3)); k == base {
		t.Error("region structure not in the key")
	}
	if k := KeyFor(cfg, testProg(t, cfg, "other", 2, 2)); k == base {
		t.Error("program name not in the key")
	}
	cfg2 := cfg
	cfg2.Lat.MemLocal++
	if k := KeyFor(cfg2, testProg(t, cfg2, "app", 2, 2)); k == base {
		t.Error("machine latency not in the key")
	}
	cfg3 := cfg
	cfg3.Cost.ComputeCPI *= 1.5
	if k := KeyFor(cfg3, testProg(t, cfg3, "app", 2, 2)); k == base {
		t.Error("cost model not in the key")
	}
}

// TestSingleflightRace hammers one cache with N identical and M distinct
// concurrent requests (run under -race by verify.sh): exactly one simulation
// must execute per distinct key, every response must be byte-identical to a
// fresh uncached run, and every caller must get a private Result clone.
func TestSingleflightRace(t *testing.T) {
	cfg := machine.TinyTest()
	const identical = 24
	const distinct = 6

	c := New(Options{MaxBytes: 64 << 20})
	var runs atomic.Int64
	runFor := func(prog *sim.Program) RunFunc {
		return func(ctx context.Context) (*sim.Result, error) {
			runs.Add(1)
			return sim.RunContext(ctx, cfg, prog)
		}
	}

	// Fresh ground truth per distinct program, simulated outside the cache.
	want := make([][]byte, distinct)
	for i := range want {
		res, err := sim.Run(cfg, testProg(t, cfg, fmt.Sprintf("app%d", i), 2, 2))
		if err != nil {
			t.Fatal(err)
		}
		want[i] = encode(t, res)
	}

	var wg sync.WaitGroup
	errs := make(chan error, identical*distinct)
	for i := 0; i < distinct; i++ {
		for j := 0; j < identical; j++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				prog := testProg(t, cfg, fmt.Sprintf("app%d", i), 2, 2)
				res, _, err := c.GetOrRun(context.Background(), cfg, prog, runFor(prog))
				if err != nil {
					errs <- err
					return
				}
				// Mutate the private clone; the cached copy must not see it.
				res.Report.App = "scribbled"
				if len(res.Report.PerProc) > 0 {
					res.Report.PerProc[0][0] += 12345
				}
			}(i)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	if got := runs.Load(); got != distinct {
		t.Fatalf("%d simulations for %d distinct keys (singleflight broken)", got, distinct)
	}
	// Cached results, fetched after the scribbling above, must still be
	// byte-identical to fresh uncached runs.
	for i := 0; i < distinct; i++ {
		prog := testProg(t, cfg, fmt.Sprintf("app%d", i), 2, 2)
		res, hit, err := c.GetOrRun(context.Background(), cfg, prog, runFor(prog))
		if err != nil {
			t.Fatal(err)
		}
		if !hit {
			t.Fatalf("key %d: expected a cache hit", i)
		}
		if !bytes.Equal(encode(t, res), want[i]) {
			t.Fatalf("key %d: cached result differs from a fresh run (or a caller's scribble leaked in)", i)
		}
	}
	if got := runs.Load(); got != distinct {
		t.Fatalf("verification pass re-simulated: %d runs", got)
	}
}

// TestSingleflightErrorNotCached checks a failed run is reported to its
// waiters but not cached: the next request re-attempts.
func TestSingleflightErrorNotCached(t *testing.T) {
	cfg := machine.TinyTest()
	prog := testProg(t, cfg, "app", 2, 2)
	c := New(Options{})
	boom := errors.New("boom")
	calls := 0
	fail := func(ctx context.Context) (*sim.Result, error) { calls++; return nil, boom }
	if _, _, err := c.GetOrRun(context.Background(), cfg, prog, fail); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	res, hit, err := c.GetOrRun(context.Background(), cfg, prog, func(ctx context.Context) (*sim.Result, error) {
		calls++
		return sim.RunContext(ctx, cfg, prog)
	})
	if err != nil || hit || res == nil {
		t.Fatalf("retry after error: res=%v hit=%v err=%v", res != nil, hit, err)
	}
	if calls != 2 {
		t.Fatalf("calls = %d, want 2 (error must not be cached)", calls)
	}
}

// TestLRUEvictionProperty inserts a stream of distinct entries through a
// cache with a tiny byte budget and checks the LRU properties throughout:
// resident bytes never exceed the budget, the most recently used entries
// survive, and a touched (re-read) entry outlives untouched older ones.
func TestLRUEvictionProperty(t *testing.T) {
	cfg := machine.TinyTest()
	mk := func(i int) *sim.Program { return testProg(t, cfg, fmt.Sprintf("app%d", i), 2, 2) }
	one, err := sim.Run(cfg, mk(0))
	if err != nil {
		t.Fatal(err)
	}
	per := one.SizeEstimate()
	const keep = 3
	c := New(Options{MaxBytes: per*keep + per/2}) // room for exactly `keep`

	const total = 12
	runs := 0
	get := func(i int) bool {
		prog := mk(i)
		_, hit, err := c.GetOrRun(context.Background(), cfg, prog, func(ctx context.Context) (*sim.Result, error) {
			runs++
			return sim.RunContext(ctx, cfg, prog)
		})
		if err != nil {
			t.Fatal(err)
		}
		if st := c.Stats(); st.Bytes > per*keep+per/2 {
			t.Fatalf("after get(%d): resident %d bytes exceeds budget", i, st.Bytes)
		}
		return hit
	}

	for i := 0; i < total; i++ {
		get(i)
		// Keep entry 0 hot: it must survive every eviction wave.
		if i > 0 && i < total-1 {
			if !get(0) {
				t.Fatalf("hot entry 0 was evicted at step %d despite being most-recently used", i)
			}
		}
	}
	if st := c.Stats(); st.Entries > keep {
		t.Fatalf("resident entries = %d, budget allows %d", st.Entries, keep)
	}
	// The last-inserted entry and the hot entry are resident; the cold
	// middle entries are not.
	if !get(total - 1) {
		t.Error("most recent entry was evicted")
	}
	if !get(0) {
		t.Error("hot entry evicted before cold ones")
	}
	if get(1) {
		t.Error("cold entry 1 still resident past the byte budget")
	}
	if runs > total+2 {
		t.Errorf("%d simulations for %d distinct programs (+2 allowed evicted re-runs), cache ineffective", runs, total)
	}
}

// TestDiskSpill checks evicted entries land on disk and are reloaded —
// byte-identical, segments included — instead of re-simulated.
func TestDiskSpill(t *testing.T) {
	cfg := machine.TinyTest()
	dir := t.TempDir()
	mk := func(i int) *sim.Program { return testProg(t, cfg, fmt.Sprintf("app%d", i), 2, 2) }
	one, err := sim.Run(cfg, mk(0))
	if err != nil {
		t.Fatal(err)
	}
	want := encode(t, one)
	c := New(Options{MaxBytes: one.SizeEstimate() + 16, SpillDir: dir}) // one resident entry

	runs := 0
	get := func(i int) (*sim.Result, bool) {
		prog := mk(i)
		res, hit, err := c.GetOrRun(context.Background(), cfg, prog, func(ctx context.Context) (*sim.Result, error) {
			runs++
			return sim.RunContext(ctx, cfg, prog)
		})
		if err != nil {
			t.Fatal(err)
		}
		return res, hit
	}
	get(0)
	get(1) // evicts 0 → spill
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) == 0 {
		t.Fatal("eviction wrote no spill file")
	}
	res, hit, runsBefore := (*sim.Result)(nil), false, runs
	res, hit = get(0) // must come from disk
	if !hit {
		t.Fatal("spilled entry not reported as a hit")
	}
	if runs != runsBefore {
		t.Fatalf("spilled entry re-simulated (%d runs)", runs)
	}
	if !bytes.Equal(encode(t, res), want) {
		t.Fatal("disk-spilled result differs from the original")
	}
	// SegmentReport must work on a decoded result.
	if _, err := res.SegmentReport("r0"); err != nil {
		t.Fatalf("segment report on spilled result: %v", err)
	}
}

// TestNilCacheRunsThrough checks a nil *Cache degrades to a plain run.
func TestNilCacheRunsThrough(t *testing.T) {
	cfg := machine.TinyTest()
	prog := testProg(t, cfg, "app", 2, 1)
	var c *Cache
	res, hit, err := c.GetOrRun(context.Background(), cfg, prog, func(ctx context.Context) (*sim.Result, error) {
		return sim.RunContext(ctx, cfg, prog)
	})
	if err != nil || hit || res == nil {
		t.Fatalf("nil cache: res=%v hit=%v err=%v", res != nil, hit, err)
	}
}

// TestSingleflightCanceledLeadDoesNotPoisonFollower: a leader that dies of
// its OWN context's cancellation must not hand that error to a follower
// whose context is live. Flights are shared across independent requests
// (two analyses on one replica overlap in run keys), so before this
// contract a single canceled client turned a healthy peer's request into a
// non-retryable 500.
func TestSingleflightCanceledLeadDoesNotPoisonFollower(t *testing.T) {
	cfg := machine.TinyTest()
	prog := testProg(t, cfg, "app", 2, 2)
	c := New(Options{})

	leadCtx, cancelLead := context.WithCancel(context.Background())
	leadStarted := make(chan struct{})
	leadDone := make(chan error, 1)
	go func() {
		_, _, err := c.GetOrRun(leadCtx, cfg, prog, func(ctx context.Context) (*sim.Result, error) {
			close(leadStarted)
			<-ctx.Done() // simulate a run aborted by the caller vanishing
			return nil, fmt.Errorf("sim: run stopped: %w", ctx.Err())
		})
		leadDone <- err
	}()
	<-leadStarted

	// The follower joins the in-flight run, then the leader is canceled.
	followDone := make(chan error, 1)
	var followRan atomic.Bool
	go func() {
		_, _, err := c.GetOrRun(context.Background(), cfg, prog, func(ctx context.Context) (*sim.Result, error) {
			followRan.Store(true)
			return sim.RunContext(ctx, cfg, prog)
		})
		followDone <- err
	}()
	// Give the follower a moment to join the flight, then kill the leader.
	waitForInflight(t, c)
	cancelLead()

	if err := <-leadDone; !errors.Is(err, context.Canceled) {
		t.Fatalf("leader error = %v, want its own cancellation", err)
	}
	if err := <-followDone; err != nil {
		t.Fatalf("follower inherited the leader's cancellation: %v", err)
	}
	if !followRan.Load() {
		t.Fatal("follower never re-ran the work itself")
	}

	// A follower whose OWN context is dead still reports its cancellation.
	deadCtx, cancelDead := context.WithCancel(context.Background())
	cancelDead()
	_, _, err := c.GetOrRun(deadCtx, cfg, prog, func(ctx context.Context) (*sim.Result, error) {
		return nil, fmt.Errorf("stub: %w", ctx.Err())
	})
	if err != nil && !errors.Is(err, context.Canceled) {
		t.Fatalf("dead-context caller got %v", err)
	}

	// Deterministic failures still propagate to followers un-retried
	// (TestSingleflightErrorNotCached covers the sequential variant).
	boom := errors.New("boom")
	prog2 := testProg(t, cfg, "app2", 2, 2)
	if _, _, err := c.GetOrRun(context.Background(), cfg, prog2, func(ctx context.Context) (*sim.Result, error) {
		return nil, boom
	}); !errors.Is(err, boom) {
		t.Fatalf("hard failure = %v, want boom", err)
	}
}

// waitForInflight spins until the cache has an in-flight entry with a
// waiter attached — close enough for the race being staged.
func waitForInflight(t *testing.T, c *Cache) {
	t.Helper()
	// The follower's join is not externally observable, so settle for the
	// flight existing plus a scheduling yield.
	for i := 0; i < 1000; i++ {
		c.mu.Lock()
		n := len(c.inflight)
		c.mu.Unlock()
		if n > 0 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(10 * time.Millisecond)
}

// TestLookupMemoryTierOnly: Lookup answers from memory alone. It counts one
// memory hit per hit, exactly as GetOrRunKey's memory tier does, and hands
// out a mutation-safe clone; a miss counts nothing, loads no spill file and
// never waits on an in-flight simulation.
func TestLookupMemoryTierOnly(t *testing.T) {
	c, get, runs, mt := oneEntryCache(t, t.TempDir())
	ctx := obs.NewContext(context.Background(), &obs.Observer{Metrics: mt})
	cfg := machine.TinyTest()
	key := func(i int) Key { return KeyFor(cfg, testProg(t, cfg, fmt.Sprintf("app%d", i), 2, 2)) }
	memHits := func() uint64 { return mt.Counter("scaltool_runcache_hits_total", "", "tier", "mem").Value() }
	diskHits := func() uint64 { return mt.Counter("scaltool_runcache_hits_total", "", "tier", "disk").Value() }

	if _, ok := c.Lookup(ctx, key(0)); ok || memHits() != 0 {
		t.Fatal("Lookup hit an empty cache")
	}
	want, _ := get(0)
	got, ok := c.Lookup(ctx, key(0))
	if !ok || memHits() != 1 || !bytes.Equal(encode(t, got), encode(t, want)) {
		t.Fatalf("Lookup of a resident entry: hit %v, %d memory hits; want the entry and one hit", ok, memHits())
	}
	got.Report.PerProc[0][0]++ // the caller's copy is its own
	if again, _ := c.Lookup(ctx, key(0)); !bytes.Equal(encode(t, again), encode(t, want)) {
		t.Fatal("mutating a Lookup result corrupted the cached entry")
	}

	get(1) // the one-entry budget spills entry 0 to disk
	hits := memHits()
	if _, ok := c.Lookup(ctx, key(0)); ok || memHits() != hits || diskHits() != 0 {
		t.Fatalf("Lookup of a spilled entry: hit %v, memory hits %d → %d, disk hits %d; want a miss that touches no tier", ok, hits, memHits(), diskHits())
	}
	if _, hit := get(0); !hit || diskHits() != 1 {
		t.Fatal("GetOrRunKey did not load the spilled entry Lookup missed")
	}

	// An in-flight key is a miss: Lookup joins no flight.
	started, release := make(chan struct{}), make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		c.GetOrRunKey(ctx, key(7), func(context.Context) (*sim.Result, error) {
			close(started)
			<-release
			return want, nil
		})
	}()
	<-started
	if _, ok := c.Lookup(ctx, key(7)); ok {
		t.Fatal("Lookup hit a key whose simulation is still in flight")
	}
	close(release)
	<-done
	if *runs != 2 {
		t.Fatalf("%d simulations, want 2", *runs)
	}
}
