// Package recipe is the process-local table in front of the run cache that
// lets a warm request price and key its runs without building or hashing a
// single program.
//
// The run cache (internal/runcache) is content-addressed: a run's key is a
// SHA-256 over the built program's full op and address lists. Deriving it
// means building the program and hashing it, and admission pricing builds
// the same program again to walk its ops. Yet every built-in application's
// Build is a pure function of a small comparable input — the run's
// *recipe*: the application including its parameters, the machine
// configuration, the build kind, the processor count, the requested size
// and the kernel parameters. The table maps each recipe to what its first
// build produced (the content key, the op census admission prices, or the
// build error), so later requests for the same recipe build nothing.
//
// The table is an optimization inside one process only. Nothing about it is
// persisted, the run cache stays keyed by content, and a spill directory
// written before the table existed stays valid. It holds at most Capacity
// entries, evicting the least recently used, so no stream of distinct
// requests can grow it.
//
// A request's first sight of a recipe is usually admission pricing, and its
// run follows at once and misses the run cache. So the program pricing
// built is not dropped: Keep puts it in the request's hold, carried on the
// request's context, and the run's Take hands it over instead of building
// it again. A hold lives and dies with its request, so it holds at most
// that request's own programs.
package recipe

import (
	"container/list"
	"context"
	"fmt"
	"sync"

	"scaltool/internal/apps"
	"scaltool/internal/machine"
	"scaltool/internal/obs"
	"scaltool/internal/runcache"
	"scaltool/internal/sim"
)

// Identifier is implemented by applications whose Build output is a pure
// function of (Identity(), cfg, procs, dataBytes). Identity returns a
// comparable value that changes whenever anything Build reads changes — for
// the built-in applications, the app struct itself, Params included. An
// application without it is never tabled, and is rebuilt on every request.
type Identifier interface {
	Identity() any
}

// kind is what a recipe builds. A campaign's base and uniprocessor runs are
// both app builds: at one processor count and size they are one program.
type kind uint8

const (
	appBuild   kind = iota // an application program
	syncKernel             // the §2.4.2 barrier-loop kernel
	spinKernel             // the §2.4.2 idle-spin kernel
)

// Build causes: the cause label of scaltool_program_builds_total.
const (
	// CauseRecipe is the first sight of a recipe: the table builds once to
	// derive the key and census it then serves.
	CauseRecipe = "recipe"
	// CauseMiss is a run-cache miss: the simulator needs the program itself.
	CauseMiss = "miss"
	// CauseGraph is the structure graph of an uncached /v1/diagnose.
	CauseGraph = "graph"
)

// Recipe is everything one program build reads. Build it with ForApp,
// ForSyncKernel or ForSpinKernel.
type Recipe struct {
	app apps.App // the builder of app recipes
	id  id
	// tabled is false for applications without an identity: they are built
	// and keyed on every request, as before the table existed.
	tabled bool
}

// id is a recipe's comparable table key.
type id struct {
	app      any // Identifier value (app builds only)
	cfg      machine.Config
	kind     kind
	procs    int
	size     uint64 // requested data-set size (app builds)
	barriers int    // sync kernel
	phases   int    // spin kernel
	work     uint64 // spin kernel
}

// ForApp is the recipe of app's program at procs processors and the
// requested size. Applications that do not implement Identifier are never
// tabled.
func ForApp(app apps.App, cfg machine.Config, procs int, size uint64) Recipe {
	r := Recipe{app: app, id: id{cfg: cfg, kind: appBuild, procs: procs, size: size}}
	if a, ok := app.(Identifier); ok {
		r.id.app, r.tabled = a.Identity(), true
	}
	return r
}

// ForSyncKernel is the recipe of apps.BuildSyncKernel.
func ForSyncKernel(cfg machine.Config, procs, barriers int) Recipe {
	return Recipe{id: id{cfg: cfg, kind: syncKernel, procs: procs, barriers: barriers}, tabled: true}
}

// ForSpinKernel is the recipe of apps.BuildSpinKernel.
func ForSpinKernel(cfg machine.Config, procs, phases int, work uint64) Recipe {
	return Recipe{id: id{cfg: cfg, kind: spinKernel, procs: procs, phases: phases, work: work}, tabled: true}
}

// Build builds the recipe's program, counting the build under cause in the
// scaltool_program_builds_total series of ctx's observer.
func (r Recipe) Build(ctx context.Context, cause string) (*sim.Program, error) {
	if mt := obs.Meter(ctx); mt != nil {
		mt.Counter("scaltool_program_builds_total", "program builds by cause: first sight of a recipe, a run-cache miss, or a diagnosis structure graph",
			"cause", cause).Inc()
	}
	switch r.id.kind {
	case syncKernel:
		return apps.BuildSyncKernel(r.id.cfg, r.id.procs, r.id.barriers)
	case spinKernel:
		return apps.BuildSpinKernel(r.id.cfg, r.id.procs, r.id.phases, r.id.work)
	}
	return r.app.Build(r.id.cfg, r.id.procs, r.id.size)
}

// Entry is what a recipe's first build produced: the run-cache content key
// and op census of the program, or the build error (a size below the
// application's grid, say), replayed verbatim to every later request.
type Entry struct {
	Key    runcache.Key
	Census sim.Census
	Err    error
}

// derive builds the recipe and derives its entry, returning the program so
// a caller about to simulate it need not build it again.
func (r Recipe) derive(ctx context.Context) (Entry, *sim.Program) {
	prog, err := r.Build(ctx, CauseRecipe)
	if err != nil {
		return Entry{Err: err}, nil
	}
	return Entry{Key: runcache.KeyFor(r.id.cfg, prog), Census: prog.Census()}, prog
}

// Capacity bounds the entries one table holds. A 32-processor document
// needs about a dozen application recipes plus the kernels it shares with
// every other document on its machine, so the bound keeps some eighty such
// documents warm in well under a megabyte.
const Capacity = 1024

// Default is the process's table: admission and the campaign both read it,
// so a recipe is built once per process however many of them ask.
var Default = newTable(Capacity)

// Table is a fixed-capacity LRU map from recipe to entry. Concurrent
// requests for one recipe share its single build. Safe for concurrent use.
type Table struct {
	capacity int

	mu    sync.Mutex
	ll    *list.List // front = most recent; values are *slot
	items map[id]*list.Element
}

// slot is one table entry; done closes once e is final.
type slot struct {
	id   id
	done chan struct{}
	e    Entry
}

func newTable(capacity int) *Table {
	return &Table{capacity: capacity, ll: list.New(), items: map[id]*list.Element{}}
}

// hold carries the programs one request's pricing built to that request's
// runs. Safe for concurrent use.
type hold struct {
	mu    sync.Mutex
	progs map[id]*sim.Program
}

type holdKey struct{}

// WithHold returns ctx carrying a new, empty hold. The hold is dropped
// with the last context that carries it, and with it every program no run
// took.
func WithHold(ctx context.Context) context.Context {
	return context.WithValue(ctx, holdKey{}, &hold{progs: map[id]*sim.Program{}})
}

// Keep puts prog — the program Resolve just built for r — in ctx's hold
// for the run that takes it. Without a hold on ctx, or for a nil program
// or an untabled recipe, it does nothing.
func Keep(ctx context.Context, r Recipe, prog *sim.Program) {
	h, _ := ctx.Value(holdKey{}).(*hold)
	if h == nil || prog == nil || !r.tabled {
		return
	}
	h.mu.Lock()
	h.progs[r.id] = prog
	h.mu.Unlock()
}

// Take hands over the program ctx's hold keeps for r, if any; the caller
// owns it and the hold keeps it no longer.
func Take(ctx context.Context, r Recipe) *sim.Program {
	h, _ := ctx.Value(holdKey{}).(*hold)
	if h == nil {
		return nil
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	prog := h.progs[r.id]
	delete(h.progs, r.id)
	return prog
}

// Len reports the entries the table holds.
func (t *Table) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.ll.Len()
}

// Lookup returns the recipe's entry when the table already holds it in
// final form. It never builds and never waits: an untabled application, a
// recipe the table has not seen, and one whose first build is still running
// all report false, and the caller falls back to Resolve.
func (t *Table) Lookup(r Recipe) (Entry, bool) {
	if !r.tabled {
		return Entry{}, false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	el, ok := t.items[r.id]
	if !ok {
		return Entry{}, false
	}
	s := el.Value.(*slot)
	select {
	case <-s.done:
	default:
		return Entry{}, false
	}
	t.ll.MoveToFront(el)
	return s.e, true
}

// Resolve returns the recipe's entry, building the program only on the
// recipe's first sight (or for an untabled application). The program is
// returned when this call built it, nil when the entry came from the table.
func (t *Table) Resolve(ctx context.Context, r Recipe) (Entry, *sim.Program) {
	if !r.tabled {
		return r.derive(ctx)
	}
	t.mu.Lock()
	if el, ok := t.items[r.id]; ok {
		t.ll.MoveToFront(el)
		s := el.Value.(*slot)
		t.mu.Unlock()
		<-s.done
		return s.e, nil
	}
	s := &slot{id: r.id, done: make(chan struct{})}
	t.items[r.id] = t.ll.PushFront(s)
	if t.ll.Len() > t.capacity {
		old := t.ll.Back()
		t.ll.Remove(old)
		delete(t.items, old.Value.(*slot).id)
	}
	n := t.ll.Len()
	t.mu.Unlock()
	if mt := obs.Meter(ctx); mt != nil {
		mt.Gauge("scaltool_recipe_entries", "recipe-table entries (program builds a warm request skips)").Set(float64(n))
	}

	// A panicking build must still release its waiters, and must not leave
	// a half-made entry behind for the next request to trust. The panic
	// itself propagates (the campaign's worker recovery isolates it).
	built := false
	defer func() {
		if built {
			return
		}
		v := recover()
		t.mu.Lock()
		if el, ok := t.items[r.id]; ok && el.Value.(*slot) == s {
			t.ll.Remove(el)
			delete(t.items, r.id)
		}
		t.mu.Unlock()
		s.e = Entry{Err: fmt.Errorf("recipe: build panicked: %v", v)}
		close(s.done)
		panic(v)
	}()
	e, prog := r.derive(ctx)
	s.e = e
	built = true
	close(s.done)
	return e, prog
}
