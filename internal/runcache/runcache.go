package runcache

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"strconv"
	"sync"

	"scaltool/internal/machine"
	"scaltool/internal/obs"
	"scaltool/internal/sim"
)

// RunFunc produces the result for a cache miss: it runs in the key's
// singleflight leader, after the disk tier has missed too — normally
// sim.RunContext, or the campaign's build-then-simulate of one run.
type RunFunc func(ctx context.Context) (*sim.Result, error)

// Options configures a Cache.
type Options struct {
	// MaxBytes is the in-memory byte budget (Result.SizeEstimate units).
	// <= 0 selects DefaultMaxBytes. A single entry larger than the budget
	// is returned to the caller but not retained.
	MaxBytes int64
	// SpillDir, when non-empty, enables disk spill: entries evicted from
	// memory are written there (one file per key, once) and reloaded on the
	// next miss instead of re-simulating. The directory is created on first use;
	// campaigns typically point it under the journal directory. Every spill
	// file carries a CRC-32C frame (see spill.go); entries that fail the
	// check on load are quarantined under SpillDir/quarantine and treated as
	// misses.
	SpillDir string
}

// DefaultMaxBytes is the in-memory budget when Options.MaxBytes is unset.
const DefaultMaxBytes = 256 << 20

// Cache is a content-addressed result cache: LRU over Key with a byte
// budget, singleflight deduplication of concurrent identical requests, and
// optional disk spill. Safe for concurrent use.
type Cache struct {
	maxBytes int64
	spillDir string

	mu       sync.Mutex
	ll       *list.List // front = most recent
	items    map[Key]*list.Element
	bytes    int64
	inflight map[Key]*flight
}

// entry is one cached result with its accounting size. onDisk records that
// the result was loaded from SpillDir, so its spill file already exists and
// evicting it writes nothing.
type entry struct {
	key    Key
	res    *sim.Result
	size   int64
	onDisk bool
}

// flight is one in-progress simulation that identical requests share.
type flight struct {
	done chan struct{}
	res  *sim.Result
	err  error
}

// New builds a cache.
func New(opts Options) *Cache {
	if opts.MaxBytes <= 0 {
		opts.MaxBytes = DefaultMaxBytes
	}
	return &Cache{
		maxBytes: opts.MaxBytes,
		spillDir: opts.SpillDir,
		ll:       list.New(),
		items:    map[Key]*list.Element{},
		inflight: map[Key]*flight{},
	}
}

// Stats is a point-in-time snapshot of the cache's occupancy.
type Stats struct {
	Entries int
	Bytes   int64
}

// Stats returns the current occupancy.
func (c *Cache) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{Entries: c.ll.Len(), Bytes: c.bytes}
}

// GetOrRun is GetOrRunKey under prog's content key, KeyFor(cfg, prog).
func (c *Cache) GetOrRun(ctx context.Context, cfg machine.Config, prog *sim.Program, run RunFunc) (res *sim.Result, hit bool, err error) {
	if c == nil {
		out, err := run(ctx)
		return out, false, err
	}
	return c.GetOrRunKey(ctx, KeyFor(cfg, prog), run)
}

// GetOrRunKey returns the result for the run whose content key is key,
// executing run at most once per key no matter how many callers ask
// concurrently. The key must be KeyFor of the program run simulates; a
// caller that already knows it (internal/recipe) skips the hash. The returned
// Result is a mutation-safe clone (Result.Clone): callers may rewrite its
// counter report freely without corrupting the cached copy. hit reports
// whether a simulation was avoided — by the memory tier, the disk tier, or
// by joining another caller's in-flight run.
//
// Errors are never cached: a failed or canceled run is re-attempted by the
// next request for the same key. A nil *Cache runs every request directly.
func (c *Cache) GetOrRunKey(ctx context.Context, key Key, run RunFunc) (res *sim.Result, hit bool, err error) {
	if c == nil {
		out, err := run(ctx)
		return out, false, err
	}
	mt := obs.Meter(ctx)

	// One flight allocation serves every lap of the loop below: a lap that
	// hits the memory tier or joins another flight returns without touching
	// it, and a lap that becomes leader consumes it exactly once.
	fresh := &flight{done: make(chan struct{})}
	for {
		c.mu.Lock()
		if out := c.resident(key); out != nil {
			c.mu.Unlock()
			return memHit(out, mt), true, nil
		}
		// Join an in-flight identical request.
		if fl, ok := c.inflight[key]; ok {
			c.mu.Unlock()
			select {
			case <-fl.done:
			case <-ctx.Done():
				return nil, false, ctx.Err()
			}
			if fl.err != nil {
				// The leader failed; its error is not cached. A
				// deterministic failure is reported rather than retried
				// (repeating it would spin) — but a leader that died of
				// ITS OWN context must not poison a follower whose
				// context is still live. Flights are shared across
				// independent requests (concurrent analyses on one
				// replica overlap in run keys), so "the leader was
				// canceled" says nothing about this caller: take another
				// lap and become — or join — a fresh flight.
				if errors.Is(fl.err, context.Canceled) || errors.Is(fl.err, context.DeadlineExceeded) {
					if ctx.Err() != nil {
						return nil, false, ctx.Err()
					}
					if mt != nil {
						mt.Counter("scaltool_runcache_lead_retries_total", "flights retaken after a leader died of its own cancellation").Inc()
					}
					continue
				}
				return nil, false, fl.err
			}
			if mt != nil {
				mt.Counter("scaltool_runcache_shared_total", "requests served by joining another request's in-flight simulation").Inc()
			}
			return fl.res.Clone(), true, nil
		}
		// Become the leader for this key.
		fl := fresh
		c.inflight[key] = fl
		c.mu.Unlock()

		return c.lead(ctx, key, fl, run, mt)
	}
}

// Lookup returns the result for key when the memory tier holds it: a
// mutation-safe clone, counted as one memory hit exactly as GetOrRunKey's
// memory tier counts it. It reads no spill file and joins no flight, so it
// never blocks on another request's simulation. On a miss it counts nothing
// and the caller takes GetOrRunKey; an entry evicted in between is just a
// miss there too. A nil *Cache always misses.
func (c *Cache) Lookup(ctx context.Context, key Key) (*sim.Result, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	out := c.resident(key)
	c.mu.Unlock()
	if out == nil {
		return nil, false
	}
	return memHit(out, obs.Meter(ctx)), true
}

// resident is the memory tier under c.mu: key's cached result, marked most
// recently used, or nil.
func (c *Cache) resident(key Key) *sim.Result {
	el, ok := c.items[key]
	if !ok {
		return nil
	}
	c.ll.MoveToFront(el)
	return el.Value.(*entry).res
}

// memHit counts one memory-tier hit and clones the cached result for the
// caller.
func memHit(out *sim.Result, mt *obs.Metrics) *sim.Result {
	if mt != nil {
		mt.Counter("scaltool_runcache_hits_total", "run-cache hits by tier", "tier", "mem").Inc()
	}
	return out.Clone()
}

// lead executes the miss path as the key's singleflight leader: disk tier,
// then a real simulation, then publication to waiters and the LRU.
func (c *Cache) lead(ctx context.Context, key Key, fl *flight, run RunFunc, mt *obs.Metrics) (*sim.Result, bool, error) {
	// A panicking leader must still publish to its waiters: without this,
	// every request joined on the flight would block forever on fl.done and
	// the key would stay "in flight" until process restart. The panic itself
	// propagates to the caller (the campaign's worker recovery isolates it).
	published := false
	defer func() {
		if r := recover(); r != nil {
			if !published {
				c.mu.Lock()
				delete(c.inflight, key)
				c.mu.Unlock()
				fl.err = fmt.Errorf("runcache: singleflight leader panicked: %v", r)
				close(fl.done)
			}
			panic(r)
		}
	}()

	out, diskHit := c.loadSpill(key, mt)
	var err error
	if out == nil {
		out, err = run(ctx)
	}

	fl.res, fl.err = out, err
	c.mu.Lock()
	delete(c.inflight, key)
	var evicted []*entry
	if err == nil && out != nil {
		evicted = c.insert(key, out, diskHit)
	}
	c.mu.Unlock()
	close(fl.done)
	published = true

	// Spill evictions outside the lock: disk I/O must not stall readers.
	// An entry with a spill copy already on disk is not rewritten.
	for _, ev := range evicted {
		spilled := ev.onDisk
		if !spilled {
			spilled = c.writeSpill(ev.key, ev.res)
			if spilled && mt != nil {
				mt.Counter("scaltool_runcache_spill_writes_total", "spill files written").Inc()
			}
		}
		if mt != nil {
			mt.Counter("scaltool_runcache_evictions_total", "run-cache LRU evictions",
				"spilled", strconv.FormatBool(spilled)).Inc()
		}
	}

	if err != nil {
		return nil, false, err
	}
	if mt != nil {
		if diskHit {
			mt.Counter("scaltool_runcache_hits_total", "run-cache hits by tier", "tier", "disk").Inc()
		} else {
			mt.Counter("scaltool_runcache_misses_total", "run-cache misses (a real simulation ran)").Inc()
		}
		st := c.Stats()
		mt.Gauge("scaltool_runcache_bytes", "run-cache resident bytes (estimate)").Set(float64(st.Bytes))
		mt.Gauge("scaltool_runcache_entries", "run-cache resident entries").Set(float64(st.Entries))
	}
	return out.Clone(), diskHit, nil
}

// insert adds a result under c.mu, evicting past the byte budget; the
// caller spills the returned evictions after releasing the lock. onDisk
// says the result was loaded from its spill file.
func (c *Cache) insert(key Key, res *sim.Result, onDisk bool) (evicted []*entry) {
	if _, dup := c.items[key]; dup {
		return nil
	}
	size := res.SizeEstimate()
	if size > c.maxBytes {
		return nil // would evict everything and still not fit
	}
	c.items[key] = c.ll.PushFront(&entry{key: key, res: res, size: size, onDisk: onDisk})
	c.bytes += size
	for c.bytes > c.maxBytes {
		el := c.ll.Back()
		if el == nil {
			break
		}
		ev := el.Value.(*entry)
		c.ll.Remove(el)
		delete(c.items, ev.key)
		c.bytes -= ev.size
		evicted = append(evicted, ev)
	}
	return evicted
}

// spillPath returns the on-disk location of a key, or "" without spill.
func (c *Cache) spillPath(key Key) string {
	if c.spillDir == "" {
		return ""
	}
	return filepath.Join(c.spillDir, key.String()+".spill")
}
