package cache

import (
	"math/rand"
	"testing"
	"testing/quick"

	"scaltool/internal/machine"
)

func tinyCache() *Cache {
	// 4 sets × 2 ways, 16-byte lines.
	return New(machine.CacheConfig{SizeBytes: 128, LineBytes: 16, Assoc: 2}, 64)
}

// probe is probeAt on line's own set: the hit/miss half of an access, as
// the hierarchy runs it. On a miss it also returns the set base and first
// free slot install takes.
func probe(c *Cache, line uint64) (st State, ok bool, b, free int) {
	b = c.base(line)
	st, ok, free = c.probeAt(b, line)
	return st, ok, b, free
}

// install is the miss half of an access: probe, then installAt the free slot
// the probe reported. The line must not be resident.
func install(t testing.TB, c *Cache, line uint64, st State) (Eviction, bool) {
	t.Helper()
	_, ok, b, free := probe(c, line)
	if ok {
		t.Fatalf("install of resident line %d", line)
	}
	return c.installAt(b, free, line, st)
}

func TestInsertLookup(t *testing.T) {
	c := tinyCache()
	if _, ok := c.Lookup(1); ok {
		t.Fatal("empty cache claims residency")
	}
	if _, ev := install(t, c, 1, Exclusive); ev {
		t.Fatal("insert into empty set evicted")
	}
	st, ok := c.Lookup(1)
	if !ok || st != Exclusive {
		t.Fatalf("Lookup(1) = %v,%v; want E,true", st, ok)
	}
	if c.Resident() != 1 {
		t.Fatalf("Resident = %d, want 1", c.Resident())
	}
}

// aliasingLines returns k distinct lines that all map to the same set of c.
func aliasingLines(c *Cache, k int) []uint64 {
	want := c.SetOf(0)
	out := []uint64{0}
	for l := uint64(1); len(out) < k; l++ {
		if c.SetOf(l) == want {
			out = append(out, l)
		}
	}
	return out
}

func TestLRUEviction(t *testing.T) {
	c := tinyCache()
	ls := aliasingLines(c, 3) // assoc 2: inserting the third evicts the first
	install(t, c, ls[0], Shared)
	install(t, c, ls[1], Shared)
	ev, ok := install(t, c, ls[2], Shared)
	if !ok || ev.Line != ls[0] {
		t.Fatalf("evicted %+v,%v; want line %d", ev, ok, ls[0])
	}
	if _, ok := c.Lookup(ls[0]); ok {
		t.Fatal("LRU line still resident after eviction")
	}
}

// TestTouchRefreshesLRU: a probe that hits moves its line to MRU, so the
// other way of the set becomes the next victim.
func TestTouchRefreshesLRU(t *testing.T) {
	c := tinyCache()
	ls := aliasingLines(c, 3)
	install(t, c, ls[0], Shared)
	install(t, c, ls[1], Exclusive)
	if st, ok, _, _ := probe(c, ls[0]); !ok || st != Shared { // a hit: now ls[1] is LRU
		t.Fatalf("probe(%d) = %v,%v; want S,true", ls[0], st, ok)
	}
	ev, ok := install(t, c, ls[2], Shared)
	if !ok || ev != (Eviction{Line: ls[1], State: Exclusive}) {
		t.Fatalf("evicted %+v,%v; want line %d in E after the hit", ev, ok, ls[1])
	}
}

func TestInvalidate(t *testing.T) {
	c := tinyCache()
	install(t, c, 7, Modified)
	st, ok := c.Invalidate(7)
	if !ok || st != Modified {
		t.Fatalf("Invalidate = %v,%v; want M,true", st, ok)
	}
	if c.Resident() != 0 {
		t.Fatal("resident after invalidate")
	}
	if _, ok := c.Invalidate(7); ok {
		t.Fatal("double invalidate reported residency")
	}
}

func TestDowngrade(t *testing.T) {
	c := tinyCache()
	install(t, c, 3, Modified)
	prev, ok := c.Downgrade(3)
	if !ok || prev != Modified {
		t.Fatalf("Downgrade = %v,%v", prev, ok)
	}
	if st, _ := c.Lookup(3); st != Shared {
		t.Fatalf("state after downgrade = %v, want S", st)
	}
	// Downgrading a Shared line is a no-op.
	prev, _ = c.Downgrade(3)
	if prev != Shared {
		t.Fatalf("second downgrade prev = %v, want S", prev)
	}
}

func TestForEachDeterministic(t *testing.T) {
	c := tinyCache()
	install(t, c, 0, Shared)
	install(t, c, 5, Exclusive)
	install(t, c, 2, Modified)
	var got1, got2 []uint64
	c.ForEach(func(l uint64, _ State) { got1 = append(got1, l) })
	c.ForEach(func(l uint64, _ State) { got2 = append(got2, l) })
	if len(got1) != 3 {
		t.Fatalf("ForEach visited %d lines, want 3", len(got1))
	}
	for i := range got1 {
		if got1[i] != got2[i] {
			t.Fatal("ForEach order not deterministic")
		}
	}
}

func TestStateString(t *testing.T) {
	for st, want := range map[State]string{Invalid: "I", Shared: "S", Exclusive: "E", Modified: "M"} {
		if st.String() != want {
			t.Errorf("%d.String() = %q, want %q", st, st.String(), want)
		}
	}
	if MissCompulsory.String() != "compulsory" || MissCoherence.String() != "coherence" || MissConflict.String() != "conflict" {
		t.Error("MissKind strings wrong")
	}
}

// Property: resident count never exceeds capacity, and every resident line
// was installed and not since evicted or invalidated.
func TestCacheCapacityProperty(t *testing.T) {
	cfg := machine.CacheConfig{SizeBytes: 256, LineBytes: 16, Assoc: 2}
	capacity := cfg.Lines()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := New(cfg, 64)
		shadow := map[uint64]State{} // possibly stale superset tracking
		for i := 0; i < 500; i++ {
			line := uint64(rng.Intn(64))
			switch rng.Intn(3) {
			case 0:
				st := State(1 + rng.Intn(3))
				if _, ok, b, free := probe(c, line); !ok {
					if ev, ok := c.installAt(b, free, line, st); ok {
						delete(shadow, ev.Line)
					}
					shadow[line] = st
				}
			case 1:
				probe(c, line)
			case 2:
				c.Invalidate(line)
				delete(shadow, line)
			}
			if c.Resident() > capacity {
				return false
			}
			// Everything the cache reports resident must be in shadow with
			// a matching-or-upgraded state.
			bad := false
			c.ForEach(func(l uint64, st State) {
				if _, ok := shadow[l]; !ok {
					bad = true
				}
			})
			if bad {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
