package cache

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"scaltool/internal/machine"
)

// modelCache is an oracle implementation of Cache semantics: per-set slices
// of (line, state) kept explicitly MRU-first. It exists to cross-check the
// packed flat-slot implementation under install/invalidate storms — the
// class of bug where a vacated way keeps a stale slot value (the Invalidate
// tail bug) shows up here as a ForEach or Lookup divergence.
type modelCache struct {
	sets  [][]modelWay
	assoc int
	c     *Cache // for the line→set mapping, which is shared machinery
}

type modelWay struct {
	line uint64
	st   State
}

func newModel(c *Cache, cfg machine.CacheConfig) *modelCache {
	return &modelCache{sets: make([][]modelWay, cfg.Sets()), assoc: cfg.Assoc, c: c}
}

func (m *modelCache) set(line uint64) *[]modelWay { return &m.sets[m.c.SetOf(line)] }

func (m *modelCache) findIn(s []modelWay, line uint64) int {
	for i, w := range s {
		if w.line == line {
			return i
		}
	}
	return -1
}

// insert installs a non-resident line at MRU, displacing the LRU way of a
// full set.
func (m *modelCache) insert(line uint64, st State) (Eviction, bool) {
	s := m.set(line)
	if len(*s) == m.assoc {
		victim := (*s)[len(*s)-1]
		*s = append([]modelWay{{line, st}}, (*s)[:len(*s)-1]...)
		return Eviction{Line: victim.line, State: victim.st}, true
	}
	*s = append([]modelWay{{line, st}}, *s...)
	return Eviction{}, false
}

func (m *modelCache) touch(line uint64) (State, bool) {
	s := m.set(line)
	i := m.findIn(*s, line)
	if i < 0 {
		return Invalid, false
	}
	w := (*s)[i]
	*s = append((*s)[:i], (*s)[i+1:]...)
	*s = append([]modelWay{w}, *s...)
	return w.st, true
}

func (m *modelCache) invalidate(line uint64) (State, bool) {
	s := m.set(line)
	i := m.findIn(*s, line)
	if i < 0 {
		return Invalid, false
	}
	prev := (*s)[i].st
	*s = append((*s)[:i], (*s)[i+1:]...)
	return prev, true
}

func (m *modelCache) downgrade(line uint64) (State, bool) {
	s := m.set(line)
	i := m.findIn(*s, line)
	if i < 0 {
		return Invalid, false
	}
	prev := (*s)[i].st
	if prev == Modified || prev == Exclusive {
		(*s)[i].st = Shared
	}
	return prev, true
}

func (m *modelCache) lookup(line uint64) (State, bool) {
	s := *m.set(line)
	if i := m.findIn(s, line); i >= 0 {
		return s[i].st, true
	}
	return Invalid, false
}

func (m *modelCache) setState(line uint64, st State) bool {
	s := *m.set(line)
	i := m.findIn(s, line)
	if i < 0 {
		return false
	}
	s[i].st = st
	return true
}

// dump flattens the model in the same deterministic order ForEach promises:
// set-major, MRU-first.
func (m *modelCache) dump() []modelWay {
	var out []modelWay
	for _, s := range m.sets {
		out = append(out, s...)
	}
	return out
}

// diff compares c's complete observable state — the exact ForEach
// enumeration and Resident — with the model's, describing the first
// difference, or "" when there is none.
func (m *modelCache) diff(c *Cache) string {
	want := m.dump()
	var got []modelWay
	c.ForEach(func(l uint64, st State) { got = append(got, modelWay{l, st}) })
	for j := 0; j < len(got) && j < len(want); j++ {
		if got[j] != want[j] {
			return fmt.Sprintf("ForEach[%d] = %+v, model %+v", j, got[j], want[j])
		}
	}
	if len(got) != len(want) {
		return fmt.Sprintf("ForEach yielded %d lines, model %d", len(got), len(want))
	}
	if c.Resident() != len(want) {
		return fmt.Sprintf("holds %d lines, Resident() %d", len(want), c.Resident())
	}
	return ""
}

// TestCacheMatchesModelProperty drives the packed implementation and the
// oracle through the same random storm of the steps the hierarchy runs —
// probes, installs after a missing probe, state changes, invalidations,
// downgrades — and lookups, comparing every return value and — after
// every step — the complete observable state (Resident plus the exact
// ForEach enumeration). Regression coverage for the Invalidate stale-tail
// bug: leaving a vacated way's old slot value behind makes the enumerations
// diverge on the next aliasing install.
func TestCacheMatchesModelProperty(t *testing.T) {
	cfg := machine.CacheConfig{SizeBytes: 512, LineBytes: 16, Assoc: 2}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := New(cfg, 64)
		m := newModel(c, cfg)
		for i := 0; i < 2000; i++ {
			line := uint64(rng.Intn(96)) // ~6 lines per set: constant aliasing pressure
			switch rng.Intn(7) {
			case 0, 1, 2:
				st, ok, b, free := probe(c, line)
				wantSt, wantOK := m.touch(line)
				if st != wantSt || ok != wantOK {
					t.Logf("seed %d step %d: probeAt(%d) = %v,%v; model %v,%v", seed, i, line, st, ok, wantSt, wantOK)
					return false
				}
				if ok || rng.Intn(3) == 0 {
					break // a probe alone: a hit's reorder, or a miss nothing fills
				}
				st = State(1 + rng.Intn(3))
				ev, ok := c.installAt(b, free, line, st)
				wantEv, wantOK := m.insert(line, st)
				if ev != wantEv || ok != wantOK {
					t.Logf("seed %d step %d: installAt(%d,%v) = %+v,%v; model %+v,%v",
						seed, i, line, st, ev, ok, wantEv, wantOK)
					return false
				}
			case 3:
				st, ok := c.Invalidate(line)
				wantSt, wantOK := m.invalidate(line)
				if st != wantSt || ok != wantOK {
					t.Logf("seed %d step %d: Invalidate(%d) mismatch", seed, i, line)
					return false
				}
			case 4:
				st, ok := c.Downgrade(line)
				wantSt, wantOK := m.downgrade(line)
				if st != wantSt || ok != wantOK {
					t.Logf("seed %d step %d: Downgrade(%d) mismatch", seed, i, line)
					return false
				}
			case 5:
				st := State(1 + rng.Intn(3))
				if got, want := c.setStateIfResident(line, st), m.setState(line, st); got != want {
					t.Logf("seed %d step %d: setStateIfResident(%d) = %v, model %v", seed, i, line, got, want)
					return false
				}
			case 6:
				st, ok := c.Lookup(line)
				wantSt, wantOK := m.lookup(line)
				if st != wantSt || ok != wantOK {
					t.Logf("seed %d step %d: Lookup(%d) mismatch", seed, i, line)
					return false
				}
			}
			if d := m.diff(c); d != "" {
				t.Logf("seed %d step %d: %s", seed, i, d)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
