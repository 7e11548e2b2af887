package network

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func mustNew(t *testing.T, procs, ppr, hop int) *Topology {
	t.Helper()
	top, err := New(procs, ppr, hop)
	if err != nil {
		t.Fatalf("New(%d,%d,%d): %v", procs, ppr, hop, err)
	}
	return top
}

func TestNewValidation(t *testing.T) {
	for _, c := range []struct{ procs, ppr, hop int }{
		{0, 2, 1}, {-1, 2, 1}, {4, 0, 1}, {4, 2, -1},
	} {
		if _, err := New(c.procs, c.ppr, c.hop); err == nil {
			t.Errorf("New(%d,%d,%d): want error", c.procs, c.ppr, c.hop)
		}
	}
}

func TestRouterAssignment(t *testing.T) {
	top := mustNew(t, 8, 2, 10)
	if top.Routers() != 4 || top.Dim() != 2 {
		t.Fatalf("routers=%d dim=%d, want 4/2", top.Routers(), top.Dim())
	}
	for p := 0; p < 8; p++ {
		if got, want := top.Router(p), p/2; got != want {
			t.Errorf("Router(%d) = %d, want %d", p, got, want)
		}
	}
}

func TestHopsSameRouterZero(t *testing.T) {
	top := mustNew(t, 8, 2, 10)
	if h := top.Hops(0, 1); h != 0 {
		t.Fatalf("Hops(0,1) = %d, want 0 (bristled pair)", h)
	}
	if c := top.OneWayCycles(0, 1); c != 0 {
		t.Fatalf("OneWayCycles(0,1) = %d, want 0", c)
	}
}

func TestHopsHammingDistance(t *testing.T) {
	top := mustNew(t, 16, 2, 10)
	// Routers 0..7, dim 3. Proc 0 on router 0, proc 14 on router 7: 3 hops.
	if h := top.Hops(0, 14); h != 3 {
		t.Fatalf("Hops(0,14) = %d, want 3", h)
	}
	if c := top.RoundTripCycles(0, 14); c != 60 {
		t.Fatalf("RoundTripCycles = %d, want 60", c)
	}
}

func TestUniprocessorDegenerate(t *testing.T) {
	top := mustNew(t, 1, 2, 10)
	if top.Routers() != 1 || top.Dim() != 0 {
		t.Fatalf("routers=%d dim=%d, want 1/0", top.Routers(), top.Dim())
	}
	if top.Hops(0, 0) != 0 {
		t.Fatal("self-hops must be zero")
	}
}

func TestHopsProperties(t *testing.T) {
	// Symmetry, identity, and triangle inequality — Hamming distance is a
	// metric, so the topology must inherit that.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		procs := 1 + rng.Intn(64)
		ppr := 1 + rng.Intn(4)
		top, err := New(procs, ppr, 5)
		if err != nil {
			return false
		}
		a, b, c := rng.Intn(procs), rng.Intn(procs), rng.Intn(procs)
		if top.Hops(a, a) != 0 {
			return false
		}
		if top.Hops(a, b) != top.Hops(b, a) {
			return false
		}
		if top.Hops(a, c) > top.Hops(a, b)+top.Hops(b, c) {
			return false
		}
		return top.Hops(a, b) <= top.Dim()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestOutOfRangePanics(t *testing.T) {
	top := mustNew(t, 4, 2, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("want panic for out-of-range processor")
		}
	}()
	top.Hops(0, 4)
}

func TestRoundTripIsTwiceOneWay(t *testing.T) {
	top := mustNew(t, 32, 2, 7)
	for a := 0; a < 32; a += 5 {
		for b := 0; b < 32; b += 3 {
			if top.RoundTripCycles(a, b) != 2*top.OneWayCycles(a, b) {
				t.Fatalf("RT(%d,%d) != 2*OneWay", a, b)
			}
		}
	}
}
