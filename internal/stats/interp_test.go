package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestInterpolatorBasics(t *testing.T) {
	in, err := NewInterpolator([]Point{{X: 0, Y: 0}, {X: 10, Y: 100}})
	if err != nil {
		t.Fatalf("NewInterpolator: %v", err)
	}
	if got := in.At(5); got != 50 {
		t.Fatalf("At(5) = %g, want 50", got)
	}
	if got := in.At(0); got != 0 {
		t.Fatalf("At(0) = %g, want 0", got)
	}
	if got := in.At(10); got != 100 {
		t.Fatalf("At(10) = %g, want 100", got)
	}
}

func TestInterpolatorClampsOutsideRange(t *testing.T) {
	in, _ := NewInterpolator([]Point{{X: 1, Y: 10}, {X: 2, Y: 20}})
	if got := in.At(0); got != 10 {
		t.Fatalf("At(0) = %g, want clamp to 10", got)
	}
	if got := in.At(3); got != 20 {
		t.Fatalf("At(3) = %g, want clamp to 20", got)
	}
}

func TestInterpolatorSinglePoint(t *testing.T) {
	in, _ := NewInterpolator([]Point{{X: 4, Y: 7}})
	for _, x := range []float64{-1, 4, 100} {
		if got := in.At(x); got != 7 {
			t.Fatalf("At(%g) = %g, want 7", x, got)
		}
	}
}

func TestInterpolatorUnsortedAndDuplicates(t *testing.T) {
	in, err := NewInterpolator([]Point{{X: 2, Y: 20}, {X: 1, Y: 8}, {X: 1, Y: 12}})
	if err != nil {
		t.Fatalf("NewInterpolator: %v", err)
	}
	// Duplicate X=1 averaged to Y=10.
	if got := in.At(1); got != 10 {
		t.Fatalf("At(1) = %g, want average 10", got)
	}
	if got := in.At(1.5); got != 15 {
		t.Fatalf("At(1.5) = %g, want 15", got)
	}
	if pts := in.Points(); len(pts) != 2 {
		t.Fatalf("Points() = %v, want 2 deduplicated points", pts)
	}
}

func TestInterpolatorEmpty(t *testing.T) {
	if _, err := NewInterpolator(nil); err == nil {
		t.Fatal("want error for empty sample set")
	}
}

func TestArgMaxY(t *testing.T) {
	in, _ := NewInterpolator([]Point{{X: 1, Y: 0.8}, {X: 2, Y: 0.95}, {X: 3, Y: 0.9}})
	if got := in.ArgMaxY(); got.X != 2 || got.Y != 0.95 {
		t.Fatalf("ArgMaxY = %+v, want {2 0.95}", got)
	}
}

func TestArgMaxYTieBreaksTowardSmallX(t *testing.T) {
	in, _ := NewInterpolator([]Point{{X: 1, Y: 0.9}, {X: 2, Y: 0.9}})
	if got := in.ArgMaxY(); got.X != 1 {
		t.Fatalf("ArgMaxY tie = %+v, want X=1", got)
	}
}

// Property: interpolated values never escape [minY, maxY] of the samples.
func TestInterpolatorBoundedProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(8)
		pts := make([]Point, n)
		minY, maxY := math.Inf(1), math.Inf(-1)
		for i := range pts {
			pts[i] = Point{X: rng.Float64() * 100, Y: rng.Float64()}
			minY = math.Min(minY, pts[i].Y)
			maxY = math.Max(maxY, pts[i].Y)
		}
		in, err := NewInterpolator(pts)
		if err != nil {
			return false
		}
		for i := 0; i < 50; i++ {
			x := rng.Float64()*140 - 20
			y := in.At(x)
			if y < minY-1e-12 || y > maxY+1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: At reproduces every sample point exactly (after dedup-averaging,
// when all X are distinct).
func TestInterpolatorPassesThroughSamples(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(10)
		xs := rng.Perm(1000)[:n] // distinct integers → distinct X
		pts := make([]Point, n)
		for i := range pts {
			pts[i] = Point{X: float64(xs[i]), Y: rng.Float64() * 10}
		}
		in, err := NewInterpolator(pts)
		if err != nil {
			return false
		}
		sort.Slice(pts, func(i, j int) bool { return pts[i].X < pts[j].X })
		for _, p := range pts {
			if math.Abs(in.At(p.X)-p.Y) > 1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestClamp(t *testing.T) {
	if Clamp(5, 0, 3) != 3 || Clamp(-1, 0, 3) != 0 || Clamp(2, 0, 3) != 2 {
		t.Fatal("Clamp misbehaves")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Clamp with inverted bounds should panic")
		}
	}()
	Clamp(0, 3, 1)
}
