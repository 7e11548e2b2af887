package stats

import (
	"errors"
	"sort"

	"scaltool/internal/assert"
)

// ErrEmpty is returned by interpolation over an empty sample set.
var ErrEmpty = errors.New("stats: empty sample set")

// Point is one (x, y) sample of a sampled function, e.g. the uniprocessor L2
// hit rate as a function of data-set size.
type Point struct {
	X, Y float64
}

// Interpolator evaluates a piecewise-linear function through a set of
// sample points. The paper needs this when the application cannot be run at
// exactly the s0/n fractional data-set size: "we interpolate between the
// results of two acceptable data set sizes" (§2.4.1).
type Interpolator struct {
	pts []Point // sorted by X ascending, unique X
}

// NewInterpolator builds an interpolator from samples. Samples are copied,
// sorted by X, and duplicate X values are averaged. At least one sample is
// required.
func NewInterpolator(samples []Point) (*Interpolator, error) {
	if len(samples) == 0 {
		return nil, ErrEmpty
	}
	pts := make([]Point, len(samples))
	copy(pts, samples)
	sort.Slice(pts, func(i, j int) bool { return pts[i].X < pts[j].X })
	// Merge duplicate X by averaging Y.
	out := pts[:1]
	count := 1.0
	for _, p := range pts[1:] {
		last := &out[len(out)-1]
		if p.X == last.X { //scalvet:ignore deliberate exact-duplicate merge; near-equal X values must stay distinct samples
			count++
			last.Y += (p.Y - last.Y) / count
			continue
		}
		count = 1
		out = append(out, p)
	}
	return &Interpolator{pts: out}, nil
}

// At evaluates the function at x. Outside the sampled range the nearest
// endpoint value is returned (clamped, not extrapolated): hit rates and CPIs
// are physical quantities where linear extrapolation can escape valid
// bounds.
func (in *Interpolator) At(x float64) float64 {
	pts := in.pts
	if x <= pts[0].X {
		return pts[0].Y
	}
	if x >= pts[len(pts)-1].X {
		return pts[len(pts)-1].Y
	}
	// Find the first point with X >= x.
	i := sort.Search(len(pts), func(i int) bool { return pts[i].X >= x })
	lo, hi := pts[i-1], pts[i]
	t := (x - lo.X) / (hi.X - lo.X)
	return lo.Y + t*(hi.Y-lo.Y)
}

// Points returns a copy of the (sorted, deduplicated) sample points.
func (in *Interpolator) Points() []Point {
	out := make([]Point, len(in.pts))
	copy(out, in.pts)
	return out
}

// ArgMaxY returns the sample point with the largest Y value. Ties are
// resolved toward the smallest X. The paper uses this to locate s_max, the
// data-set size at which only the compulsory miss rate remains (Fig. 3a).
func (in *Interpolator) ArgMaxY() Point {
	best := in.pts[0]
	for _, p := range in.pts[1:] {
		if p.Y > best.Y {
			best = p
		}
	}
	return best
}

// Clamp restricts v to [lo, hi].
func Clamp(v, lo, hi float64) float64 {
	if lo > hi {
		// Clamp sits on model hot loops; Failf keeps the variadic
		// allocation off the success path.
		assert.Failf("stats: Clamp bounds inverted: lo=%g hi=%g", lo, hi)
	}
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
