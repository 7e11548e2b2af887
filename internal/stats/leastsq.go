// Package stats provides the small numerical kernels Scal-Tool's empirical
// model needs: linear least squares (for estimating the per-miss penalties
// t2 and tm from measured CPI triplets, paper Eq. 3), piecewise-linear
// interpolation (for the s0/n data-set slicing rule, paper §2.4.1), and
// Clamp.
//
// Everything is implemented from scratch on float64 slices; no external
// dependencies. Matrices are tiny (the model never fits more than three
// coefficients), so numerically simple normal equations with partial
// pivoting are sufficient and deterministic.
package stats

import (
	"errors"
	"fmt"
	"math"
)

// ErrSingular is returned when a least-squares system has no unique
// solution, e.g. when all sample points are identical or there are fewer
// independent samples than coefficients.
var ErrSingular = errors.New("stats: singular system (insufficient independent samples)")

// LeastSquares solves min ||X*beta - y||^2 for beta.
//
// X is given row-major: rows[i] holds the regressor values for sample i.
// Every row must have the same length p (the number of coefficients), and
// there must be at least p samples. The paper's use is Eq. 3: each data-set
// size s_i contributes one row [h2_i, hm_i] with y_i = cpi_i - cpi0, and the
// solution is [t2, tm].
func LeastSquares(rows [][]float64, y []float64) ([]float64, error) {
	n := len(rows)
	if n == 0 {
		return nil, fmt.Errorf("stats: no samples: %w", ErrSingular)
	}
	if len(y) != n {
		return nil, fmt.Errorf("stats: %d rows but %d responses", n, len(y))
	}
	p := len(rows[0])
	if p == 0 {
		return nil, errors.New("stats: zero-width rows")
	}
	for i, r := range rows {
		if len(r) != p {
			return nil, fmt.Errorf("stats: row %d has %d values, want %d", i, len(r), p)
		}
	}
	if n < p {
		return nil, fmt.Errorf("stats: %d samples for %d coefficients: %w", n, p, ErrSingular)
	}

	// Normal equations: (X^T X) beta = X^T y.
	xtx := make([][]float64, p)
	for i := range xtx {
		xtx[i] = make([]float64, p)
	}
	xty := make([]float64, p)
	for k := 0; k < n; k++ {
		r := rows[k]
		for i := 0; i < p; i++ {
			xty[i] += r[i] * y[k]
			for j := i; j < p; j++ {
				xtx[i][j] += r[i] * r[j]
			}
		}
	}
	for i := 1; i < p; i++ {
		for j := 0; j < i; j++ {
			xtx[i][j] = xtx[j][i]
		}
	}
	beta, err := solveLinear(xtx, xty)
	if err != nil {
		return nil, err
	}
	return beta, nil
}

// solveLinear solves the square system A*x = b by Gaussian elimination with
// partial pivoting. A and b are modified in place.
func solveLinear(a [][]float64, b []float64) ([]float64, error) {
	n := len(a)
	for col := 0; col < n; col++ {
		// Pivot: largest |a[row][col]| among remaining rows.
		pivot := col
		best := math.Abs(a[col][col])
		for r := col + 1; r < n; r++ {
			if v := math.Abs(a[r][col]); v > best {
				best, pivot = v, r
			}
		}
		if !(best > 0) { // catches 0 and NaN without an exact == test
			return nil, ErrSingular
		}
		a[col], a[pivot] = a[pivot], a[col]
		b[col], b[pivot] = b[pivot], b[col]
		inv := 1 / a[col][col]
		for r := col + 1; r < n; r++ {
			f := a[r][col] * inv
			if f == 0 { //scalvet:ignore skipping an exactly-zero multiplier is a pure optimization; any nonzero f must eliminate
				continue
			}
			for c := col; c < n; c++ {
				a[r][c] -= f * a[col][c]
			}
			b[r] -= f * b[col]
		}
	}
	x := make([]float64, n)
	for row := n - 1; row >= 0; row-- {
		sum := b[row]
		for c := row + 1; c < n; c++ {
			sum -= a[row][c] * x[c]
		}
		x[row] = sum / a[row][row]
	}
	return x, nil
}
