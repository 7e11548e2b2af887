package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*(1+math.Abs(a)+math.Abs(b))
}

// residuals returns y - X*beta, the oracle the fit-quality checks use.
func residuals(rows [][]float64, y, beta []float64) []float64 {
	res := make([]float64, len(rows))
	for i, r := range rows {
		pred := 0.0
		for j, v := range r {
			pred += v * beta[j]
		}
		res[i] = y[i] - pred
	}
	return res
}

// rmse returns the root-mean-square of the fit's residuals.
func rmse(rows [][]float64, y, beta []float64) float64 {
	sum := 0.0
	for _, r := range residuals(rows, y, beta) {
		sum += r * r
	}
	return math.Sqrt(sum / float64(len(rows)))
}

func TestLeastSquaresExactTwoCoeff(t *testing.T) {
	// y = 3*x1 + 7*x2 exactly; two samples suffice.
	rows := [][]float64{{1, 0}, {0, 1}}
	y := []float64{3, 7}
	beta, err := LeastSquares(rows, y)
	if err != nil {
		t.Fatalf("LeastSquares: %v", err)
	}
	if !almostEq(beta[0], 3, 1e-12) || !almostEq(beta[1], 7, 1e-12) {
		t.Fatalf("beta = %v, want [3 7]", beta)
	}
}

func TestLeastSquaresOverdetermined(t *testing.T) {
	// The paper's Eq. 3 use case: cpi - cpi0 = h2*t2 + hm*tm with 4 data-set
	// sizes. Recover t2=8, tm=120 from noise-free triplets.
	t2, tm := 8.0, 120.0
	h2 := []float64{0.01, 0.02, 0.015, 0.03}
	hm := []float64{0.004, 0.006, 0.002, 0.008}
	rows := make([][]float64, len(h2))
	y := make([]float64, len(h2))
	for i := range h2 {
		rows[i] = []float64{h2[i], hm[i]}
		y[i] = h2[i]*t2 + hm[i]*tm
	}
	beta, err := LeastSquares(rows, y)
	if err != nil {
		t.Fatalf("LeastSquares: %v", err)
	}
	if !almostEq(beta[0], t2, 1e-9) || !almostEq(beta[1], tm, 1e-9) {
		t.Fatalf("beta = %v, want [%g %g]", beta, t2, tm)
	}
}

func TestLeastSquaresNoisyRecovery(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	t2, tm := 10.0, 200.0
	var rows [][]float64
	var y []float64
	for i := 0; i < 200; i++ {
		h2 := 0.005 + 0.03*rng.Float64()
		hm := 0.001 + 0.01*rng.Float64()
		noise := 0.001 * rng.NormFloat64()
		rows = append(rows, []float64{h2, hm})
		y = append(y, h2*t2+hm*tm+noise)
	}
	beta, err := LeastSquares(rows, y)
	if err != nil {
		t.Fatalf("LeastSquares: %v", err)
	}
	if math.Abs(beta[0]-t2) > 0.5 || math.Abs(beta[1]-tm) > 2 {
		t.Fatalf("noisy recovery beta = %v, want ~[%g %g]", beta, t2, tm)
	}
	if r := rmse(rows, y, beta); r > 0.01 {
		t.Fatalf("RMSE = %g, want small", r)
	}
}

func TestLeastSquaresSingular(t *testing.T) {
	// All rows identical: no unique solution.
	rows := [][]float64{{1, 2}, {1, 2}, {1, 2}}
	y := []float64{1, 1, 1}
	if _, err := LeastSquares(rows, y); err == nil {
		t.Fatal("want error for singular system, got nil")
	}
}

func TestLeastSquaresInputValidation(t *testing.T) {
	cases := []struct {
		name string
		rows [][]float64
		y    []float64
	}{
		{"empty", nil, nil},
		{"mismatched y", [][]float64{{1}}, []float64{1, 2}},
		{"ragged rows", [][]float64{{1, 2}, {3}}, []float64{1, 2}},
		{"zero-width", [][]float64{{}}, []float64{1}},
		{"underdetermined", [][]float64{{1, 2}}, []float64{3}},
	}
	for _, c := range cases {
		if _, err := LeastSquares(c.rows, c.y); err == nil {
			t.Errorf("%s: want error, got nil", c.name)
		}
	}
}

// Property: for any full-rank 2-coefficient linear system generated from
// random coefficients, LeastSquares recovers the coefficients on noise-free
// data.
func TestLeastSquaresRecoveryProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		b0 := rng.Float64()*100 - 50
		b1 := rng.Float64()*100 - 50
		rows := make([][]float64, 6)
		y := make([]float64, 6)
		for i := range rows {
			x0 := rng.Float64()*10 + 0.1
			x1 := rng.Float64()*10 + 0.1
			rows[i] = []float64{x0, x1}
			y[i] = b0*x0 + b1*x1
		}
		beta, err := LeastSquares(rows, y)
		if err != nil {
			// Random rows are full rank with probability 1; treat a singular
			// draw as a pass rather than flake.
			return true
		}
		return almostEq(beta[0], b0, 1e-6) && almostEq(beta[1], b1, 1e-6)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: residuals of the fitted solution are orthogonal to each
// regressor column (the defining normal-equation property).
func TestLeastSquaresResidualOrthogonality(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 8
		rows := make([][]float64, n)
		y := make([]float64, n)
		for i := range rows {
			rows[i] = []float64{rng.Float64() + 0.1, rng.Float64() + 0.1}
			y[i] = rng.Float64() * 10
		}
		beta, err := LeastSquares(rows, y)
		if err != nil {
			return true
		}
		res := residuals(rows, y, beta)
		for j := 0; j < 2; j++ {
			dot := 0.0
			for i := range rows {
				dot += rows[i][j] * res[i]
			}
			if math.Abs(dot) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSolveLinearPivoting(t *testing.T) {
	// Leading zero forces a pivot swap.
	a := [][]float64{{0, 1}, {1, 0}}
	b := []float64{2, 3}
	x, err := solveLinear(a, b)
	if err != nil {
		t.Fatalf("solveLinear: %v", err)
	}
	if !almostEq(x[0], 3, 1e-12) || !almostEq(x[1], 2, 1e-12) {
		t.Fatalf("x = %v, want [3 2]", x)
	}
}
