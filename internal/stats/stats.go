// Package stats provides the small numerical toolkit CELIA's
// measurement-driven modeling needs: ordinary least squares over
// arbitrary basis functions, goodness-of-fit metrics, and quantiles.
// Everything is stdlib-only and deterministic.
package stats

import (
	"errors"
	"fmt"
	"math"
)

// ErrSingular is returned when a least-squares system has no unique
// solution (collinear bases or too few observations).
var ErrSingular = errors.New("stats: singular normal equations")

// Linspace returns n evenly spaced values from lo to hi inclusive.
// n < 2 yields a single-element slice containing lo.
func Linspace(lo, hi float64, n int) []float64 {
	if n < 2 {
		return []float64{lo}
	}
	out := make([]float64, n)
	step := (hi - lo) / float64(n-1)
	for i := range out {
		out[i] = lo + float64(i)*step
	}
	out[n-1] = hi
	return out
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) of an ascending-sorted
// sample using linear interpolation between order statistics.
func Quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	if n == 1 {
		return sorted[0]
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo < 0 {
		return sorted[0]
	}
	if hi >= n {
		return sorted[n-1]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Fit is the result of a least-squares regression.
type Fit struct {
	Coeffs []float64 // one per basis function
	R2     float64   // coefficient of determination
	RMSE   float64   // root mean squared residual
	BIC    float64   // Bayesian information criterion (lower is better)
	N      int       // observations used
}

// OLS solves min ‖X·β − y‖² where X[i][j] is basis j evaluated at
// observation i. It returns ErrSingular for rank-deficient systems.
func OLS(x [][]float64, y []float64) (Fit, error) {
	n := len(x)
	if n == 0 || n != len(y) {
		return Fit{}, fmt.Errorf("stats: OLS needs matching non-empty x (%d rows) and y (%d)", n, len(y))
	}
	k := len(x[0])
	if k == 0 {
		return Fit{}, errors.New("stats: OLS needs at least one basis function")
	}
	for i, row := range x {
		if len(row) != k {
			return Fit{}, fmt.Errorf("stats: OLS row %d has %d columns, want %d", i, len(row), k)
		}
	}
	if n < k {
		return Fit{}, ErrSingular
	}

	// Normal equations: (XᵀX) β = Xᵀy, solved by Gaussian elimination
	// with partial pivoting. k is tiny (≤ ~6 bases) so this is exact
	// enough and allocation-light.
	a := make([][]float64, k)
	b := make([]float64, k)
	for i := 0; i < k; i++ {
		a[i] = make([]float64, k)
		for j := 0; j < k; j++ {
			var s float64
			for r := 0; r < n; r++ {
				s += x[r][i] * x[r][j]
			}
			a[i][j] = s
		}
		var s float64
		for r := 0; r < n; r++ {
			s += x[r][i] * y[r]
		}
		b[i] = s
	}
	beta, err := SolveLinear(a, b)
	if err != nil {
		return Fit{}, err
	}

	// Goodness of fit.
	var meanY float64
	for _, v := range y {
		meanY += v
	}
	meanY /= float64(n)
	var ssRes, ssTot float64
	for r := 0; r < n; r++ {
		var pred float64
		for j := 0; j < k; j++ {
			pred += beta[j] * x[r][j]
		}
		d := y[r] - pred
		ssRes += d * d
		dt := y[r] - meanY
		ssTot += dt * dt
	}
	fit := Fit{Coeffs: beta, N: n}
	fit.RMSE = math.Sqrt(ssRes / float64(n))
	if ssTot > 0 {
		fit.R2 = 1 - ssRes/ssTot
	} else if ssRes == 0 {
		fit.R2 = 1
	}
	// BIC with Gaussian likelihood: n·ln(ssRes/n) + k·ln(n). Guard the
	// perfect-fit case where ssRes is zero.
	if ssRes <= 0 {
		fit.BIC = math.Inf(-1)
	} else {
		fit.BIC = float64(n)*math.Log(ssRes/float64(n)) + float64(k)*math.Log(float64(n))
	}
	return fit, nil
}

// SolveLinear solves the k×k system a·x = b by Gaussian elimination with
// partial pivoting. It mutates copies, not its arguments.
func SolveLinear(a [][]float64, b []float64) ([]float64, error) {
	k := len(a)
	if k == 0 || len(b) != k {
		return nil, fmt.Errorf("stats: SolveLinear dimension mismatch (%d×?, b=%d)", k, len(b))
	}
	m := make([][]float64, k)
	for i := range m {
		if len(a[i]) != k {
			return nil, fmt.Errorf("stats: SolveLinear row %d has %d columns, want %d", i, len(a[i]), k)
		}
		m[i] = append([]float64(nil), a[i]...)
	}
	rhs := append([]float64(nil), b...)

	for col := 0; col < k; col++ {
		// Partial pivot.
		pivot := col
		best := math.Abs(m[col][col])
		for r := col + 1; r < k; r++ {
			if v := math.Abs(m[r][col]); v > best {
				best, pivot = v, r
			}
		}
		if best < 1e-12 {
			return nil, ErrSingular
		}
		m[col], m[pivot] = m[pivot], m[col]
		rhs[col], rhs[pivot] = rhs[pivot], rhs[col]
		inv := 1 / m[col][col]
		for r := col + 1; r < k; r++ {
			f := m[r][col] * inv
			if f == 0 {
				continue
			}
			for c := col; c < k; c++ {
				m[r][c] -= f * m[col][c]
			}
			rhs[r] -= f * rhs[col]
		}
	}
	x := make([]float64, k)
	for i := k - 1; i >= 0; i-- {
		s := rhs[i]
		for j := i + 1; j < k; j++ {
			s -= m[i][j] * x[j]
		}
		x[i] = s / m[i][i]
	}
	return x, nil
}

// RelErr returns |pred − actual| / |actual| as a percentage, matching
// Table IV's error column. A zero actual with nonzero pred yields +Inf.
func RelErr(pred, actual float64) float64 {
	if actual == 0 {
		if pred == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return math.Abs(pred-actual) / math.Abs(actual) * 100
}

// ApproxEqual reports whether a and b agree within tol: absolutely for
// small magnitudes, relatively (scaled by the larger magnitude) for
// large ones. It is the repository's approved float-equality helper —
// celia-lint's floateq rule forbids raw == / != on floats everywhere
// else, because two mathematically equal computations routinely
// disagree in the last ulp. NaN equals nothing; the exact-equality
// fast path makes equal infinities compare true.
func ApproxEqual(a, b, tol float64) bool {
	if a == b {
		return true
	}
	scale := math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
	return math.Abs(a-b) <= tol*scale
}
