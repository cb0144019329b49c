package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestLinspace(t *testing.T) {
	got := Linspace(0, 10, 5)
	want := []float64{0, 2.5, 5, 7.5, 10}
	if len(got) != len(want) {
		t.Fatalf("Linspace len = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("Linspace[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestLinspaceDegenerate(t *testing.T) {
	if got := Linspace(3, 9, 1); len(got) != 1 || got[0] != 3 {
		t.Fatalf("Linspace n=1 = %v, want [3]", got)
	}
}

func TestQuantile(t *testing.T) {
	sorted := []float64{10, 20, 30, 40}
	if got := Quantile(sorted, 0); got != 10 {
		t.Fatalf("Quantile(0) = %v, want 10", got)
	}
	if got := Quantile(sorted, 1); got != 40 {
		t.Fatalf("Quantile(1) = %v, want 40", got)
	}
	if got := Quantile(sorted, 0.5); math.Abs(got-25) > 1e-12 {
		t.Fatalf("Quantile(0.5) = %v, want 25", got)
	}
	if got := Quantile(nil, 0.5); !math.IsNaN(got) {
		t.Fatalf("Quantile(nil) = %v, want NaN", got)
	}
}

func TestOLSRecoversLine(t *testing.T) {
	// y = 3 + 2x, exactly.
	var x [][]float64
	var y []float64
	for i := 0; i < 10; i++ {
		v := float64(i)
		x = append(x, []float64{1, v})
		y = append(y, 3+2*v)
	}
	fit, err := OLS(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Coeffs[0]-3) > 1e-9 || math.Abs(fit.Coeffs[1]-2) > 1e-9 {
		t.Fatalf("OLS coeffs = %v, want [3 2]", fit.Coeffs)
	}
	if fit.R2 < 0.999999 {
		t.Fatalf("OLS R2 = %v, want ~1", fit.R2)
	}
}

func TestOLSQuadratic(t *testing.T) {
	// y = 1 + 0.5x² with noise; quadratic basis should fit well.
	rng := rand.New(rand.NewSource(7))
	var x [][]float64
	var y []float64
	for i := 1; i <= 50; i++ {
		v := float64(i)
		x = append(x, []float64{1, v * v})
		y = append(y, 1+0.5*v*v+rng.NormFloat64()*0.1)
	}
	fit, err := OLS(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Coeffs[1]-0.5) > 0.01 {
		t.Fatalf("quadratic coeff = %v, want ~0.5", fit.Coeffs[1])
	}
	if fit.R2 < 0.999 {
		t.Fatalf("R2 = %v, want > 0.999", fit.R2)
	}
}

func TestOLSSingular(t *testing.T) {
	// Two identical columns are collinear.
	x := [][]float64{{1, 1}, {2, 2}, {3, 3}}
	y := []float64{1, 2, 3}
	if _, err := OLS(x, y); err == nil {
		t.Fatal("OLS on collinear design did not fail")
	}
}

func TestOLSUnderdetermined(t *testing.T) {
	x := [][]float64{{1, 2, 3}}
	y := []float64{1}
	if _, err := OLS(x, y); err == nil {
		t.Fatal("OLS with n < k did not fail")
	}
}

func TestOLSInputValidation(t *testing.T) {
	if _, err := OLS(nil, nil); err == nil {
		t.Fatal("OLS(nil, nil) did not fail")
	}
	if _, err := OLS([][]float64{{1}, {1, 2}}, []float64{1, 2}); err == nil {
		t.Fatal("OLS ragged rows did not fail")
	}
}

func TestSolveLinear(t *testing.T) {
	a := [][]float64{{2, 1}, {1, 3}}
	b := []float64{5, 10}
	x, err := SolveLinear(a, b)
	if err != nil {
		t.Fatal(err)
	}
	// 2x+y=5, x+3y=10 → x=1, y=3.
	if math.Abs(x[0]-1) > 1e-9 || math.Abs(x[1]-3) > 1e-9 {
		t.Fatalf("SolveLinear = %v, want [1 3]", x)
	}
}

func TestSolveLinearNeedsPivot(t *testing.T) {
	// Zero on the diagonal forces a row swap.
	a := [][]float64{{0, 1}, {1, 0}}
	b := []float64{2, 3}
	x, err := SolveLinear(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-3) > 1e-9 || math.Abs(x[1]-2) > 1e-9 {
		t.Fatalf("SolveLinear = %v, want [3 2]", x)
	}
}

func TestSolveLinearSingular(t *testing.T) {
	a := [][]float64{{1, 2}, {2, 4}}
	b := []float64{1, 2}
	if _, err := SolveLinear(a, b); err == nil {
		t.Fatal("singular system did not fail")
	}
}

func TestRelErr(t *testing.T) {
	if got := RelErr(21, 19); math.Abs(got-10.526315789) > 1e-6 {
		t.Fatalf("RelErr(21,19) = %v", got)
	}
	if got := RelErr(0, 0); got != 0 {
		t.Fatalf("RelErr(0,0) = %v, want 0", got)
	}
	if got := RelErr(1, 0); !math.IsInf(got, 1) {
		t.Fatalf("RelErr(1,0) = %v, want +Inf", got)
	}
}

// Property: OLS on exact data from a random affine model recovers it.
func TestOLSExactRecoveryProperty(t *testing.T) {
	f := func(a, b int8) bool {
		alpha, beta := float64(a), float64(b)
		var x [][]float64
		var y []float64
		for i := 0; i < 8; i++ {
			v := float64(i)
			x = append(x, []float64{1, v})
			y = append(y, alpha+beta*v)
		}
		fit, err := OLS(x, y)
		if err != nil {
			return false
		}
		return math.Abs(fit.Coeffs[0]-alpha) < 1e-6 && math.Abs(fit.Coeffs[1]-beta) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Linspace output is monotone with exact endpoints.
func TestLinspaceMonotoneProperty(t *testing.T) {
	f := func(lo, span float64, n uint8) bool {
		if math.IsNaN(lo) || math.IsNaN(span) {
			return true
		}
		lo = math.Mod(lo, 1e9)
		hi := lo + math.Abs(math.Mod(span, 1e9)) + 1
		count := int(n%50) + 2
		xs := Linspace(lo, hi, count)
		if xs[0] != lo || xs[len(xs)-1] != hi {
			return false
		}
		for i := 1; i < len(xs); i++ {
			if xs[i] < xs[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
