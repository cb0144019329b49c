// Package fit turns baseline perf measurements into demand models.
// This is the "establish the relationship between application
// parameters and application resource demand" step of the paper's
// methodology (§III-A, §IV-A): CELIA runs scale-down problems
// P_{n',a'}, measures retired instructions, and regresses them against
// candidate functional forms, selecting among linear, quadratic, and
// logarithmic dependence on size and accuracy.
package fit

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/demand"
	"repro/internal/stats"
	"repro/internal/units"
	"repro/internal/workload"
)

// Point is one baseline observation: the measured instruction count of
// a scale-down run.
type Point struct {
	P workload.Params
	D units.Instructions
}

// Family is a named candidate functional form.
type Family struct {
	Name  string
	Bases []demand.Basis
}

// Families returns the standard candidate catalog. It covers the
// paper's observed shapes — demand linear or quadratic in problem size,
// and linear, quadratic, or logarithmic in accuracy — plus composite
// forms, so selection is a genuine choice rather than a foregone one.
func Families() []Family {
	return []Family{
		{"size-linear", []demand.Basis{demand.N(), demand.NA()}},
		{"accuracy-quadratic", []demand.Basis{demand.N(), demand.NA2()}},
		{"accuracy-poly", []demand.Basis{demand.N(), demand.NA(), demand.NA2()}},
		{"size-quadratic", []demand.Basis{demand.NA(), demand.N2A()}},
		{"size-quadratic-full", []demand.Basis{demand.N(), demand.N2(), demand.NA(), demand.N2A()}},
		{"accuracy-log1", []demand.Basis{demand.N(), demand.NLog(1)}},
		{"accuracy-log10", []demand.Basis{demand.N(), demand.NLog(10)}},
		{"accuracy-log99", []demand.Basis{demand.N(), demand.NLog(99)}},
	}
}

// Result pairs a fitted model with its selection diagnostics.
type Result struct {
	Model  demand.Model
	Family string
	BIC    float64
	RMSE   float64
}

// ErrNoFit is returned when no candidate family fits the observations.
var ErrNoFit = errors.New("fit: no candidate family fits the data")

// FitFamily regresses the observations onto one family's bases.
func FitFamily(appName string, pts []Point, fam Family) (Result, error) {
	if len(pts) < len(fam.Bases)+1 {
		return Result{}, fmt.Errorf("fit: %d points cannot identify %d-term family %s",
			len(pts), len(fam.Bases), fam.Name)
	}
	x := make([][]float64, len(pts))
	y := make([]float64, len(pts))
	for i, pt := range pts {
		row := make([]float64, len(fam.Bases))
		for j, b := range fam.Bases {
			row[j] = b.Eval(pt.P.N, pt.P.A)
		}
		x[i] = row
		y[i] = float64(pt.D)
	}
	// Demand magnitudes span 1e2–1e15 depending on the app and grid;
	// normalize each column and the response by their max magnitude to
	// keep the normal equations well-conditioned, then unscale the
	// coefficients.
	colScale := make([]float64, len(fam.Bases))
	for j := range colScale {
		for i := range x {
			if v := math.Abs(x[i][j]); v > colScale[j] {
				colScale[j] = v
			}
		}
		if colScale[j] == 0 {
			colScale[j] = 1
		}
	}
	var yScale float64
	for _, v := range y {
		if a := math.Abs(v); a > yScale {
			yScale = a
		}
	}
	if yScale == 0 {
		yScale = 1
	}
	for i := range x {
		for j := range x[i] {
			x[i][j] /= colScale[j]
		}
		y[i] /= yScale
	}
	f, err := stats.OLS(x, y)
	if err != nil {
		return Result{}, fmt.Errorf("fit: family %s: %w", fam.Name, err)
	}
	coeffs := make([]float64, len(f.Coeffs))
	for j, c := range f.Coeffs {
		coeffs[j] = c * yScale / colScale[j]
	}
	m, err := demand.FromFit(appName, fam.Bases, coeffs, f.R2)
	if err != nil {
		return Result{}, err
	}
	return Result{Model: m, Family: fam.Name, BIC: f.BIC, RMSE: f.RMSE * yScale}, nil
}

// Select fits every candidate family and returns the one with the best
// (lowest) BIC. Families that fail to fit (singular, underdetermined)
// are skipped; if all fail, ErrNoFit is returned.
func Select(appName string, pts []Point, fams []Family) (Result, error) {
	if len(fams) == 0 {
		fams = Families()
	}
	best := Result{BIC: math.Inf(1)}
	found := false
	for _, fam := range fams {
		r, err := FitFamily(appName, pts, fam)
		if err != nil {
			continue
		}
		// Reject physically meaningless fits: demand must be positive
		// over the observed envelope.
		if !positiveOverEnvelope(r.Model, pts) {
			continue
		}
		if r.BIC < best.BIC {
			best = r
			found = true
		}
	}
	if !found {
		return Result{}, ErrNoFit
	}
	return best, nil
}

// positiveOverEnvelope checks the model predicts positive demand at
// every observed point and at the envelope corners.
func positiveOverEnvelope(m demand.Model, pts []Point) bool {
	minN, maxN := math.Inf(1), math.Inf(-1)
	minA, maxA := math.Inf(1), math.Inf(-1)
	for _, pt := range pts {
		if float64(m.Demand(pt.P)) <= 0 {
			return false
		}
		minN = math.Min(minN, pt.P.N)
		maxN = math.Max(maxN, pt.P.N)
		minA = math.Min(minA, pt.P.A)
		maxA = math.Max(maxA, pt.P.A)
	}
	for _, n := range []float64{minN, maxN} {
		for _, a := range []float64{minA, maxA} {
			if float64(m.Demand(workload.Params{N: n, A: a})) <= 0 {
				return false
			}
		}
	}
	return true
}
