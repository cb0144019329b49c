package fit

import (
	"math"
	"testing"

	"repro/internal/apps/galaxy"
	"repro/internal/apps/sand"
	"repro/internal/apps/x264"
	"repro/internal/demand"
	"repro/internal/localserver"
	"repro/internal/stats"
	"repro/internal/units"
	"repro/internal/workload"
)

// measureApp runs the app's baseline grid on the local server and
// returns fit points (what profile does in production).
func measureApp(t *testing.T, app workload.App) []Point {
	t.Helper()
	srv := localserver.NewXeonE52630v4()
	ms, err := srv.MeasureGrid(app)
	if err != nil {
		t.Fatal(err)
	}
	pts := make([]Point, len(ms))
	for i, m := range ms {
		pts[i] = Point{P: m.Params, D: m.Instructions}
	}
	return pts
}

func TestSelectRecoversGalaxyForm(t *testing.T) {
	pts := measureApp(t, galaxy.App{})
	r, err := Select("galaxy", pts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.Family != "size-quadratic" && r.Family != "size-quadratic-full" {
		t.Fatalf("selected family %s; want a quadratic-in-n form (Fig 2b)", r.Family)
	}
	// Extrapolate to a full-scale problem: the fit must stay within a
	// few percent of ground truth despite setup contamination.
	full := workload.Params{N: 65536, A: 8000}
	pred := float64(r.Model.Demand(full))
	truth := float64(galaxy.App{}.Demand(full))
	if e := stats.RelErr(pred, truth); e > 5 {
		t.Fatalf("full-scale extrapolation error %.2f%%, want < 5%%", e)
	}
}

func TestSelectRecoversX264Form(t *testing.T) {
	pts := measureApp(t, x264.App{})
	r, err := Select("x264", pts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.Family != "accuracy-quadratic" && r.Family != "accuracy-poly" {
		t.Fatalf("selected family %s; want quadratic-in-f (Fig 2d)", r.Family)
	}
	full := workload.Params{N: 8000, A: 20}
	pred := float64(r.Model.Demand(full))
	truth := float64(x264.App{}.Demand(full))
	if e := stats.RelErr(pred, truth); e > 5 {
		t.Fatalf("full-scale extrapolation error %.2f%%, want < 5%%", e)
	}
}

func TestSelectRecoversSandForm(t *testing.T) {
	pts := measureApp(t, sand.App{})
	r, err := Select("sand", pts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.Family != "accuracy-log99" {
		t.Fatalf("selected family %s; want accuracy-log99 (Fig 2f)", r.Family)
	}
	full := workload.Params{N: 8192e6, A: 0.32}
	pred := float64(r.Model.Demand(full))
	truth := float64(sand.App{}.Demand(full))
	if e := stats.RelErr(pred, truth); e > 5 {
		t.Fatalf("full-scale extrapolation error %.2f%%, want < 5%%", e)
	}
}

func TestFitFamilyExact(t *testing.T) {
	// Synthetic exact data: D = 100n + 7n·a².
	var pts []Point
	for _, n := range []float64{1, 2, 4, 8} {
		for _, a := range []float64{1, 2, 3} {
			pts = append(pts, Point{
				P: workload.Params{N: n, A: a},
				D: units.Instructions(100*n + 7*n*a*a),
			})
		}
	}
	r, err := FitFamily("syn", pts, Family{"aq", []demand.Basis{demand.N(), demand.NA2()}})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.Model.Coeffs[0]-100) > 1e-6 || math.Abs(r.Model.Coeffs[1]-7) > 1e-6 {
		t.Fatalf("coeffs = %v, want [100 7]", r.Model.Coeffs)
	}
	if r.Model.R2 < 0.999999 {
		t.Fatalf("R2 = %v", r.Model.R2)
	}
}

func TestFitFamilyUnderdetermined(t *testing.T) {
	pts := []Point{{P: workload.Params{N: 1, A: 1}, D: 10}}
	_, err := FitFamily("syn", pts, Family{"l", []demand.Basis{demand.N(), demand.NA()}})
	if err == nil {
		t.Fatal("underdetermined fit accepted")
	}
}

func TestSelectRejectsAllSingular(t *testing.T) {
	// All points at the same parameters: every family is singular.
	pts := []Point{
		{P: workload.Params{N: 1, A: 1}, D: 10},
		{P: workload.Params{N: 1, A: 1}, D: 10},
		{P: workload.Params{N: 1, A: 1}, D: 10},
		{P: workload.Params{N: 1, A: 1}, D: 10},
		{P: workload.Params{N: 1, A: 1}, D: 10},
	}
	if _, err := Select("syn", pts, nil); err == nil {
		t.Fatal("Select succeeded on degenerate data")
	}
}

func TestSelectPrefersTrueFormOverRicher(t *testing.T) {
	// Exact bilinear data: BIC must prefer the 2-term family over the
	// 3-term one that also fits perfectly.
	var pts []Point
	for _, n := range []float64{1, 2, 4, 8, 16} {
		for _, a := range []float64{1, 2, 3, 4} {
			pts = append(pts, Point{P: workload.Params{N: n, A: a}, D: units.Instructions(5*n + 3*n*a)})
		}
	}
	r, err := Select("syn", pts, []Family{
		{"size-linear", []demand.Basis{demand.N(), demand.NA()}},
		{"accuracy-poly", []demand.Basis{demand.N(), demand.NA(), demand.NA2()}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Family != "size-linear" {
		t.Fatalf("selected %s; BIC should prefer the smaller exact family", r.Family)
	}
}
