package sweep

import (
	"math"
	"strings"
	"sync"
	"testing"

	"repro/internal/apps/galaxy"
	"repro/internal/apps/sand"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/demand"
	"repro/internal/ec2"
	"repro/internal/model"
	"repro/internal/units"
	"repro/internal/workload"
)

// paperIndexes builds one frontier index per paper application, once
// per test binary, so the sweeps read an index instead of each building
// their own or scanning the space per query.
var paperIndexes sync.Map // app name → func() *core.FrontierIndex

// indexedPaperEngine returns a fresh paper engine for app with the
// shared index installed.
func indexedPaperEngine(t *testing.T, app workload.App) *core.Engine {
	t.Helper()
	build, _ := paperIndexes.LoadOrStore(app.Name(), sync.OnceValue(func() *core.FrontierIndex {
		x, _ := core.NewPaperEngine(app).Frontier()
		return x
	}))
	eng := core.NewPaperEngine(app)
	if err := eng.InstallIndex(build.(func() *core.FrontierIndex)()); err != nil {
		t.Fatal(err)
	}
	return eng
}

func TestCensusFig4Galaxy(t *testing.T) {
	// Figure 4 (galaxy): n=65536, s=8000, T′=24 h, C′=$350 over the
	// full 10,077,695-configuration space. The paper reports ~5.8M
	// feasible configurations, a multi-point Pareto frontier, and a
	// frontier cost span of ~1.3×.
	eng := indexedPaperEngine(t, galaxy.App{})
	res, err := Census(eng, workload.Params{N: 65536, A: 8000},
		units.FromHours(24), 350, 0)
	if err != nil {
		t.Fatal(err)
	}
	an := res.Analysis
	if an.Total != 10077695 {
		t.Fatalf("census total = %d", an.Total)
	}
	if an.Feasible < 3_000_000 || an.Feasible > 9_000_000 {
		t.Fatalf("feasible = %d, want millions (paper ~5.8M)", an.Feasible)
	}
	if len(an.Frontier) < 10 || len(an.Frontier) > 200 {
		t.Fatalf("frontier has %d points, want tens (paper: 23)", len(an.Frontier))
	}
	_, _, ratio := an.CostSpan()
	if ratio < 1.1 || ratio > 1.6 {
		t.Fatalf("frontier cost span = %.2f×, want ~1.3×", ratio)
	}
	if res.SavingPct < 10 || res.SavingPct > 40 {
		t.Fatalf("Obs 1 saving = %.1f%%, paper reports up to ~30%%", res.SavingPct)
	}
}

func TestCensusFig4Sand(t *testing.T) {
	eng := indexedPaperEngine(t, sand.App{})
	res, err := Census(eng, workload.Params{N: 8192e6, A: 0.32},
		units.FromHours(24), 350, 0)
	if err != nil {
		t.Fatal(err)
	}
	an := res.Analysis
	if an.Feasible == 0 || an.Feasible >= an.Total {
		t.Fatalf("feasible = %d of %d", an.Feasible, an.Total)
	}
	if len(an.Frontier) == 0 {
		t.Fatal("empty frontier")
	}
}

func TestMinCostCurveGalaxyShape(t *testing.T) {
	// Figure 5(a): min cost grows superlinearly (quadratic demand) in
	// n at fixed deadline; relaxing the deadline never raises cost.
	eng := indexedPaperEngine(t, galaxy.App{})
	values := []float64{32768, 65536, 131072}
	res, err := MinCostCurve(eng, workload.Params{A: 1000}, true, "n", values, []units.Hours{24, 72})
	if err != nil {
		t.Fatal(err)
	}
	row24, row72 := res.Points[0], res.Points[1]
	for i := range values {
		if !row24[i].Feasible || !row72[i].Feasible {
			t.Fatalf("infeasible point in Fig 5a sweep: %+v / %+v", row24[i], row72[i])
		}
		if float64(row72[i].Cost) > float64(row24[i].Cost)+1e-9 {
			t.Fatalf("72h costs more than 24h at n=%v", values[i])
		}
	}
	// Quadratic demand: cost ratio for 2× n must exceed 2× (at a fixed
	// deadline, superlinear growth).
	r1 := float64(row24[1].Cost) / float64(row24[0].Cost)
	r2 := float64(row24[2].Cost) / float64(row24[1].Cost)
	if r1 < 2.5 || r2 < 2.5 {
		t.Fatalf("cost growth per n-doubling = %.2f, %.2f; want > 2.5 (quadratic demand)", r1, r2)
	}
}

func TestMinCostCurveSandLinear(t *testing.T) {
	// Figure 5(b): sand's cost grows ~linearly with problem size.
	eng := indexedPaperEngine(t, sand.App{})
	values := []float64{1024e6, 2048e6, 4096e6}
	res, err := MinCostCurve(eng, workload.Params{A: 0.32}, true, "n", values, []units.Hours{72})
	if err != nil {
		t.Fatal(err)
	}
	row := res.Points[0]
	r1 := float64(row[1].Cost) / float64(row[0].Cost)
	r2 := float64(row[2].Cost) / float64(row[1].Cost)
	for _, r := range []float64{r1, r2} {
		if r < 1.7 || r > 2.4 {
			t.Fatalf("cost growth per n-doubling = %.2f, want ~2 (linear demand)", r)
		}
	}
}

func TestFig6GalaxySpillAnnotations(t *testing.T) {
	// Figure 6(a): along the 24 h accuracy sweep, configurations fill
	// c4 first and spill into m4 at high s, with a gradient jump at
	// the spill.
	eng := indexedPaperEngine(t, galaxy.App{})
	values := []float64{1000, 2000, 3000, 4000, 5000, 6000, 7000, 8000, 9000, 10000}
	res, err := MinCostCurve(eng, workload.Params{N: 65536}, false, "s", values, []units.Hours{24})
	if err != nil {
		t.Fatal(err)
	}
	row := res.Points[0]
	sawM4 := false
	for _, pt := range row {
		if !pt.Feasible {
			t.Fatalf("infeasible point in Fig 6a sweep: %+v", pt)
		}
		// No r3 nodes should ever appear: r3 has the worst cost
		// efficiency and capacity never requires it here.
		if !strings.HasSuffix(pt.Config, ",0,0,0]") {
			t.Fatalf("config %s uses r3 at s=%v", pt.Config, pt.Value)
		}
		if !strings.Contains(pt.Config[1:len(pt.Config)-1], "5,5,5,") ||
			pt.Config[1:8] != "5,5,5,0" {
			// c4 saturated and m4 in use.
			sawM4 = true
		}
	}
	if !sawM4 {
		t.Fatal("sweep never spilled out of c4; expected m4 spill at high accuracy")
	}
	if jumps := GradientJumps(row, 1.15); len(jumps) == 0 {
		t.Fatal("no gradient jump detected along Fig 6a's 24h curve")
	}
}

func TestGradientJumpsDetector(t *testing.T) {
	row := []ScalePoint{
		{Value: 1, Cost: 10, Feasible: true},
		{Value: 2, Cost: 20, Feasible: true},
		{Value: 3, Cost: 30, Feasible: true},
		{Value: 4, Cost: 55, Feasible: true}, // slope 10 → 25
	}
	jumps := GradientJumps(row, 1.5)
	if len(jumps) != 1 || jumps[0] != 3 {
		t.Fatalf("jumps = %v, want [3]", jumps)
	}
	if got := GradientJumps(row[:2], 1.5); got != nil {
		t.Fatalf("short row jumps = %v", got)
	}
}

func TestGradientJumpsDuplicateValueResetsSlope(t *testing.T) {
	// A zero-width segment (duplicate swept value) has no slope. The
	// detector used to keep the slope from before the duplicate and
	// compare the next segment against it, reporting a spurious jump
	// across the gap.
	row := []ScalePoint{
		{Value: 1, Cost: 10, Feasible: true},
		{Value: 2, Cost: 20, Feasible: true}, // slope 10
		{Value: 2, Cost: 20, Feasible: true}, // zero-width: resets state
		{Value: 3, Cost: 50, Feasible: true}, // slope 30, but no adjacent base
	}
	if got := GradientJumps(row, 1.5); got != nil {
		t.Fatalf("jumps = %v; a zero-width segment must reset the slope like an infeasible one", got)
	}
	// The segment after the reset becomes the new base, so a further
	// steepening is still caught.
	row = append(row, ScalePoint{Value: 4, Cost: 120, Feasible: true}) // slope 70 vs base 30
	if got := GradientJumps(row, 1.5); len(got) != 1 || got[0] != 4 {
		t.Fatalf("jumps = %v, want [4]", got)
	}
}

func TestGradientJumpsPlateauExit(t *testing.T) {
	// Climbing out of a flat (zero-slope) plateau is a jump: relative
	// to a zero base every factor is infinite. The detector used to
	// require prevSlope > 0 and silently missed it.
	row := []ScalePoint{
		{Value: 1, Cost: 10, Feasible: true},
		{Value: 2, Cost: 10, Feasible: true}, // slope 0
		{Value: 3, Cost: 10, Feasible: true}, // slope 0
		{Value: 4, Cost: 30, Feasible: true}, // slope 20 out of the plateau
	}
	if got := GradientJumps(row, 1.15); len(got) != 1 || got[0] != 3 {
		t.Fatalf("jumps = %v, want [3]", got)
	}
	// Same for a dipping base: cost falls, then rises again.
	row = []ScalePoint{
		{Value: 1, Cost: 20, Feasible: true},
		{Value: 2, Cost: 10, Feasible: true}, // slope -10
		{Value: 3, Cost: 15, Feasible: true}, // slope 5 out of the dip
	}
	if got := GradientJumps(row, 1.15); len(got) != 1 || got[0] != 2 {
		t.Fatalf("jumps = %v, want [2]", got)
	}
}

func TestTighteningObs3Galaxy(t *testing.T) {
	// Observation 3 (galaxy(262144, 1000)): tightening 72h → 24h (a
	// 67% cut) raises cost by well under 67%; the paper reports ~40%.
	eng := indexedPaperEngine(t, galaxy.App{})
	res, err := Tightening(eng, workload.Params{N: 262144, A: 1000}, []units.Hours{24, 48, 72})
	if err != nil {
		t.Fatal(err)
	}
	if res.DeadlineCutPct < 60 || res.DeadlineCutPct > 70 {
		t.Fatalf("deadline cut = %.1f%%, want ~67%%", res.DeadlineCutPct)
	}
	if res.CostRisePct <= 0 {
		t.Fatalf("cost rise = %.1f%%; tightening must cost something", res.CostRisePct)
	}
	if res.CostRisePct >= res.DeadlineCutPct {
		t.Fatalf("Obs 3 violated: cost rise %.1f%% >= deadline cut %.1f%%",
			res.CostRisePct, res.DeadlineCutPct)
	}
}

func TestTighteningObs3Sand(t *testing.T) {
	// sand(8192M, 0.32): 48h → 24h (50% cut) costs ~+25% in the paper.
	eng := indexedPaperEngine(t, sand.App{})
	res, err := Tightening(eng, workload.Params{N: 8192e6, A: 0.32}, []units.Hours{24, 48})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.DeadlineCutPct-50) > 1e-9 {
		t.Fatalf("deadline cut = %.1f%%", res.DeadlineCutPct)
	}
	// The 24 h rung forces a spill past c4, so tightening costs real
	// money — but less than proportionally (paper: ~+25%).
	if res.CostRisePct >= 50 || res.CostRisePct < 3 {
		t.Fatalf("cost rise = %.1f%%, want within [3%%, 50%%)", res.CostRisePct)
	}
}

func TestTighteningInfeasibleRungs(t *testing.T) {
	// An absurd problem at tiny deadlines: rungs must be marked
	// infeasible rather than invented.
	eng := indexedPaperEngine(t, galaxy.App{})
	res, err := Tightening(eng, workload.Params{N: 4194304, A: 100000}, []units.Hours{1, 1000000})
	if err != nil {
		t.Fatal(err)
	}
	if res.Points[0].Feasible {
		t.Fatal("1-hour deadline on an enormous problem reported feasible")
	}
}

func TestCostDemandElasticityObs2(t *testing.T) {
	// Observation 2: when the configuration spills into a new
	// category, cost grows faster than demand (elasticity > 1
	// somewhere along the curve).
	eng := indexedPaperEngine(t, galaxy.App{})
	values := []float64{1000, 2000, 3000, 4000, 5000, 6000, 7000, 8000, 9000, 10000}
	fixed := workload.Params{N: 65536}
	res, err := MinCostCurve(eng, fixed, false, "s", values, []units.Hours{24})
	if err != nil {
		t.Fatal(err)
	}
	es, err := CostDemandElasticity(eng, fixed, false, res.Points[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(es) == 0 {
		t.Fatal("no elasticity samples")
	}
	if MaxElasticity(es) <= 1.001 {
		t.Fatalf("max elasticity = %.3f, want > 1 at the spill (Obs 2)", MaxElasticity(es))
	}
	if math.IsNaN(MaxElasticity(nil)) == false {
		t.Fatal("MaxElasticity(nil) should be NaN")
	}
}

func TestDeadlinesLadder(t *testing.T) {
	d := Deadlines()
	if len(d) != 5 || d[0] != 6 || d[4] != 72 {
		t.Fatalf("ladder = %v", d)
	}
}

func TestTradeSurface3D(t *testing.T) {
	// Small space so the per-rung scans stay cheap.
	cat := ec2.Oregon()
	space, err := config.Uniform(cat.Len(), 2)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.NewEngine(model.FromIPC(cat, galaxy.App{}),
		demand.FromApp(galaxy.App{}), space, galaxy.App{}.Domain())
	if err != nil {
		t.Fatal(err)
	}
	accuracies := []float64{1000, 2000, 4000}
	surface, err := TradeSurface(eng, 32768, accuracies,
		units.FromHours(24), 200)
	if err != nil {
		t.Fatal(err)
	}
	if len(surface) == 0 {
		t.Fatal("empty trade surface")
	}
	// 3-objective nondomination must hold: no point may weakly beat
	// another on all of (accuracy ↑, time ↓, cost ↓) with one strict.
	for i, p := range surface {
		for j, q := range surface {
			if i == j {
				continue
			}
			if q.Accuracy >= p.Accuracy && float64(q.Time) <= float64(p.Time) &&
				float64(q.Cost) <= float64(p.Cost) &&
				(q.Accuracy > p.Accuracy || float64(q.Time) < float64(p.Time) ||
					float64(q.Cost) < float64(p.Cost)) {
				t.Fatalf("surface point %d dominated by %d: %+v vs %+v", i, j, p, q)
			}
		}
	}
	// The highest accuracy rung must appear (nothing can dominate its
	// frontier points on the accuracy axis).
	sawTop := false
	for _, p := range surface {
		if p.Accuracy == 4000 {
			sawTop = true
		}
	}
	if !sawTop {
		t.Fatal("highest accuracy rung missing from the surface")
	}
}

func TestTradeSurfaceValidation(t *testing.T) {
	eng := indexedPaperEngine(t, galaxy.App{})
	if _, err := TradeSurface(eng, 65536, nil, units.FromHours(24), 100); err == nil {
		t.Fatal("empty rung list accepted")
	}
	if _, err := TradeSurface(eng, 65536, []float64{-5}, units.FromHours(24), 100); err == nil {
		t.Fatal("out-of-domain accuracy accepted")
	}
}
