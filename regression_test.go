// Regression tests pinning the headline reproduction numbers recorded
// in EXPERIMENTS.md. Everything here is deterministic; if a change
// moves one of these values, EXPERIMENTS.md must move with it —
// deliberately, not silently.
package repro_test

import (
	"math"
	"reflect"
	"sync"
	"testing"

	"repro/internal/apps/galaxy"
	"repro/internal/apps/sand"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/sweep"
	"repro/internal/units"
	"repro/internal/workload"
)

// paperIndexes builds one frontier index per paper application, once
// per test binary, so the argmin tests read an index instead of
// scanning the space per query or building per test.
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

// spillQuery is the paper's annotated spill: galaxy(65536, 8000) at the
// 24 h deadline.
var spillQuery = workload.Params{N: 65536, A: 8000}

// spillExhaustive is MinCostExhaustive's answer to the spill query —
// Algorithm 1's argmin — scanned once per test binary.
var spillExhaustive = sync.OnceValues(func() (model.Prediction, error) {
	pred, _, err := core.NewPaperEngine(galaxy.App{}).MinCostExhaustive(spillQuery, units.FromHours(24))
	return pred, err
})

// requireSpillGolden pins pred, the min-cost answer to the spill query,
// to [5,5,5,1,1,0,0,0,0] at $97.485786171753432 and to Algorithm 1's
// answer bit for bit.
func requireSpillGolden(t *testing.T, pred model.Prediction) {
	t.Helper()
	if pred.Config.String() != "[5,5,5,1,1,0,0,0,0]" {
		t.Errorf("spill config = %s, want [5,5,5,1,1,0,0,0,0] (the paper's [5,5,5,3,0,0,0,0,0])", pred.Config)
	}
	if pred.Cost != 97.485786171753432 {
		t.Errorf("spill min cost = $%.15f, want $97.485786171753432", float64(pred.Cost))
	}
	exh, err := spillExhaustive()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(pred, exh) {
		t.Errorf("spill min cost %s at $%.15f, Algorithm 1 %s at $%.15f",
			pred.Config, float64(pred.Cost), exh.Config, float64(exh.Cost))
	}
}

func TestRegressionFig4Galaxy(t *testing.T) {
	eng := indexedPaperEngine(t, galaxy.App{})
	res, err := sweep.Census(eng, workload.Params{N: 65536, A: 8000},
		units.FromHours(24), 350, 0)
	if err != nil {
		t.Fatal(err)
	}
	an := res.Analysis
	if an.Total != 10077695 {
		t.Errorf("space size = %d, want 10077695 (Eq. 1)", an.Total)
	}
	if an.Feasible != 7916146 {
		t.Errorf("galaxy feasible = %d, want 7916146 (EXPERIMENTS.md)", an.Feasible)
	}
	if len(an.Frontier) != 77 {
		t.Errorf("galaxy frontier = %d points, want 77", len(an.Frontier))
	}
	lo, hi, _ := an.CostSpan()
	if math.Abs(float64(lo)-97.49) > 0.01 || math.Abs(float64(hi)-133.80) > 0.01 {
		t.Errorf("galaxy frontier span = $%.2f..$%.2f, want $97.49..$133.80", float64(lo), float64(hi))
	}
}

func TestRegressionFig4Sand(t *testing.T) {
	eng := core.NewPaperEngine(sand.App{})
	res, err := sweep.Census(eng, workload.Params{N: 8192e6, A: 0.32},
		units.FromHours(24), 350, 0)
	if err != nil {
		t.Fatal(err)
	}
	an := res.Analysis
	if an.Feasible != 543966 {
		t.Errorf("sand feasible = %d, want 543966", an.Feasible)
	}
	if len(an.Frontier) != 51 {
		t.Errorf("sand frontier = %d points, want 51 (paper: 58)", len(an.Frontier))
	}
}

func TestRegressionPaperSpill(t *testing.T) {
	// The paper annotates the spill as [5,5,5,3,0,0,0,0,0]. One
	// m4.xlarge is exactly two m4.large in vCPUs and price ($0.266 =
	// 2 × $0.133), so [5,5,5,1,1,0,0,0,0] is the same cluster; its
	// float sum is one ulp cheaper, which makes it Algorithm 1's answer.
	eng := indexedPaperEngine(t, galaxy.App{})
	pred, ok, err := eng.MinCostForDeadline(spillQuery, units.FromHours(24))
	if err != nil || !ok {
		t.Fatal(ok, err)
	}
	requireSpillGolden(t, pred)
}

func TestRegressionObs3(t *testing.T) {
	engG := indexedPaperEngine(t, galaxy.App{})
	g, err := sweep.Tightening(engG, workload.Params{N: 262144, A: 1000}, []units.Hours{24, 48, 72})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(g.CostRisePct-25.22) > 0.1 {
		t.Errorf("galaxy Obs3 rise = %.2f%%, want ~25.2%% (paper: 40%%)", g.CostRisePct)
	}
	engS := core.NewPaperEngine(sand.App{})
	s, err := sweep.Tightening(engS, workload.Params{N: 8192e6, A: 0.32}, []units.Hours{24, 48})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s.CostRisePct-16.42) > 0.1 {
		t.Errorf("sand Obs3 rise = %.2f%%, want ~16.4%% (paper: 25%%)", s.CostRisePct)
	}
}

func TestRegressionFig6Annotations(t *testing.T) {
	// The 24 h galaxy accuracy curve's configuration progression.
	eng := indexedPaperEngine(t, galaxy.App{})
	want := map[float64]string{
		1000: "[0,3,0,0,0,0,0,0,0]",
		6000: "[0,5,5,0,0,0,0,0,0]",
		8000: "[5,5,5,1,1,0,0,0,0]", // the paper's annotated spill, [5,5,5,3,0,0,0,0,0] (see TestRegressionPaperSpill)
	}
	for s, cfg := range want {
		pred, ok, err := eng.MinCostForDeadline(workload.Params{N: 65536, A: s}, units.FromHours(24))
		if err != nil || !ok {
			t.Fatal(ok, err)
		}
		if pred.Config.String() != cfg {
			t.Errorf("s=%g: config %s, want %s", s, pred.Config, cfg)
		}
		if s == spillQuery.A {
			requireSpillGolden(t, pred)
		}
	}
}
