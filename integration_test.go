// End-to-end integration tests: the complete CELIA workflow — baseline
// measurement → demand fitting → capacity probing → configuration
// selection → simulated execution — wired together exactly as a user
// would run it, with cross-substrate consistency assertions.
package repro_test

import (
	"math"
	"testing"

	"repro/internal/apps/galaxy"
	"repro/internal/apps/sand"
	"repro/internal/apps/x264"
	"repro/internal/cloudsim"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/profile"
	"repro/internal/spot"
	"repro/internal/stats"
	"repro/internal/uncertainty"
	"repro/internal/units"
	"repro/internal/workload"
)

// TestEndToEndPipeline runs measurement → selection → execution for
// each application and checks the selected configuration actually
// meets its deadline on the simulated cloud within the validation
// error band.
func TestEndToEndPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline is compute-heavy")
	}
	cases := []struct {
		app      workload.App
		p        workload.Params
		deadline float64 // hours
	}{
		{x264.App{}, workload.Params{N: 8000, A: 20}, 36},
		{galaxy.App{}, workload.Params{N: 65536, A: 4000}, 48},
		{sand.App{}, workload.Params{N: 1024e6, A: 0.32}, 24},
	}
	pf := profile.New()
	for _, c := range cases {
		eng, dr, cr, err := pf.BuildEngine(c.app)
		if err != nil {
			t.Fatalf("%s: pipeline: %v", c.app.Name(), err)
		}
		if dr.Fit.Model.R2 < 0.999 {
			t.Errorf("%s: weak fit R²=%v", c.app.Name(), dr.Fit.Model.R2)
		}
		if cr.Capacities == nil {
			t.Fatalf("%s: no capacities", c.app.Name())
		}
		pred, ok, err := eng.MinCostForDeadline(c.p, units.FromHours(c.deadline))
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatalf("%s%v: no feasible configuration within %vh", c.app.Name(), c.p, c.deadline)
		}
		actual, err := cloudsim.Run(c.app, c.p, pred.Config, pf.Catalog, pf.SimOpts)
		if err != nil {
			t.Fatal(err)
		}
		// Prediction and execution must agree within the Table IV band.
		if e := stats.RelErr(float64(pred.Time), float64(actual.Makespan)); e > 17 {
			t.Errorf("%s%v on %v: model %v vs cloud %v (%.1f%%)",
				c.app.Name(), c.p, pred.Config, pred.Time, actual.Makespan, e)
		}
		// The actual run should respect the deadline with the model's
		// safety margin, or miss it only within the error band.
		if actual.Makespan.Hours() > c.deadline*1.17 {
			t.Errorf("%s%v: actual run %.1fh blows the %vh deadline beyond the error band",
				c.app.Name(), c.p, actual.Makespan.Hours(), c.deadline)
		}
	}
}

// TestGroundTruthVsMeasuredEngines compares the two engine
// construction paths on the same queries: the measured engine may be
// biased (that is the point) but must stay within the validation band
// and preserve the optimizer's structure.
func TestGroundTruthVsMeasuredEngines(t *testing.T) {
	if testing.Short() {
		t.Skip("measurement pipeline is compute-heavy")
	}
	pf := profile.New()
	measured, _, _, err := pf.BuildEngine(galaxy.App{})
	if err != nil {
		t.Fatal(err)
	}
	truth := indexedPaperEngine(t, galaxy.App{})
	p := workload.Params{N: 65536, A: 8000}
	for _, h := range []float64{12, 24, 48} {
		mt, okM, err := measured.MinCostForDeadline(p, units.FromHours(h))
		if err != nil {
			t.Fatal(err)
		}
		gt, okG, err := truth.MinCostForDeadline(p, units.FromHours(h))
		if err != nil {
			t.Fatal(err)
		}
		if okM != okG {
			// The biased engine may declare a borderline deadline
			// infeasible; that is acceptable only near the boundary.
			continue
		}
		if !okM {
			continue
		}
		if e := stats.RelErr(float64(mt.Cost), float64(gt.Cost)); e > 20 {
			t.Errorf("deadline %vh: measured cost %v vs truth %v (%.1f%%)", h, mt.Cost, gt.Cost, e)
		}
	}
}

// TestSelectorAgainstSimulatorFrontier cross-checks that no point of
// the analytic Pareto frontier is grossly mispredicted: executing
// frontier configurations on the simulator preserves their time
// ordering.
func TestSelectorAgainstSimulatorFrontier(t *testing.T) {
	eng := indexedPaperEngine(t, galaxy.App{})
	p := workload.Params{N: 16384, A: 1000}
	an, err := eng.Analyze(p, core.Constraints{Deadline: units.FromHours(24), Budget: 50}, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(an.Frontier) < 3 {
		t.Fatalf("frontier too small to order-check: %d", len(an.Frontier))
	}
	// Execute a spread of frontier points.
	idx := []int{0, len(an.Frontier) / 2, len(an.Frontier) - 1}
	var prev float64
	for k, i := range idx {
		res, err := cloudsim.Run(galaxy.App{}, p, an.Frontier[i].Config, profile.New().Catalog,
			cloudsim.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		if k > 0 && float64(res.Makespan) <= prev {
			t.Fatalf("simulated times out of frontier order at point %d", i)
		}
		prev = float64(res.Makespan)
	}
}

// TestRobustAndSpotComposition exercises the two extension layers on
// top of one frontier: uncertainty-aware robust selection and the
// spot-market recommendation.
func TestRobustAndSpotComposition(t *testing.T) {
	eng := indexedPaperEngine(t, galaxy.App{})
	p := workload.Params{N: 65536, A: 8000}
	deadline := units.FromHours(24)

	ua, err := uncertainty.NewAnalyzer(eng.Capacities(), uncertainty.DefaultSources())
	if err != nil {
		t.Fatal(err)
	}
	robust, ok, err := uncertainty.RobustMinCost(eng, ua, p, deadline, 0.9)
	if err != nil || !ok {
		t.Fatalf("robust selection failed: %v %v", ok, err)
	}

	market, err := spot.NewMarket(eng.Capacities().Catalog(), spot.DefaultMarket(), 11)
	if err != nil {
		t.Fatal(err)
	}
	ev := spot.NewEvaluator(market, eng.Capacities())
	d, _ := eng.Demand(p)
	plan, err := ev.Evaluate(d, robust.Config, deadline)
	if err != nil {
		t.Fatal(err)
	}
	if plan.ExpectedSpotCost <= 0 {
		t.Fatal("spot evaluation degenerate")
	}
	// On-demand cost of the robust pick must be consistent across
	// layers (same Eq. 5).
	pointCost := float64(eng.Capacities().Predict(d, robust.Config).Cost)
	if math.Abs(float64(plan.OnDemandCost)-pointCost) > 1e-9 {
		t.Fatalf("cost disagreement across layers: %v vs %v", plan.OnDemandCost, pointCost)
	}
}

// TestBillingConsistencyAcrossLayers: the engine's hourly billing and
// model.Bill must agree everywhere.
func TestBillingConsistencyAcrossLayers(t *testing.T) {
	eng := core.NewPaperEngine(sand.App{})
	eng.SetBilling(model.PerHour)
	p := workload.Params{N: 2048e6, A: 0.32}
	pred, ok, err := eng.MinCostForDeadline(p, units.FromHours(48))
	if err != nil || !ok {
		t.Fatal(ok, err)
	}
	want := model.Bill(pred.Time, pred.UnitCost, model.PerHour)
	if math.Abs(float64(pred.Cost-want)) > 1e-9 {
		t.Fatalf("engine billed %v, model bills %v", pred.Cost, want)
	}
}
