// Benchmarks regenerating every table and figure of the paper's
// evaluation (one benchmark per artifact), plus enumeration-throughput
// and ablation benchmarks for the design choices DESIGN.md calls out.
// Each benchmark prints its paper-vs-measured rows once; run
//
//	go test -bench=. -benchmem
//
// at the repository root to regenerate everything.
package repro_test

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/apps/galaxy"
	"repro/internal/apps/sand"
	"repro/internal/apps/x264"
	"repro/internal/autoscale"
	"repro/internal/cloudsim"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/migrate"
	"repro/internal/model"
	"repro/internal/pareto"
	"repro/internal/profile"
	"repro/internal/report"
	"repro/internal/spot"
	"repro/internal/sweep"
	"repro/internal/uncertainty"
	"repro/internal/units"
	"repro/internal/validate"
	"repro/internal/workload"
)

var printOnce sync.Map

// emit prints a block exactly once per benchmark name so the rows land
// in bench output without repeating across b.N iterations.
func emit(name, block string) {
	if _, loaded := printOnce.LoadOrStore(name, true); !loaded {
		fmt.Printf("\n===== %s =====\n%s\n", name, block)
	}
}

// BenchmarkFig2Characterization regenerates Figure 2: baseline grids
// measured under simulated perf on the local server, fitted per app,
// and evaluated over the paper's parameter ranges.
func BenchmarkFig2Characterization(b *testing.B) {
	apps := []workload.App{x264.App{}, galaxy.App{}, sand.App{}}
	for i := 0; i < b.N; i++ {
		pf := profile.New()
		tb := report.NewTable("Figure 2: demand models fitted from scale-down baselines",
			"app", "family", "R^2", "model")
		for _, app := range apps {
			dr, err := pf.CharacterizeDemand(app)
			if err != nil {
				b.Fatal(err)
			}
			tb.AddRow(app.Name(), dr.Fit.Family, dr.Fit.Model.R2, dr.Fit.Model.Form())
		}
		emit(b.Name(), tb.String())
	}
}

// BenchmarkFig3ResourceCharacterization regenerates Figure 3:
// normalized performance (instructions/s per $) for all nine types.
func BenchmarkFig3ResourceCharacterization(b *testing.B) {
	apps := []workload.App{x264.App{}, galaxy.App{}, sand.App{}}
	for i := 0; i < b.N; i++ {
		pf := profile.New()
		tb := report.NewTable("Figure 3: normalized performance (GI/s per $/h), measured",
			"type", "x264", "galaxy", "sand")
		cols := make([][]float64, len(apps))
		for a, app := range apps {
			cr, err := pf.CharacterizeCapacity(app, false)
			if err != nil {
				b.Fatal(err)
			}
			cols[a] = make([]float64, len(cr.Types))
			for ti, tc := range cr.Types {
				cols[a][ti] = tc.PerDollar / 1e9
			}
		}
		cat := pf.Catalog
		for ti := 0; ti < cat.Len(); ti++ {
			tb.AddRow(cat.Type(ti).Name, cols[0][ti], cols[1][ti], cols[2][ti])
		}
		emit(b.Name(), tb.String()+
			"paper: flat within category; c4 ≈ 2x r3 and m4 ≈ 1.5x r3 per dollar; galaxy c4 ≈ 26.2\n")
	}
}

// BenchmarkCategoryOptimization measures §IV-C's optimization: probing
// one type per category instead of all nine.
func BenchmarkCategoryOptimization(b *testing.B) {
	pf := profile.New()
	var app galaxy.App
	for i := 0; i < b.N; i++ {
		cr, err := pf.CharacterizeCapacity(app, true)
		if err != nil {
			b.Fatal(err)
		}
		probed := 0
		for _, tc := range cr.Types {
			if tc.Measured {
				probed++
			}
		}
		b.ReportMetric(float64(probed), "probes")
		emit(b.Name(), fmt.Sprintf("per-category probing: %d cloud probes instead of %d (§IV-C)",
			probed, len(cr.Types)))
	}
}

// BenchmarkTable4Validation regenerates Table IV: analytic predictions
// vs. simulated-cloud actuals for the nine validation cases.
func BenchmarkTable4Validation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := validate.Run(profile.New(), validate.PaperCases())
		if err != nil {
			b.Fatal(err)
		}
		tb := report.NewTable("Table IV: model validation (paper max errors: x264 9.5%, galaxy 13.1%, sand 16.7%)",
			"case", "config", "T pred (h)", "T actual (h)", "C pred ($)", "C actual ($)", "err (%)")
		var maxErr float64
		for _, r := range rows {
			tb.AddRow(r.Case.Name(), r.Case.Config.String(),
				r.PredictedTime.Hours(), r.ActualTime.Hours(),
				float64(r.PredictedCost), float64(r.ActualCost), r.TimeErrPct)
			if r.TimeErrPct > maxErr {
				maxErr = r.TimeErrPct
			}
		}
		b.ReportMetric(maxErr, "maxerr%")
		emit(b.Name(), tb.String())
	}
}

// BenchmarkFig4ConfigSpace regenerates Figure 4: the census of the
// 10,077,695-configuration space for galaxy and sand under the 24 h /
// $350 constraints, with the Pareto frontier.
func BenchmarkFig4ConfigSpace(b *testing.B) {
	cases := []struct {
		app workload.App
		p   workload.Params
	}{
		{galaxy.App{}, workload.Params{N: 65536, A: 8000}},
		{sand.App{}, workload.Params{N: 8192e6, A: 0.32}},
	}
	for i := 0; i < b.N; i++ {
		var block string
		for _, c := range cases {
			eng := core.NewPaperEngine(c.app)
			res, err := sweep.Census(eng, c.p, units.FromHours(24), 350, 0)
			if err != nil {
				b.Fatal(err)
			}
			an := res.Analysis
			lo, hi, ratio := an.CostSpan()
			block += fmt.Sprintf(
				"%s%v: %d of %d feasible; %d Pareto-optimal; frontier cost $%.0f..$%.0f (%.2fx span); Obs1 saving %.0f%%\n",
				c.app.Name(), c.p, an.Feasible, an.Total, len(an.Frontier),
				float64(lo), float64(hi), ratio, res.SavingPct)
			if c.app.Name() == "galaxy" {
				b.ReportMetric(float64(an.Feasible), "feasible")
				b.ReportMetric(float64(len(an.Frontier)), "pareto")
			}
		}
		emit(b.Name(), block+
			"paper: ~5.8M/2M feasible; 23/58 Pareto points; spans 1.3x/1.2x; savings up to 30%\n")
	}
}

// BenchmarkFig5ProblemScaling regenerates Figure 5: minimum cost vs
// problem size across the deadline ladder.
func BenchmarkFig5ProblemScaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var block string
		engG := core.NewPaperEngine(galaxy.App{})
		resG, err := sweep.MinCostCurve(engG, workload.Params{A: 1000}, true, "n",
			[]float64{32768, 65536, 131072, 262144}, sweep.Deadlines())
		if err != nil {
			b.Fatal(err)
		}
		block += renderScaling("Figure 5(a): galaxy min cost ($) vs n (s=1000)", resG)
		engS := core.NewPaperEngine(sand.App{})
		resS, err := sweep.MinCostCurve(engS, workload.Params{A: 0.32}, true, "n",
			[]float64{1024e6, 2048e6, 4096e6, 8192e6}, sweep.Deadlines())
		if err != nil {
			b.Fatal(err)
		}
		block += renderScaling("Figure 5(b): sand min cost ($) vs n (t=0.32)", resS)
		emit(b.Name(), block+"paper: quadratic growth (galaxy), linear growth (sand); gradient jumps at category spills\n")
	}
}

// BenchmarkFig6AccuracyScaling regenerates Figure 6: minimum cost vs
// accuracy, with the spill-annotated configurations of Figure 6(a).
func BenchmarkFig6AccuracyScaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var block string
		engG := core.NewPaperEngine(galaxy.App{})
		resG, err := sweep.MinCostCurve(engG, workload.Params{N: 65536}, false, "s",
			[]float64{1000, 2000, 3000, 4000, 5000, 6000, 7000, 8000, 9000, 10000},
			sweep.Deadlines())
		if err != nil {
			b.Fatal(err)
		}
		block += renderScaling("Figure 6(a): galaxy min cost ($) vs s (n=65536)", resG)
		// The paper annotates the 24 h curve's configurations.
		for _, pt := range resG.Points[2] {
			if pt.Feasible {
				block += fmt.Sprintf("  24h s=%-6.0f %s  $%.2f\n", pt.Value, pt.Config, float64(pt.Cost))
			}
		}
		engS := core.NewPaperEngine(sand.App{})
		resS, err := sweep.MinCostCurve(engS, workload.Params{N: 8192e6}, false, "t",
			[]float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0}, sweep.Deadlines())
		if err != nil {
			b.Fatal(err)
		}
		block += renderScaling("Figure 6(b): sand min cost ($) vs t (n=8192M)", resS)
		emit(b.Name(), block+"paper: linear cost in s (galaxy), logarithmic in t (sand); c4 fills then spills to m4\n")
	}
}

func renderScaling(title string, res sweep.ScalingResult) string {
	headers := []string{res.VaryName + " \\ deadline"}
	for _, d := range res.Deadlines {
		headers = append(headers, fmt.Sprintf("%.0fh", d))
	}
	tb := report.NewTable(title, headers...)
	for vi, v := range res.Values {
		cells := []interface{}{fmt.Sprintf("%g", v)}
		for di := range res.Deadlines {
			pt := res.Points[di][vi]
			if pt.Feasible {
				cells = append(cells, float64(pt.Cost))
			} else {
				cells = append(cells, "-")
			}
		}
		tb.AddRow(cells...)
	}
	return tb.String()
}

// BenchmarkObs3DeadlineTightening regenerates Observation 3's numbers.
func BenchmarkObs3DeadlineTightening(b *testing.B) {
	for i := 0; i < b.N; i++ {
		engG := core.NewPaperEngine(galaxy.App{})
		g, err := sweep.Tightening(engG, workload.Params{N: 262144, A: 1000}, []units.Hours{24, 48, 72})
		if err != nil {
			b.Fatal(err)
		}
		engS := core.NewPaperEngine(sand.App{})
		s, err := sweep.Tightening(engS, workload.Params{N: 8192e6, A: 0.32}, []units.Hours{24, 48})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(g.CostRisePct, "galaxy-rise%")
		b.ReportMetric(s.CostRisePct, "sand-rise%")
		emit(b.Name(), fmt.Sprintf(
			"galaxy(262144,1000): deadline cut %.0f%% -> cost +%.0f%% (paper: 67%% -> +40%%)\n"+
				"sand(8192M,0.32):    deadline cut %.0f%% -> cost +%.0f%% (paper: 50%% -> +25%%)",
			g.DeadlineCutPct, g.CostRisePct, s.DeadlineCutPct, s.CostRisePct))
	}
}

// BenchmarkEnumerationSequential measures Algorithm 1's raw scan rate
// over the full 10,077,695-configuration space (Eq. 1).
func BenchmarkEnumerationSequential(b *testing.B) {
	eng := core.NewPaperEngine(galaxy.App{})
	d, err := eng.Demand(workload.Params{N: 65536, A: 8000})
	if err != nil {
		b.Fatal(err)
	}
	space := eng.Space()
	caps := eng.Capacities()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var feasible uint64
		space.ForEach(func(t config.Tuple) bool {
			pred := caps.Predict(d, t)
			if pred.Time.Hours() < 24 && pred.Cost < 350 {
				feasible++
			}
			return true
		})
		if feasible == 0 {
			b.Fatal("no feasible configurations")
		}
	}
	b.ReportMetric(float64(space.Size())*float64(b.N)/b.Elapsed().Seconds(), "configs/s")
}

// BenchmarkEnumerationParallel measures the parallel census used by
// Analyze.
func BenchmarkEnumerationParallel(b *testing.B) {
	eng := core.NewPaperEngine(galaxy.App{})
	p := workload.Params{N: 65536, A: 8000}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		an, err := eng.Analyze(p, core.Constraints{Deadline: units.FromHours(24), Budget: 350}, core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if an.Feasible == 0 {
			b.Fatal("no feasible configurations")
		}
	}
	b.ReportMetric(float64(eng.Space().Size())*float64(b.N)/b.Elapsed().Seconds(), "configs/s")
}

// BenchmarkAblationEpsilon sweeps the ε-nondomination box size and
// reports the frontier coarsening (pareto.py's knob).
func BenchmarkAblationEpsilon(b *testing.B) {
	eng := core.NewPaperEngine(galaxy.App{})
	p := workload.Params{N: 65536, A: 8000}
	cons := core.Constraints{Deadline: units.FromHours(24), Budget: 350}
	for i := 0; i < b.N; i++ {
		var block string
		exact, err := eng.Analyze(p, cons, core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		block += fmt.Sprintf("epsilon=exact: %d frontier points\n", len(exact.Frontier))
		for _, eps := range []struct{ t, c float64 }{{900, 2}, {1800, 5}, {3600, 10}} {
			an, err := eng.Analyze(p, cons, core.Options{EpsTime: eps.t, EpsCost: eps.c})
			if err != nil {
				b.Fatal(err)
			}
			block += fmt.Sprintf("epsilon=(%.0fs,$%.0f): %d frontier points\n", eps.t, eps.c, len(an.Frontier))
		}
		emit(b.Name(), block)
	}
}

// BenchmarkParetoStream measures the streaming frontier's insert rate.
func BenchmarkParetoStream(b *testing.B) {
	pts := make([]pareto.Point, 1<<16)
	for i := range pts {
		x := float64(i%251) + 1
		pts[i] = pareto.Point{X: x, Y: 1e6 / x * (1 + float64((i*2654435761)%1000)/1000), ID: uint64(i)}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var s pareto.Stream2D
		for _, p := range pts {
			s.Add(p)
		}
		if len(s.Frontier()) == 0 {
			b.Fatal("empty frontier")
		}
	}
	b.ReportMetric(float64(len(pts))*float64(b.N)/b.Elapsed().Seconds(), "points/s")
}

// BenchmarkCloudsimGalaxy measures the DES substrate on the largest
// Table IV case.
func BenchmarkCloudsimGalaxy(b *testing.B) {
	c := validate.PaperCases()[5]
	pf := profile.New()
	for i := 0; i < b.N; i++ {
		rows, err := validate.Run(pf, []validate.Case{c})
		if err != nil {
			b.Fatal(err)
		}
		_ = rows
	}
}

// BenchmarkExtensionHourlyBilling compares the Pareto frontier under
// exact (Eq. 5) and per-instance-hour billing — the 2017-era EC2
// charging the paper's cost model idealizes away.
func BenchmarkExtensionHourlyBilling(b *testing.B) {
	p := workload.Params{N: 65536, A: 8000}
	cons := core.Constraints{Deadline: units.FromHours(24), Budget: 350}
	for i := 0; i < b.N; i++ {
		exact := core.NewPaperEngine(galaxy.App{})
		hourly := core.NewPaperEngine(galaxy.App{})
		hourly.SetBilling(model.PerHour)
		ae, err := exact.Analyze(p, cons, core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		ah, err := hourly.Analyze(p, cons, core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		pe, _, err := exact.MinCostForDeadline(p, cons.Deadline)
		if err != nil {
			b.Fatal(err)
		}
		ph, _, err := hourly.MinCostForDeadline(p, cons.Deadline)
		if err != nil {
			b.Fatal(err)
		}
		emit(b.Name(), fmt.Sprintf(
			"per-second billing: %d frontier points, min cost %v\n"+
				"per-hour billing:   %d frontier points, min cost %v (+%.1f%%)",
			len(ae.Frontier), pe.Cost, len(ah.Frontier), ph.Cost,
			(float64(ph.Cost)/float64(pe.Cost)-1)*100))
	}
}

// BenchmarkExtensionUncertainty measures the Monte Carlo robust
// selector on the paper's Figure 4 problem.
func BenchmarkExtensionUncertainty(b *testing.B) {
	eng := core.NewPaperEngine(galaxy.App{})
	ua, err := uncertainty.NewAnalyzer(eng.Capacities(), uncertainty.DefaultSources())
	if err != nil {
		b.Fatal(err)
	}
	p := workload.Params{N: 65536, A: 8000}
	for i := 0; i < b.N; i++ {
		pred, ok, err := uncertainty.RobustMinCost(eng, ua, p, units.FromHours(24), 0.95)
		if err != nil || !ok {
			b.Fatal(ok, err)
		}
		point, _, err := eng.MinCostForDeadline(p, units.FromHours(24))
		if err != nil {
			b.Fatal(err)
		}
		emit(b.Name(), fmt.Sprintf(
			"point-optimal %v at $%.0f (P(deadline) unknown)\nrobust (95%%)  %v at $%.0f mean, time p95 %.1fh",
			point.Config, float64(point.Cost), pred.Config, pred.CostUSD.Mean, pred.TimeSeconds.P95/3600))
	}
}

// BenchmarkExtensionSpot prices the Figure 4 frontier on the simulated
// spot market.
func BenchmarkExtensionSpot(b *testing.B) {
	eng := core.NewPaperEngine(galaxy.App{})
	p := workload.Params{N: 65536, A: 8000}
	deadline := units.FromHours(24)
	an, err := eng.Analyze(p, core.Constraints{Deadline: deadline, Budget: 350}, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	cands := make([]config.Tuple, len(an.Frontier))
	for i, f := range an.Frontier {
		cands[i] = f.Config
	}
	d, _ := eng.Demand(p)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		market, err := spot.NewMarket(eng.Capacities().Catalog(), spot.DefaultMarket(), 42)
		if err != nil {
			b.Fatal(err)
		}
		ev := spot.NewEvaluator(market, eng.Capacities())
		rec, err := ev.Recommend(d, cands, deadline, 0.9)
		if err != nil {
			b.Fatal(err)
		}
		verdict := "on-demand"
		if rec.UseSpot {
			verdict = fmt.Sprintf("spot, %.0f%% expected saving", rec.SavingPct)
		}
		emit(b.Name(), fmt.Sprintf("recommendation at 90%% confidence: %s", verdict))
	}
}

// BenchmarkFailureInjection measures the simulator's failure-recovery
// path on an x264 clip farm.
func BenchmarkFailureInjection(b *testing.B) {
	cat := profile.New().Catalog
	p := workload.Params{N: 256, A: 20}
	tuple := config.MustTuple(2, 1, 0, 0, 0, 0, 0, 0, 0)
	base, err := cloudsim.Run(x264.App{}, p, tuple, cat, cloudsim.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opts := cloudsim.DefaultOptions()
		opts.Trace = faults.NewTrace(faults.Event{Instance: 2, At: base.Makespan / 2})
		res, err := cloudsim.Run(x264.App{}, p, tuple, cat, opts)
		if err != nil {
			b.Fatal(err)
		}
		emit(b.Name(), fmt.Sprintf(
			"x264(256,20) on %v: healthy %.0fs $%.2f; losing instance 2 mid-run: %.0fs $%.2f",
			tuple, float64(base.Makespan), float64(base.Cost),
			float64(res.Makespan), float64(res.Cost)))
	}
}

// BenchmarkComparisonAutoscale quantifies the related-work comparison:
// a Mao-style reactive autoscaler vs CELIA's static model-chosen
// optimum on the Figure 4 problem.
func BenchmarkComparisonAutoscale(b *testing.B) {
	eng := core.NewPaperEngine(galaxy.App{})
	p := workload.Params{N: 65536, A: 8000}
	deadline := units.FromHours(24)
	d, err := eng.Demand(p)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		tr, err := autoscale.Simulate(eng.Capacities(), eng.Space(), d, deadline, autoscale.DefaultPolicy())
		if err != nil {
			b.Fatal(err)
		}
		static, ok, err := eng.MinCostForDeadline(p, deadline)
		if err != nil || !ok {
			b.Fatal(ok, err)
		}
		premium := autoscale.CompareStatic(tr, static.Cost)
		b.ReportMetric(premium, "premium%")
		emit(b.Name(), fmt.Sprintf(
			"reactive autoscaler: $%.2f over %d epochs (finished %.1fh, deadline met: %v)\n"+
				"CELIA static optimum: $%.2f on %v\npremium of reactive scaling: %.1f%%",
			float64(tr.TotalCost), len(tr.Steps), tr.FinishTime.Hours(), tr.Finished,
			float64(static.Cost), static.Config, premium))
	}
}

// BenchmarkComparisonMigration measures the migration advisor on a
// mid-run deadline change.
func BenchmarkComparisonMigration(b *testing.B) {
	eng := core.NewPaperEngine(galaxy.App{})
	var app galaxy.App
	d := app.Demand(workload.Params{N: 65536, A: 8000})
	st := migrate.State{
		Current:           config.MustTuple(0, 0, 0, 0, 0, 0, 5, 5, 5),
		RemainingDemand:   units.Instructions(0.7 * float64(d)),
		RemainingDeadline: units.FromHours(36),
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dec, err := migrate.Advise(eng.Capacities(), eng.Space(), st, migrate.DefaultOverheads())
		if err != nil {
			b.Fatal(err)
		}
		emit(b.Name(), fmt.Sprintf(
			"running on %v with 70%% of galaxy(65536,8000) left and 36h remaining:\n"+
				"  stay: $%.2f (meets deadline: %v)\n  move to %v: $%.2f -> migrate: %v",
			st.Current, float64(dec.StayCost), dec.StayMeetsDeadline,
			dec.Target, float64(dec.MoveCost), dec.Migrate))
	}
}
