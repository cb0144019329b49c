package core_test

import (
	"fmt"

	"repro/internal/apps/galaxy"
	"repro/internal/core"
	"repro/internal/units"
	"repro/internal/workload"
)

// ExampleEngine_MinCostForDeadline reproduces the paper's Figure 6(a)
// annotation: the cheapest configuration for galaxy(65536, 8000) at a
// 24-hour deadline saturates the c4 category and spills into m4. The
// paper writes the spill [5,5,5,3,0,0,0,0,0]; one m4.xlarge equals two
// m4.large in vCPUs and price, and Algorithm 1's float argmin spells
// the same cluster with one of each.
func ExampleEngine_MinCostForDeadline() {
	engine := core.NewPaperEngine(galaxy.App{})
	pred, ok, err := engine.MinCostForDeadline(
		workload.Params{N: 65536, A: 8000}, units.FromHours(24))
	if err != nil || !ok {
		panic(err)
	}
	fmt.Printf("%v at %v\n", pred.Config, pred.Cost)
	// Output: [5,5,5,1,1,0,0,0,0] at $97.49
}

// ExampleEngine_Analyze runs Algorithm 1 over the full ten-million
// configuration space and Pareto-filters the feasible set.
func ExampleEngine_Analyze() {
	engine := core.NewPaperEngine(galaxy.App{})
	analysis, err := engine.Analyze(
		workload.Params{N: 65536, A: 8000},
		core.Constraints{Deadline: units.FromHours(24), Budget: 350},
		core.Options{})
	if err != nil {
		panic(err)
	}
	lo, hi, _ := analysis.CostSpan()
	fmt.Printf("%d configurations, %d feasible, %d Pareto-optimal (%v..%v)\n",
		analysis.Total, analysis.Feasible, len(analysis.Frontier), lo, hi)
	// Output: 10077695 configurations, 7916146 feasible, 77 Pareto-optimal ($97.49..$133.80)
}

// ExampleEngine_MaxAccuracy answers the elastic-application question:
// how much accuracy does a fixed deadline and budget buy? The answer is
// a bisection of ~20 searches, so the engine publishes its frontier
// index first: one build, then each search reads the index instead of
// scanning the space.
func ExampleEngine_MaxAccuracy() {
	engine := core.NewPaperEngine(galaxy.App{})
	engine.Frontier()
	p, _, ok, err := engine.MaxAccuracy(65536,
		core.Constraints{Deadline: units.FromHours(24), Budget: 50}, 1e-3)
	if err != nil || !ok {
		panic(err)
	}
	fmt.Printf("within $50 and 24h: about %d simulation steps\n", int(p.A/100)*100)
	// Output: within $50 and 24h: about 4200 simulation steps
}
