// Example genomics: a bioinformatics lab assembles genome candidate
// lists with SAND under a grant budget. The lab wants to see (i) what
// alignment quality the budget buys at several deadlines, and (ii) how
// the analytic choice would have played out on the (simulated) cloud —
// prediction vs. actual execution.
package main

import (
	"fmt"
	"log"

	"repro/internal/apps/sand"
	"repro/internal/cloudsim"
	"repro/internal/core"
	"repro/internal/ec2"
	"repro/internal/stats"
	"repro/internal/units"
	"repro/internal/workload"
)

func main() {
	log.SetFlags(0)

	engine := core.NewPaperEngine(sand.App{})
	// Each MaxAccuracy below is a bisection of ~20 searches: publish the
	// frontier index once so they read it instead of scanning the space.
	engine.Frontier()
	const candidates = 2048e6 // 2,048 million candidate pairs

	// (i) Quality vs budget at two deadlines.
	fmt.Printf("sand, n = %g candidates\n\n", float64(candidates))
	fmt.Printf("%-12s  %-10s  %-12s  %-22s %s\n", "deadline (h)", "budget ($)", "threshold t", "configuration", "cost")
	for _, dl := range []float64{24, 72} {
		for _, budget := range []float64{40, 80, 160} {
			cons := core.Constraints{Deadline: units.FromHours(dl), Budget: units.USD(budget)}
			p, pred, ok, err := engine.MaxAccuracy(candidates, cons, 1e-3)
			if err != nil {
				log.Fatal(err)
			}
			if !ok {
				fmt.Printf("%-12.0f  %-10.0f  infeasible\n", dl, budget)
				continue
			}
			fmt.Printf("%-12.0f  %-10.0f  %-12.3f  %-22s %v\n", dl, budget, p.A, pred.Config, pred.Cost)
		}
	}
	fmt.Println("\nThe logarithmic demand means the last stretch of quality is cheap:")
	fmt.Println("going from t≈0.6 to t=1.0 costs far less than the first half did.")

	// (ii) Take the 24 h / $160 pick and actually run it on the cloud
	// substrate.
	cons := core.Constraints{Deadline: units.FromHours(24), Budget: 160}
	p, pred, ok, err := engine.MaxAccuracy(candidates, cons, 1e-3)
	if err != nil || !ok {
		log.Fatalf("no feasible plan: %v", err)
	}
	actual, err := cloudsim.Run(sand.App{}, workload.Params{N: candidates, A: p.A},
		pred.Config, ec2.Oregon(), cloudsim.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nexecuting the 24h/$160 pick %v on the simulated cloud:\n", pred.Config)
	fmt.Printf("  predicted  %6.1f h  %v\n", pred.Time.Hours(), pred.Cost)
	fmt.Printf("  actual     %6.1f h  %v  (%.1f%% error — the paper's Table IV regime)\n",
		actual.Makespan.Hours(), actual.Cost,
		stats.RelErr(float64(pred.Time), float64(actual.Makespan)))
}
