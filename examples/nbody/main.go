// Example nbody: an astrophysics group runs galaxy simulations with a
// fixed nightly deadline and wants to know how much simulation
// accuracy (steps) each budget level buys — the elastic-application
// trade-off at the heart of the paper.
//
// The example runs the real measurement pipeline: it executes
// scale-down n-body baselines under simulated perf counters, fits the
// demand model, measures cloud capacities with timed runs, and only
// then optimizes — exactly what a CELIA user would do against real
// EC2.
package main

import (
	"fmt"
	"log"

	"repro/internal/apps/galaxy"
	"repro/internal/core"
	"repro/internal/profile"
	"repro/internal/units"
)

func main() {
	log.SetFlags(0)

	fmt.Println("characterizing galaxy from scale-down baseline runs...")
	pf := profile.New()
	engine, dr, _, err := pf.BuildEngine(galaxy.App{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("fitted demand: %s (R²=%.5f)\n\n", dr.Fit.Model.Form(), dr.Fit.Model.R2)
	// Each MaxAccuracy below is a bisection of ~20 searches: publish the
	// frontier index once so they read it instead of scanning the space.
	engine.Frontier()

	const masses = 65536
	deadline := units.FromHours(12) // results must be in by morning

	fmt.Printf("n = %d masses, deadline = 12 h\n", masses)
	fmt.Printf("%-10s  %-14s  %-22s %s\n", "budget ($)", "max steps", "configuration", "cost")
	for _, budget := range []float64{25, 50, 100, 200, 350} {
		cons := core.Constraints{Deadline: deadline, Budget: units.USD(budget)}
		p, pred, ok, err := engine.MaxAccuracy(masses, cons, 1e-3)
		if err != nil {
			log.Fatal(err)
		}
		if !ok {
			fmt.Printf("%-10.0f  %-14s\n", budget, "infeasible")
			continue
		}
		fmt.Printf("%-10.0f  %-14.0f  %-22s %v\n", budget, p.A, pred.Config, pred.Cost)
	}

	fmt.Println("\nEvery budget doubling buys roughly proportional accuracy until the")
	fmt.Println("cluster saturates — the 'fix time and problem size, scale accuracy'")
	fmt.Println("case of the paper's fixed-time scaling model.")
}
