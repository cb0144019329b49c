package schedule

import (
	"testing"

	"repro/internal/apps/galaxy"
	"repro/internal/core"
	"repro/internal/demand"
	"repro/internal/model"
)

// BenchmarkScheduleSolveDiurnal1k times the DP over the 1,000-step
// golden diurnal trace with the frontier index pre-built — the number
// cmd/celia-bench compares against 1,000 independent exhaustive scans.
func BenchmarkScheduleSolveDiurnal1k(b *testing.B) { benchSolveGolden(b, model.PerSecond) }

// BenchmarkScheduleSolveDiurnal1kPerHour is the same solve under
// per-hour billing. Its release carry loosens the relaxation's bound
// the most, so it is the rung where the pruned scan evaluates the most
// transitions.
func BenchmarkScheduleSolveDiurnal1kPerHour(b *testing.B) { benchSolveGolden(b, model.PerHour) }

func benchSolveGolden(b *testing.B, billing model.Billing) {
	eng := core.NewPaperEngine(galaxy.App{})
	eng.SetBilling(billing)
	if _, ok := eng.FrontierCandidates(); !ok {
		b.Fatal("paper catalog did not compress into a frontier index")
	}
	tr := demand.GoldenDiurnal()
	pol := PolicyFor(eng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sched, err := Solve(eng, tr, pol)
		if err != nil {
			b.Fatal(err)
		}
		if sched.Misses != 0 {
			b.Fatalf("golden trace missed %d steps", sched.Misses)
		}
	}
}
