package baseline

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/apps/galaxy"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/ec2"
	"repro/internal/model"
	"repro/internal/units"
	"repro/internal/workload"
)

// randomSetup builds a random catalog/capacity/space triple.
func randomSetup(t *testing.T, rng *rand.Rand) (*model.Capacities, *config.Space) {
	t.Helper()
	nTypes := 2 + rng.Intn(5)
	var types []ec2.InstanceType
	for i := 0; i < nTypes; i++ {
		types = append(types, ec2.InstanceType{
			Name:     fmt.Sprintf("t%d", i),
			Category: ec2.Category(fmt.Sprintf("cat%d", i%3)),
			VCPUs:    1 << uint(rng.Intn(3)),
			BaseGHz:  1 + 2*rng.Float64(),
			Price:    units.USDPerHour(0.05 + rng.Float64()),
		})
	}
	cat, err := ec2.NewCatalog(types)
	if err != nil {
		t.Fatal(err)
	}
	rates := make([]units.Rate, nTypes)
	for i := range rates {
		rates[i] = units.GIPS(0.5 + 3*rng.Float64())
	}
	caps, err := model.New(cat, rates)
	if err != nil {
		t.Fatal(err)
	}
	limits := make([]int, nTypes)
	for i := range limits {
		limits[i] = 1 + rng.Intn(4)
	}
	space, err := config.NewSpace(limits)
	if err != nil {
		t.Fatal(err)
	}
	return caps, space
}

// exhaustiveMinCost is the trusted oracle.
func exhaustiveMinCost(caps *model.Capacities, space *config.Space, d units.Instructions,
	deadline units.Seconds) (model.Prediction, bool) {
	best := model.Prediction{Cost: units.USD(math.Inf(1))}
	found := false
	space.ForEach(func(tp config.Tuple) bool {
		pred := caps.Predict(d, tp)
		if float64(pred.Time) < float64(deadline) && pred.Cost < best.Cost {
			best = pred
			found = true
		}
		return true
	})
	return best, found
}

func TestBranchBoundExactRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 60; trial++ {
		caps, space := randomSetup(t, rng)
		// Max capacity for feasibility scaling.
		var maxU float64
		space.ForEach(func(tp config.Tuple) bool {
			if u := float64(caps.Capacity(tp)); u > maxU {
				maxU = u
			}
			return true
		})
		deadline := units.Seconds(3600 * (1 + 10*rng.Float64()))
		d := units.Instructions(maxU * (0.1 + 0.85*rng.Float64()) * float64(deadline))
		want, okWant := exhaustiveMinCost(caps, space, d, deadline)
		got, okGot := BranchBoundMinCost(caps, space, d, deadline)
		if okWant != okGot {
			t.Fatalf("trial %d: feasibility mismatch bb=%v exhaustive=%v", trial, okGot, okWant)
		}
		if !okWant {
			continue
		}
		if math.Abs(float64(got.Cost-want.Cost)) > 1e-9*math.Max(1, float64(want.Cost)) {
			t.Fatalf("trial %d: branch-and-bound %v != exhaustive %v (%v vs %v)",
				trial, got.Cost, want.Cost, got.Config, want.Config)
		}
	}
}

func TestGreedyFeasibleAndBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	var worstGap float64
	for trial := 0; trial < 60; trial++ {
		caps, space := randomSetup(t, rng)
		var maxU float64
		space.ForEach(func(tp config.Tuple) bool {
			if u := float64(caps.Capacity(tp)); u > maxU {
				maxU = u
			}
			return true
		})
		deadline := units.Seconds(3600 * 5)
		d := units.Instructions(maxU * (0.1 + 0.8*rng.Float64()) * float64(deadline))
		exact, okE := exhaustiveMinCost(caps, space, d, deadline)
		greedy, okG := GreedyMinCost(caps, space, d, deadline)
		if okE && !okG {
			t.Fatalf("trial %d: greedy failed on a feasible problem", trial)
		}
		if !okG {
			continue
		}
		if float64(greedy.Time) >= float64(deadline) {
			t.Fatalf("trial %d: greedy missed the deadline", trial)
		}
		gap := Gap(greedy, exact)
		if gap < -1e-9 {
			t.Fatalf("trial %d: greedy (%v) beats the exact optimum (%v)?", trial, greedy.Cost, exact.Cost)
		}
		if gap > worstGap {
			worstGap = gap
		}
	}
	if worstGap == 0 {
		t.Log("greedy matched the optimum on every trial (unusual but not wrong)")
	}
	// Sanity: the heuristic should not be catastrophically bad.
	if worstGap > 150 {
		t.Fatalf("greedy worst-case gap %.1f%% is implausibly large", worstGap)
	}
}

func TestBranchBoundOnPaperProblem(t *testing.T) {
	// The paper setup: branch-and-bound must agree with CELIA's
	// min-cost search on the Figure 4 problem.
	eng := core.NewPaperEngine(galaxy.App{})
	p := workload.Params{N: 65536, A: 8000}
	deadline := units.FromHours(24)
	d, err := eng.Demand(p)
	if err != nil {
		t.Fatal(err)
	}
	bb, ok := BranchBoundMinCost(eng.Capacities(), eng.Space(), d, deadline)
	if !ok {
		t.Fatal("branch-and-bound found nothing")
	}
	celia, okC, err := eng.MinCostForDeadline(p, deadline)
	if err != nil || !okC {
		t.Fatal(okC, err)
	}
	if math.Abs(float64(bb.Cost-celia.Cost)) > 1e-9 {
		t.Fatalf("branch-and-bound %v != CELIA %v", bb.Cost, celia.Cost)
	}
}

func TestGreedyOnPaperProblem(t *testing.T) {
	eng := core.NewPaperEngine(galaxy.App{})
	p := workload.Params{N: 65536, A: 8000}
	d, err := eng.Demand(p)
	if err != nil {
		t.Fatal(err)
	}
	greedy, ok := GreedyMinCost(eng.Capacities(), eng.Space(), d, units.FromHours(24))
	if !ok {
		t.Fatal("greedy found nothing")
	}
	celia, _, err := eng.MinCostForDeadline(p, units.FromHours(24))
	if err != nil {
		t.Fatal(err)
	}
	gap := Gap(greedy, celia)
	if gap < 0 || gap > 25 {
		t.Fatalf("greedy gap on the paper problem = %.1f%%", gap)
	}
}

func TestInfeasibleInputs(t *testing.T) {
	eng := core.NewPaperEngine(galaxy.App{})
	d := units.Instructions(1e22) // beyond any capacity at this deadline
	if _, ok := GreedyMinCost(eng.Capacities(), eng.Space(), d, units.FromHours(1)); ok {
		t.Fatal("greedy claimed feasibility")
	}
	if _, ok := BranchBoundMinCost(eng.Capacities(), eng.Space(), d, units.FromHours(1)); ok {
		t.Fatal("branch-and-bound claimed feasibility")
	}
	if _, ok := GreedyMinCost(eng.Capacities(), eng.Space(), 1, 0); ok {
		t.Fatal("zero deadline accepted")
	}
	if _, ok := BranchBoundMinCost(eng.Capacities(), eng.Space(), 1, 0); ok {
		t.Fatal("zero deadline accepted")
	}
}

func TestGapHelper(t *testing.T) {
	h := model.Prediction{Cost: 110}
	e := model.Prediction{Cost: 100}
	if g := Gap(h, e); math.Abs(g-10) > 1e-9 {
		t.Fatalf("Gap = %v, want 10", g)
	}
	if g := Gap(h, model.Prediction{}); g != 0 {
		t.Fatalf("Gap with zero exact = %v", g)
	}
}
