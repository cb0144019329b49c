package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/config"
	"repro/internal/demand"
	"repro/internal/ec2"
	"repro/internal/model"
	"repro/internal/units"
	"repro/internal/workload"
)

// randomEngine builds an engine over a randomized catalog (random
// prices and rates, 1–3 categories × 1–3 types, small node limits) so
// the index-vs-exhaustive equivalence is tested far from the paper's
// particular numbers.
func randomEngine(t *testing.T, rng *rand.Rand) *Engine {
	t.Helper()
	nCats := 1 + rng.Intn(3)
	var types []ec2.InstanceType
	catNames := []ec2.Category{"aa", "bb", "cc"}
	for c := 0; c < nCats; c++ {
		nTypes := 1 + rng.Intn(3)
		for k := 0; k < nTypes; k++ {
			types = append(types, ec2.InstanceType{
				Name:     fmt.Sprintf("%s.%d", catNames[c], k),
				Category: catNames[c],
				VCPUs:    1 << uint(rng.Intn(4)),
				BaseGHz:  1 + 3*rng.Float64(),
				Price:    units.USDPerHour(0.05 + rng.Float64()),
			})
		}
	}
	cat, err := ec2.NewCatalog(types)
	if err != nil {
		t.Fatal(err)
	}
	rates := make([]units.Rate, cat.Len())
	for i := range rates {
		rates[i] = units.GIPS(0.5 + 4*rng.Float64())
	}
	caps, err := model.New(cat, rates)
	if err != nil {
		t.Fatal(err)
	}
	limits := make([]int, cat.Len())
	for i := range limits {
		limits[i] = 1 + rng.Intn(3)
	}
	space, err := config.NewSpace(limits)
	if err != nil {
		t.Fatal(err)
	}
	dm := demand.FromFunc("rand", func(n, a float64) float64 { return n * a })
	dom := workload.Domain{MinN: 1, MaxN: 1e18, MinA: 1, MaxA: 1e18}
	eng, err := NewEngine(caps, dm, space, dom)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// TestDecomposedEqualsExhaustiveRandomized certifies the argmin against
// Algorithm 1 on random catalogs: with the frontier index published,
// MinCostForDeadline must return MinCostExhaustive's tuple and cost
// exactly.
func TestDecomposedEqualsExhaustiveRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	for trial := 0; trial < 40; trial++ {
		eng := randomEngine(t, rng)
		// Pick a demand that makes some but not all configurations
		// feasible: a fraction of max capacity times a random deadline.
		maxCap := 0.0
		eng.Space().ForEach(func(tp config.Tuple) bool {
			if u := float64(eng.Capacities().Capacity(tp)); u > maxCap {
				maxCap = u
			}
			return true
		})
		deadline := units.Seconds(3600 * (1 + 20*rng.Float64()))
		frac := 0.2 + 0.7*rng.Float64()
		d := maxCap * frac * float64(deadline)
		p := workload.Params{N: d, A: 1}

		requireIndexedArgminExact(t, trial, eng, p, deadline)
	}
}

// requireIndexedArgminExact publishes eng's index and asserts the
// indexed MinCostForDeadline equals MinCostExhaustive bit for bit.
func requireIndexedArgminExact(t *testing.T, trial int, eng *Engine, p workload.Params, deadline units.Seconds) {
	t.Helper()
	if _, ok := eng.Frontier(); !ok {
		t.Fatalf("trial %d: random catalog did not index", trial)
	}
	idx, okI, err := eng.MinCostForDeadline(p, deadline)
	if err != nil {
		t.Fatal(err)
	}
	exh, okE, err := eng.MinCostExhaustive(p, deadline)
	if err != nil {
		t.Fatal(err)
	}
	if okI != okE || !reflect.DeepEqual(idx, exh) {
		t.Fatalf("trial %d (%s billing): indexed %+v/%v != exhaustive %+v/%v",
			trial, eng.Billing(), idx, okI, exh, okE)
	}
}

// TestDecomposedEqualsExhaustiveHourlyRandomized repeats the
// certification under per-hour billing, where cost is a step function
// of time.
func TestDecomposedEqualsExhaustiveHourlyRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(777))
	for trial := 0; trial < 25; trial++ {
		eng := randomEngine(t, rng)
		eng.SetBilling(model.PerHour)
		maxCap := 0.0
		eng.Space().ForEach(func(tp config.Tuple) bool {
			if u := float64(eng.Capacities().Capacity(tp)); u > maxCap {
				maxCap = u
			}
			return true
		})
		deadline := units.Seconds(3600 * (1 + 10*rng.Float64()))
		d := maxCap * (0.3 + 0.5*rng.Float64()) * float64(deadline)
		p := workload.Params{N: d, A: 1}
		requireIndexedArgminExact(t, trial, eng, p, deadline)
	}
}

// TestFrontierInvariantsRandomized: every frontier point is feasible,
// mutually nondominated, and no scanned configuration dominates any of
// them.
func TestFrontierInvariantsRandomized(t *testing.T) {
	setProcs(t, 3)
	rng := rand.New(rand.NewSource(4242))
	for trial := 0; trial < 15; trial++ {
		eng := randomEngine(t, rng)
		maxCap := 0.0
		eng.Space().ForEach(func(tp config.Tuple) bool {
			if u := float64(eng.Capacities().Capacity(tp)); u > maxCap {
				maxCap = u
			}
			return true
		})
		deadline := units.Seconds(3600 * 10)
		d := maxCap * 0.5 * float64(deadline)
		p := workload.Params{N: d, A: 1}
		budget := units.USD(1e9)
		an, err := eng.Analyze(p, Constraints{Deadline: deadline, Budget: budget}, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for i, f := range an.Frontier {
			if float64(f.Time) >= float64(deadline) {
				t.Fatalf("trial %d: frontier point %d infeasible", trial, i)
			}
			for j, g := range an.Frontier {
				if i != j && g.Time <= f.Time && g.Cost <= f.Cost {
					t.Fatalf("trial %d: frontier point %d dominated by %d", trial, i, j)
				}
			}
		}
		// Exhaustive domination check against the whole space.
		dd, _ := eng.Demand(p)
		eng.Space().ForEach(func(tp config.Tuple) bool {
			pr := eng.Capacities().Predict(dd, tp)
			if float64(pr.Time) >= float64(deadline) || float64(pr.Cost) >= float64(budget) {
				return true
			}
			for i, f := range an.Frontier {
				if float64(pr.Time) <= float64(f.Time) && float64(pr.Cost) <= float64(f.Cost) &&
					(float64(pr.Time) < float64(f.Time) || float64(pr.Cost) < float64(f.Cost)) {
					t.Fatalf("trial %d: feasible %v dominates frontier point %d", trial, tp, i)
				}
			}
			return true
		})
	}
}

// TestAnalyzeWorkerCountInvariance: the census result must not depend
// on the parallelism degree.
func TestAnalyzeWorkerCountInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	eng := randomEngine(t, rng)
	p := workload.Params{N: 1e13, A: 1}
	cons := Constraints{Deadline: units.FromHours(10), Budget: 1e6}
	setProcs(t, 1)
	ref, err := eng.Analyze(p, cons, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 3, 7, 16} {
		setProcs(t, w)
		an, err := eng.Analyze(p, cons, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if an.Feasible != ref.Feasible || len(an.Frontier) != len(ref.Frontier) {
			t.Fatalf("workers=%d: census differs (%d/%d vs %d/%d)",
				w, an.Feasible, len(an.Frontier), ref.Feasible, len(ref.Frontier))
		}
		for i := range an.Frontier {
			if an.Frontier[i].Time != ref.Frontier[i].Time || an.Frontier[i].Cost != ref.Frontier[i].Cost {
				t.Fatalf("workers=%d: frontier point %d differs", w, i)
			}
		}
	}
}

// TestScanSearchFallbackFourCategories: a catalog outside the paper's
// three categories is answered exactly by both paths — the scan before
// an index is published, the index after.
func TestScanSearchFallbackFourCategories(t *testing.T) {
	var types []ec2.InstanceType
	for c := 0; c < 4; c++ {
		types = append(types, ec2.InstanceType{
			Name:     fmt.Sprintf("cat%d.large", c),
			Category: ec2.Category(fmt.Sprintf("cat%d", c)),
			VCPUs:    2,
			BaseGHz:  2 + float64(c)*0.3,
			Price:    units.USDPerHour(0.1 + 0.05*float64(c)),
		})
	}
	cat, err := ec2.NewCatalog(types)
	if err != nil {
		t.Fatal(err)
	}
	rates := []units.Rate{units.GIPS(2), units.GIPS(2.5), units.GIPS(1.5), units.GIPS(3)}
	caps, err := model.New(cat, rates)
	if err != nil {
		t.Fatal(err)
	}
	space, err := config.Uniform(4, 3)
	if err != nil {
		t.Fatal(err)
	}
	dm := demand.FromFunc("four", func(n, a float64) float64 { return n })
	eng, err := NewEngine(caps, dm, space, workload.Domain{MinN: 1, MaxN: 1e18, MinA: 0, MaxA: 1e18})
	if err != nil {
		t.Fatal(err)
	}
	p := workload.Params{N: 3e13, A: 1}
	scan, okS, err := eng.MinCostForDeadline(p, units.FromHours(1))
	if err != nil {
		t.Fatal(err)
	}
	exh, okE, err := eng.MinCostExhaustive(p, units.FromHours(1))
	if err != nil {
		t.Fatal(err)
	}
	if okS != okE || !reflect.DeepEqual(scan, exh) {
		t.Fatalf("4-category scan mismatch: %+v/%v vs %+v/%v", scan, okS, exh, okE)
	}
	requireIndexedArgminExact(t, 0, eng, p, units.FromHours(1))
	// MinTime through the index as well.
	mt, okT, err := eng.MinTimeForBudget(p, 100)
	if err != nil || !okT {
		t.Fatal(okT, err)
	}
	if float64(mt.Cost) >= 100 {
		t.Fatal("fallback ignored the budget")
	}
}
