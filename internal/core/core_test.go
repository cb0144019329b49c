package core

import (
	"context"
	"math"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/apps/galaxy"
	"repro/internal/apps/sand"
	"repro/internal/apps/x264"
	"repro/internal/config"
	"repro/internal/demand"
	"repro/internal/ec2"
	"repro/internal/model"
	"repro/internal/units"
	"repro/internal/workload"
)

// smallEngine builds an engine over a reduced space (2 nodes per type,
// 3⁹−1 = 19,682 configurations) for exhaustive cross-checks.
func smallEngine(t *testing.T, app workload.App, maxNodes int) *Engine {
	t.Helper()
	cat := ec2.Oregon()
	space, err := config.Uniform(cat.Len(), maxNodes)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(model.FromIPC(cat, app), demand.FromApp(app), space, app.Domain())
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// setProcs sets GOMAXPROCS to n until the test ends: the scans size
// their worker pools, and so their shards, from it.
func setProcs(t *testing.T, n int) {
	t.Helper()
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

func TestNewEngineValidation(t *testing.T) {
	cat := ec2.Oregon()
	caps := model.FromIPC(cat, galaxy.App{})
	sp, _ := config.Uniform(3, 5)
	if _, err := NewEngine(caps, demand.FromApp(galaxy.App{}), sp, galaxy.App{}.Domain()); err == nil {
		t.Fatal("arity mismatch accepted")
	}
	if _, err := NewEngine(nil, demand.FromApp(galaxy.App{}), sp, galaxy.App{}.Domain()); err == nil {
		t.Fatal("nil capacities accepted")
	}
}

func TestDemandDomainCheck(t *testing.T) {
	eng := NewPaperEngine(galaxy.App{})
	if _, err := eng.Demand(workload.Params{N: 1, A: 1}); err == nil {
		t.Fatal("out-of-domain demand accepted")
	}
	d, err := eng.Demand(workload.Params{N: 65536, A: 8000})
	if err != nil || d <= 0 {
		t.Fatalf("Demand = %v, %v", d, err)
	}
}

func TestAnalyzeSmallSpaceAgainstBruteForce(t *testing.T) {
	eng := smallEngine(t, galaxy.App{}, 2)
	p := workload.Params{N: 32768, A: 2000}
	cons := Constraints{Deadline: units.FromHours(24), Budget: 200}
	setProcs(t, 4)
	an, err := eng.Analyze(p, cons, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Brute force the same census.
	d, _ := eng.Demand(p)
	var feasible uint64
	type tc struct {
		T, C float64
	}
	var pts []tc
	eng.Space().ForEach(func(tp config.Tuple) bool {
		pred := eng.Capacities().Predict(d, tp)
		if float64(pred.Time) < float64(cons.Deadline) && float64(pred.Cost) < float64(cons.Budget) {
			feasible++
			pts = append(pts, tc{float64(pred.Time), float64(pred.Cost)})
		}
		return true
	})
	if an.Feasible != feasible {
		t.Fatalf("Analyze feasible = %d, brute force %d", an.Feasible, feasible)
	}
	if an.Total != eng.Space().Size() {
		t.Fatalf("Total = %d, want %d", an.Total, eng.Space().Size())
	}
	// Every frontier point must be feasible and nondominated.
	for i, f := range an.Frontier {
		for _, q := range pts {
			if q.T <= float64(f.Time) && q.C <= float64(f.Cost) &&
				(q.T < float64(f.Time) || q.C < float64(f.Cost)) {
				t.Fatalf("frontier point %d (%v) dominated by a feasible point", i, f)
			}
		}
	}
	if len(an.Frontier) == 0 {
		t.Fatal("empty frontier on a feasible problem")
	}
}

func TestAnalyzeFrontierSortedAndConsistent(t *testing.T) {
	eng := smallEngine(t, sand.App{}, 2)
	an, err := eng.Analyze(workload.Params{N: 512e6, A: 0.32},
		Constraints{Deadline: units.FromHours(48), Budget: 300}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(an.Frontier); i++ {
		a, b := an.Frontier[i-1], an.Frontier[i]
		if !(b.Time > a.Time && b.Cost < a.Cost) {
			t.Fatalf("frontier not a staircase at %d: %+v then %+v", i, a, b)
		}
	}
	// Re-predicting each frontier config must reproduce its (T, C).
	d, _ := eng.Demand(an.Params)
	for _, f := range an.Frontier {
		pred := eng.Capacities().Predict(d, f.Config)
		if math.Abs(float64(pred.Time)-float64(f.Time)) > 1e-6 ||
			math.Abs(float64(pred.Cost)-float64(f.Cost)) > 1e-9 {
			t.Fatalf("frontier point %v does not re-predict: %+v", f.Config, pred)
		}
	}
}

func TestAnalyzeInfeasibleConstraints(t *testing.T) {
	eng := smallEngine(t, galaxy.App{}, 1)
	an, err := eng.Analyze(workload.Params{N: 262144, A: 8000},
		Constraints{Deadline: units.FromHours(1), Budget: 5}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if an.Feasible != 0 || len(an.Frontier) != 0 {
		t.Fatalf("impossible constraints produced %d feasible, %d frontier",
			an.Feasible, len(an.Frontier))
	}
}

func TestAnalyzeUnconstrained(t *testing.T) {
	eng := smallEngine(t, galaxy.App{}, 1)
	an, err := eng.Analyze(workload.Params{N: 32768, A: 1000}, Constraints{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if an.Feasible != an.Total {
		t.Fatalf("unconstrained: feasible %d != total %d", an.Feasible, an.Total)
	}
}

func TestAnalyzeSampling(t *testing.T) {
	eng := smallEngine(t, galaxy.App{}, 2)
	an, err := eng.Analyze(workload.Params{N: 32768, A: 2000},
		Constraints{Deadline: units.FromHours(48), Budget: 500},
		Options{SampleEvery: 10, SampleCap: 50})
	if err != nil {
		t.Fatal(err)
	}
	if len(an.Sample) == 0 {
		t.Fatal("sampling produced nothing")
	}
	for i := 1; i < len(an.Sample); i++ {
		if an.Sample[i].Time < an.Sample[i-1].Time {
			t.Fatal("sample not sorted by time")
		}
	}
}

func TestIndexedMinCostMatchesExhaustive(t *testing.T) {
	// The core equivalence claim, on the surviving fast path: an engine
	// with a published index returns Algorithm 1's argmin exactly —
	// same tuple, same cost bits.
	cases := []struct {
		app      workload.App
		p        workload.Params
		deadline float64 // hours
	}{
		{galaxy.App{}, workload.Params{N: 32768, A: 2000}, 24},
		{galaxy.App{}, workload.Params{N: 65536, A: 1000}, 12},
		{sand.App{}, workload.Params{N: 512e6, A: 0.32}, 24},
		{x264.App{}, workload.Params{N: 4000, A: 20}, 48},
	}
	for _, c := range cases {
		eng := indexedEngine(t, c.app, 2)
		idx, okIdx, err := eng.MinCostForDeadline(c.p, units.FromHours(c.deadline))
		if err != nil {
			t.Fatal(err)
		}
		exh, okExh, err := eng.MinCostExhaustive(c.p, units.FromHours(c.deadline))
		if err != nil {
			t.Fatal(err)
		}
		if okIdx != okExh || !reflect.DeepEqual(idx, exh) {
			t.Fatalf("%s%v: indexed %+v/%v != exhaustive %+v/%v",
				c.app.Name(), c.p, idx, okIdx, exh, okExh)
		}
	}
}

func TestMinCostForDeadlineMonotone(t *testing.T) {
	// Tighter deadlines can only cost more (Obs. 3's precondition).
	eng := indexedPaperEngine(t, galaxy.App{})
	p := workload.Params{N: 65536, A: 8000}
	last := 0.0
	for _, h := range []float64{72, 48, 24, 12} {
		pred, ok, err := eng.MinCostForDeadline(p, units.FromHours(h))
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatalf("no configuration for %v h", h)
		}
		if float64(pred.Cost) < last-1e-9 {
			t.Fatalf("cost decreased when deadline tightened: %v at %vh (prev %v)", pred.Cost, h, last)
		}
		if float64(pred.Time) >= h*3600 {
			t.Fatalf("selected configuration misses its deadline: %v for %vh", pred.Time, h)
		}
		last = float64(pred.Cost)
	}
}

func TestPaperSpillConfiguration(t *testing.T) {
	// Figure 6(a) annotation: galaxy(65536, 8000) at the 24 h deadline
	// saturates c4 and spills into m4. The paper annotates the spill as
	// [5,5,5,3,0,0,0,0,0]; Algorithm 1 picks [5,5,5,1,1,0,0,0,0], the
	// same cluster (one m4.xlarge is two m4.large in vCPUs and price)
	// whose float sum lands one ulp cheaper.
	eng := indexedPaperEngine(t, galaxy.App{})
	pred, ok, err := eng.MinCostForDeadline(workload.Params{N: 65536, A: 8000}, units.FromHours(24))
	if err != nil || !ok {
		t.Fatalf("no configuration: %v %v", ok, err)
	}
	got := pred.Config
	// c4 must be saturated.
	for i := 0; i < 3; i++ {
		if got.Count(i) != 5 {
			t.Fatalf("config %v: c4 position %d not saturated (paper spills c4→m4)", got, i)
		}
	}
	// Some m4 nodes must be used, and no r3.
	m4 := got.Count(3) + got.Count(4) + got.Count(5)
	r3 := got.Count(6) + got.Count(7) + got.Count(8)
	if m4 == 0 || r3 != 0 {
		t.Fatalf("config %v: want m4 spill without r3", got)
	}
}

func TestMinTimeForBudget(t *testing.T) {
	eng := smallEngine(t, galaxy.App{}, 2)
	p := workload.Params{N: 32768, A: 2000}
	pred, ok, err := eng.MinTimeForBudget(p, 100)
	if err != nil || !ok {
		t.Fatalf("MinTimeForBudget failed: %v %v", ok, err)
	}
	if float64(pred.Cost) >= 100 {
		t.Fatalf("selected config busts the budget: %v", pred.Cost)
	}
	// Cross-check against brute force.
	d, _ := eng.Demand(p)
	bestT := math.Inf(1)
	eng.Space().ForEach(func(tp config.Tuple) bool {
		pr := eng.Capacities().Predict(d, tp)
		if float64(pr.Cost) < 100 && float64(pr.Time) < bestT {
			bestT = float64(pr.Time)
		}
		return true
	})
	if math.Abs(float64(pred.Time)-bestT) > 1e-6 {
		t.Fatalf("MinTimeForBudget = %v, brute force %v", pred.Time, bestT)
	}
}

func TestMinTimeBudgetTooSmall(t *testing.T) {
	eng := smallEngine(t, galaxy.App{}, 1)
	_, ok, err := eng.MinTimeForBudget(workload.Params{N: 262144, A: 8000}, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("impossible budget satisfied")
	}
}

func TestMaxAccuracy(t *testing.T) {
	eng := indexedPaperEngine(t, galaxy.App{})
	cons := Constraints{Deadline: units.FromHours(24), Budget: 150}
	p, pred, ok, err := eng.MaxAccuracy(65536, cons, 1e-3)
	if err != nil || !ok {
		t.Fatalf("MaxAccuracy failed: %v %v", ok, err)
	}
	// The found accuracy must be feasible...
	if float64(pred.Time) >= float64(cons.Deadline) || float64(pred.Cost) >= float64(cons.Budget) {
		t.Fatalf("MaxAccuracy result violates constraints: %+v", pred)
	}
	// ...and a 5% larger accuracy must not be.
	_, ok2, err := eng.MinCostForDeadline(workload.Params{N: 65536, A: p.A * 1.05}, cons.Deadline)
	if err != nil {
		t.Fatal(err)
	}
	if ok2 {
		d, _ := eng.Demand(workload.Params{N: 65536, A: p.A * 1.05})
		pr, ok3, err := eng.searchBest(context.Background(), d, cons, objectiveCost)
		if err != nil {
			t.Fatal(err)
		}
		if ok3 && float64(pr.Cost) < float64(cons.Budget) {
			t.Fatalf("accuracy %v declared maximal but %v is feasible", p.A, p.A*1.05)
		}
	}
}

// TestMaxAccuracyRejectsOutOfDomainN: an n outside the app's domain is
// the caller's error, reported the way the other queries report it,
// not an answer that no accuracy is feasible.
func TestMaxAccuracyRejectsOutOfDomainN(t *testing.T) {
	eng := NewPaperEngine(galaxy.App{})
	cons := Constraints{Deadline: units.FromHours(24)}
	for _, n := range []float64{-5, 1e12} {
		_, want := eng.Demand(workload.Params{N: n, A: galaxy.App{}.Domain().MinA})
		if want == nil {
			t.Fatalf("test premise broken: n=%g is inside galaxy's domain", n)
		}
		_, _, ok, err := eng.MaxAccuracy(n, cons, 1e-3)
		if err == nil || err.Error() != want.Error() || ok {
			t.Fatalf("MaxAccuracy(n=%g) = ok %v, err %v; want the domain error %q", n, ok, err, want)
		}
	}
}

func TestCostSpan(t *testing.T) {
	a := Analysis{Frontier: []FrontierPoint{
		{Cost: 126}, {Cost: 140}, {Cost: 167},
	}}
	lo, hi, ratio := a.CostSpan()
	if lo != 126 || hi != 167 {
		t.Fatalf("span = %v..%v", lo, hi)
	}
	if math.Abs(ratio-167.0/126.0) > 1e-9 {
		t.Fatalf("ratio = %v", ratio)
	}
	if _, _, r := (Analysis{}).CostSpan(); r != 0 {
		t.Fatalf("empty span ratio = %v", r)
	}
}

func TestCostSpanZeroCheapest(t *testing.T) {
	// A $0 cheapest point under a priced maximum must report the 0
	// sentinel, never +Inf or NaN.
	a := Analysis{Frontier: []FrontierPoint{{Cost: 0}, {Cost: 167}}}
	lo, hi, ratio := a.CostSpan()
	if lo != 0 || hi != 167 {
		t.Fatalf("span = %v..%v, want 0..167", lo, hi)
	}
	if ratio != 0 {
		t.Fatalf("zero-cheapest ratio = %v, want the 0 sentinel", ratio)
	}

	// An all-free frontier is flat: ratio 1, not 0/0 = NaN.
	free := Analysis{Frontier: []FrontierPoint{{Cost: 0}, {Cost: 0}}}
	if _, _, r := free.CostSpan(); r != 1 {
		t.Fatalf("all-free ratio = %v, want 1", r)
	}

	// A negative cost is out of the model's domain but must still not
	// produce ±Inf or NaN.
	odd := Analysis{Frontier: []FrontierPoint{{Cost: -1}, {Cost: 167}}}
	if _, _, r := odd.CostSpan(); math.IsInf(r, 0) || math.IsNaN(r) {
		t.Fatalf("negative-cheapest ratio = %v, want finite", r)
	}
}

func TestEpsilonFrontierOption(t *testing.T) {
	eng := smallEngine(t, galaxy.App{}, 2)
	p := workload.Params{N: 32768, A: 2000}
	cons := Constraints{Deadline: units.FromHours(48), Budget: 500}
	exact, err := eng.Analyze(p, cons, Options{})
	if err != nil {
		t.Fatal(err)
	}
	coarse, err := eng.Analyze(p, cons, Options{EpsTime: 3600, EpsCost: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(coarse.Frontier) > len(exact.Frontier) {
		t.Fatalf("ε-frontier (%d) larger than exact (%d)", len(coarse.Frontier), len(exact.Frontier))
	}
	if len(coarse.Frontier) == 0 {
		t.Fatal("ε-frontier empty")
	}
}

func TestEpsilonFrontierSingleAxisOptions(t *testing.T) {
	// A one-sided ε must coarsen its axis while the other stays exact.
	// The option gate used to require both epsilons to be positive, so
	// a single-axis request silently returned the exact frontier.
	eng := smallEngine(t, galaxy.App{}, 2)
	p := workload.Params{N: 32768, A: 2000}
	cons := Constraints{Deadline: units.FromHours(48), Budget: 500}
	exact, err := eng.Analyze(p, cons, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"time-only", Options{EpsTime: 3600}},
		{"cost-only", Options{EpsCost: 5}},
	} {
		coarse, err := eng.Analyze(p, cons, tc.opts)
		if err != nil {
			t.Fatal(tc.name, err)
		}
		if len(coarse.Frontier) == 0 || len(coarse.Frontier) >= len(exact.Frontier) {
			t.Errorf("%s ε-frontier = %d points, want a non-empty strict coarsening of %d",
				tc.name, len(coarse.Frontier), len(exact.Frontier))
		}
	}
}

func TestAnalyzeSampleOrderIndependentOfWorkers(t *testing.T) {
	// With SampleEvery=1 and an unhit cap every feasible point is
	// sampled regardless of sharding, so the sorted sample must be
	// identical across worker counts. The sort used to key on time
	// alone, leaving equal-time points in worker-merge order.
	eng := smallEngine(t, galaxy.App{}, 2)
	p := workload.Params{N: 32768, A: 2000}
	cons := Constraints{Deadline: units.FromHours(48), Budget: 500}
	opts := Options{SampleEvery: 1, SampleCap: 30000}

	setProcs(t, 1)
	one, err := eng.Analyze(p, cons, opts)
	if err != nil {
		t.Fatal(err)
	}
	setProcs(t, 7)
	seven, err := eng.Analyze(p, cons, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(one.Sample) == 0 || uint64(len(one.Sample)) != one.Feasible {
		t.Fatalf("sample holds %d of %d feasible points; the cap bit and the test lost its footing",
			len(one.Sample), one.Feasible)
	}
	ties := 0
	for i := 1; i < len(one.Sample); i++ {
		if one.Sample[i].Time == one.Sample[i-1].Time {
			ties++
		}
	}
	if ties == 0 {
		t.Fatal("no equal-time samples; the ordering regression cannot bite here")
	}
	if !reflect.DeepEqual(one.Sample, seven.Sample) {
		t.Fatalf("sample order varies with GOMAXPROCS (%d ties present)", ties)
	}
}

func TestHourlyBillingRaisesCostsAndKeepsOptima(t *testing.T) {
	p := workload.Params{N: 65536, A: 8000}
	deadline := units.FromHours(24)

	exact := indexedPaperEngine(t, galaxy.App{})
	hourly := indexedPaperEngine(t, galaxy.App{})
	hourly.SetBilling(model.PerHour)
	if hourly.Billing() != model.PerHour {
		t.Fatal("SetBilling not applied")
	}

	pe, ok, err := exact.MinCostForDeadline(p, deadline)
	if err != nil || !ok {
		t.Fatal(ok, err)
	}
	ph, ok, err := hourly.MinCostForDeadline(p, deadline)
	if err != nil || !ok {
		t.Fatal(ok, err)
	}
	if ph.Cost < pe.Cost {
		t.Fatalf("hourly min cost %v below exact %v", ph.Cost, pe.Cost)
	}
	// Hourly billing can change the winning configuration, but its
	// billed cost must equal ceil(hours) x unit cost.
	wantCost := float64(model.Bill(ph.Time, ph.UnitCost, model.PerHour))
	if math.Abs(float64(ph.Cost)-wantCost) > 1e-9 {
		t.Fatalf("hourly cost %v != billed %v", ph.Cost, wantCost)
	}
}

func TestHourlyBillingIndexedMatchesExhaustive(t *testing.T) {
	eng := indexedEngine(t, galaxy.App{}, 2)
	eng.SetBilling(model.PerHour)
	p := workload.Params{N: 32768, A: 2000}
	idx, okI, err := eng.MinCostForDeadline(p, units.FromHours(24))
	if err != nil {
		t.Fatal(err)
	}
	exh, okE, err := eng.MinCostExhaustive(p, units.FromHours(24))
	if err != nil {
		t.Fatal(err)
	}
	if okI != okE || !reflect.DeepEqual(idx, exh) {
		t.Fatalf("hourly billing: indexed %+v/%v != exhaustive %+v/%v", idx, okI, exh, okE)
	}
}

// TestQueriesNeverBuildIndex pins the routing rule the serving layer
// and external scan oracles rely on: every query on an engine with no
// published index answers from the scan and leaves it unpublished.
func TestQueriesNeverBuildIndex(t *testing.T) {
	eng := smallEngine(t, galaxy.App{}, 2)
	p := workload.Params{N: 32768, A: 2000}
	cons := Constraints{Deadline: units.FromHours(24), Budget: 100}
	if _, err := eng.Analyze(p, cons, Options{}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := eng.MinCostForDeadline(p, cons.Deadline); err != nil {
		t.Fatal(err)
	}
	if _, _, err := eng.MinTimeForBudget(p, cons.Budget); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := eng.MaxAccuracy(p.N, cons, 1e-3); err != nil {
		t.Fatal(err)
	}
	if eng.FrontierBuilt() {
		t.Fatal("a query published a frontier index; queries must read one or scan")
	}
}

func TestHourlyBillingFrontierSnaps(t *testing.T) {
	// Under per-hour billing every frontier cost is an exact multiple
	// of its configuration's unit cost.
	eng := smallEngine(t, galaxy.App{}, 2)
	eng.SetBilling(model.PerHour)
	an, err := eng.Analyze(workload.Params{N: 32768, A: 2000},
		Constraints{Deadline: units.FromHours(48), Budget: 500}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(an.Frontier) == 0 {
		t.Fatal("empty frontier")
	}
	for _, f := range an.Frontier {
		cu := float64(eng.Capacities().UnitCost(f.Config))
		hours := float64(f.Cost) / cu
		if math.Abs(hours-math.Round(hours)) > 1e-6 {
			t.Fatalf("frontier cost %v is not a whole-hour multiple of %v", f.Cost, cu)
		}
	}
}
