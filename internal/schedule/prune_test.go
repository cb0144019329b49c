package schedule

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"repro/internal/apps/galaxy"
	"repro/internal/apps/sand"
	"repro/internal/apps/x264"
	"repro/internal/core"
	"repro/internal/demand"
	"repro/internal/detrand"
	"repro/internal/model"
	"repro/internal/units"
	"repro/internal/workload"
)

// allPairsStep is one step of the recurrence as the solver evaluated it
// before the bound-ordered scan: every reachable predecessor for every
// candidate, in ascending index order, kept only when strictly better.
// It is the oracle relax must reproduce bit for bit.
func allPairsStep(sc *solveCtx, prev []value, reach []bool, d units.Instructions, carrySec units.Seconds, cur []value, parent []int32) {
	m := len(sc.u)
	for j := 0; j < m; j++ {
		accrue := sc.cu[j].Over(sc.stepLen)
		bestI := int32(unreached)
		var best value
		for i := 0; i < m; i++ {
			if !reach[i] {
				continue
			}
			v := value{miss: prev[i].miss, cost: prev[i].cost + accrue}
			if carrySec > 0 {
				v.cost += sc.removedCu[i*m+j].Over(carrySec)
			}
			if sc.missed(i, j, d) {
				v.miss++
			}
			if bestI == unreached || v.less(best) {
				bestI, best = int32(i), v
			}
		}
		parent[j] = bestI
		cur[j] = best
	}
}

// solveAllPairs is Solve with every step relaxed by allPairsStep. It
// returns the schedule and the full parent table.
func solveAllPairs(t *testing.T, eng *core.Engine, tr demand.Trace, pol Policy) (Schedule, []int32) {
	t.Helper()
	cands, ok := eng.FrontierCandidates()
	if !ok {
		t.Fatal("catalog did not compress into a frontier index")
	}
	demands, err := traceDemands(eng, tr)
	if err != nil {
		t.Fatal(err)
	}
	sc := newSolveCtx(eng, cands, tr.Step, pol)
	m, n := len(sc.u), len(demands)
	prev := make([]value, m)
	cur := make([]value, m)
	reach := make([]bool, m)
	reach[m-1] = true
	parent := make([]int32, n*m)
	for step := 0; step < n; step++ {
		row := parent[step*m : (step+1)*m]
		carrySec := sc.carrySeconds(units.Seconds(float64(step)) * sc.stepLen)
		allPairsStep(sc, prev, reach, demands[step], carrySec, cur, row)
		prev, cur = cur, prev
		reach = make([]bool, m)
		for j, i := range row {
			reach[j] = i != unreached
		}
	}
	endCarry := sc.carrySeconds(units.Seconds(float64(n)) * sc.stepLen)
	last := unreached
	var lastVal value
	for j := 0; j < m; j++ {
		if !reach[j] {
			continue
		}
		v := value{miss: prev[j].miss, cost: prev[j].cost + sc.cu[j].Over(endCarry)}
		if last == unreached || v.less(lastVal) {
			last, lastVal = j, v
		}
	}
	path := make([]int, n)
	for step, j := n-1, last; step >= 0; step-- {
		path[step] = j
		j = int(parent[step*m+j])
	}
	sched := sc.replay(path, demands, m-1)
	sched.Candidates = len(cands)
	return sched, parent
}

// requireMatchesAllPairs solves tr with the production solver and with
// the all-pairs oracle, and fails unless the schedules and the parent
// tables are identical. It returns the solved schedule.
func requireMatchesAllPairs(t *testing.T, eng *core.Engine, tr demand.Trace, pol Policy, label string) Schedule {
	t.Helper()
	got, err := Solve(eng, tr, pol)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	want, wantParent := solveAllPairs(t, eng, tr, pol)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: pruned schedule differs from the all-pairs sweep:\n%+v\nvs\n%+v", label, got, want)
	}
	cands, _ := eng.FrontierCandidates()
	demands, err := traceDemands(eng, tr)
	if err != nil {
		t.Fatal(err)
	}
	gotParent, _, err := newSolveCtx(eng, cands, tr.Step, pol).dp(context.Background(), demands)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if !slices.Equal(gotParent, wantParent) {
		t.Fatalf("%s: pruned parent table differs from the all-pairs sweep", label)
	}
	return got
}

// sizeFor bisects the problem size, within the domain, whose demand at
// accuracy a is closest to target from below.
func sizeFor(t *testing.T, eng *core.Engine, dom workload.Domain, a float64, target units.Instructions) float64 {
	t.Helper()
	lo, hi := math.Log(dom.MinN), math.Log(dom.MaxN)
	for k := 0; k < 80; k++ {
		mid := (lo + hi) / 2
		d, err := eng.Demand(workload.Params{N: math.Exp(mid), A: a})
		if err != nil {
			t.Fatal(err)
		}
		if d > target {
			hi = mid
		} else {
			lo = mid
		}
	}
	return math.Exp(lo)
}

// trialApp is one application of the randomized trial, at the accuracy
// of the paper's running examples.
type trialApp struct {
	app workload.App
	a   float64
}

var trialApps = []trialApp{
	{galaxy.App{}, 50},
	{sand.App{}, 0.32},
	{x264.App{}, 20},
}

// randomTrace draws a diurnal, bursty or ramp trace (by shape index) of
// 20–200 steps whose peak fills 20–90% of the largest candidate's step
// capacity, with a zero-demand valley and, when spike is set, one step
// no candidate can finish.
func randomTrace(t *testing.T, rng *detrand.Source, eng *core.Engine, ta trialApp, shape int, step units.Seconds, spike bool) demand.Trace {
	t.Helper()
	cands, _ := eng.FrontierCandidates()
	uMax := cands[0].U
	dom := ta.app.Domain()
	peak := sizeFor(t, eng, dom, ta.a, uMax.Over(step)*units.Instructions(0.2+0.7*rng.Float64()))
	base := math.Max(peak/(2+8*rng.Float64()), 2*dom.MinN)
	steps := 20 + int(rng.Float64()*181)
	seed := rng.Uint64()
	var tr demand.Trace
	switch shape {
	case 0:
		tr = demand.Diurnal(demand.DiurnalSpec{Steps: steps, Step: step, A: ta.a, BaseN: base, PeakN: peak,
			Period: 8 + int(rng.Float64()*float64(steps)), Jitter: 0.05, Seed: seed})
	case 1:
		tr = demand.Bursty(demand.BurstySpec{Steps: steps, Step: step, A: ta.a, BaseN: base, BurstN: peak - base,
			Onset: 0.1, Decay: 3, Jitter: 0.05, Seed: seed})
	default:
		tr = demand.Ramp(demand.RampSpec{Steps: steps, Step: step, A: ta.a, FromN: base, ToN: peak, Jitter: 0.05, Seed: seed})
	}
	for i, n := range tr.N {
		tr.N[i] = math.Min(math.Max(n, dom.MinN), dom.MaxN)
	}
	valley := int(rng.Float64() * float64(steps))
	for i := valley; i < valley+steps/8 && i < steps; i++ {
		tr.N[i] = 0
	}
	if spike {
		at := int(rng.Float64() * float64(steps))
		tr.N[at] = dom.MaxN
		d, err := eng.Demand(tr.Params(at))
		if err != nil {
			t.Fatal(err)
		}
		if d <= uMax.Over(step) {
			t.Fatalf("test premise broken: the spike's demand %v fits the largest candidate", d)
		}
	}
	return tr
}

// TestPrunedMatchesAllPairsRandomized is the exactness oracle for the
// bound-ordered scan: on truncated galaxy, sand and x264 engines, over
// seeded diurnal, bursty and ramp traces with zero-demand valleys and
// infeasible spikes, under every boot/quantum/billing combination, the
// solver's schedule and parent table equal the all-pairs sweep's.
func TestPrunedMatchesAllPairsRandomized(t *testing.T) {
	boots := []func(step units.Seconds) units.Seconds{
		func(units.Seconds) units.Seconds { return 0 },
		func(units.Seconds) units.Seconds { return 120 },
		func(step units.Seconds) units.Seconds { return step },
	}
	quanta := []units.Seconds{0, units.FromHours(1)}
	billings := []model.Billing{model.PerSecond, model.PerHour}
	steps := []units.Seconds{300, 600, 1500}
	rng := detrand.New(detrand.Mix(0x5c4ed, 0))
	for _, ta := range trialApps {
		for _, maxNodes := range []int{2, 3} {
			eng := testAppEngine(t, ta.app, maxNodes, model.PerSecond)
			k := 0
			for _, boot := range boots {
				for _, quantum := range quanta {
					for _, billing := range billings {
						eng.SetBilling(billing)
						step := steps[int(rng.Float64()*float64(len(steps)))]
						spike := k%2 == 0
						tr := randomTrace(t, rng, eng, ta, k%3, step, spike)
						pol := Policy{Boot: boot(step), Quantum: quantum}
						label := fmt.Sprintf("%s max=%d trial %d (%s, %d steps, %v, boot %v, quantum %v)",
							ta.app.Name(), maxNodes, k, tr.Name, tr.Steps(), billing, pol.Boot, pol.Quantum)
						sched := requireMatchesAllPairs(t, eng, tr, pol, label)
						if spike && sched.Misses == 0 {
							t.Fatalf("%s: infeasible spike not missed", label)
						}
						k++
					}
				}
			}
		}
	}
}

// planTrace draws a trace shaped like the plan benchmark's schedule
// traffic: 400–600 five-minute steps between a trough and a peak that
// needs at most 35% of the largest candidate's boot-adjusted capacity.
func planTrace(t *testing.T, rng *detrand.Source, eng *core.Engine, ta trialApp, shape int) demand.Trace {
	t.Helper()
	const step, boot = 300, 120
	cands, _ := eng.FrontierCandidates()
	dom := ta.app.Domain()
	peak := sizeFor(t, eng, dom, ta.a, cands[0].U.Over(step-boot)*0.35) * (0.6 + 0.4*rng.Float64())
	base := peak / (4 + 6*rng.Float64())
	steps := 400 + int(rng.Float64()*201)
	period := 96 + int(rng.Float64()*193)
	tr := demand.Trace{Version: demand.TraceVersion, Step: step, A: ta.a, N: make([]float64, steps)}
	level := 0.0
	for i := range tr.N {
		var v float64
		switch shape {
		case 0:
			v = base + (peak-base)*(0.5-0.5*math.Cos(2*math.Pi*float64(i%period)/float64(period)))
		case 1:
			level *= 0.8
			if rng.Float64() < 0.03 {
				level += peak - base
			}
			v = base + level
		default:
			v = base + (peak-base)*float64(i)/float64(steps-1)
		}
		tr.N[i] = math.Min(peak, v) * (1 - 0.05*rng.Float64())
	}
	return tr
}

// TestPrunedMatchesAllPairsPaper runs the exactness oracle at paper
// scale: the golden diurnal trace and two plan-shaped traces per
// billing on the full galaxy staircase, the four plan traces covering
// all three shapes. (The all-pairs oracle is the slow side: ~14k
// transitions per step.)
func TestPrunedMatchesAllPairsPaper(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale index build")
	}
	rng := detrand.New(detrand.Mix(0x5c4ed, 1))
	ta := trialApps[0]
	shape := 0
	for _, billing := range []model.Billing{model.PerSecond, model.PerHour} {
		eng := paperEngine(billing)
		pol := PolicyFor(eng)
		requireMatchesAllPairs(t, eng, demand.GoldenDiurnal(), pol, fmt.Sprintf("golden %v", billing))
		for k := 0; k < 2; k, shape = k+1, (shape+1)%3 {
			tr := planTrace(t, rng, eng, ta, shape)
			requireMatchesAllPairs(t, eng, tr, pol, fmt.Sprintf("plan shape %d %v (%d steps)", shape, billing, tr.Steps()))
		}
	}
}

// TestRelaxTieRule is the control the random trials cannot be: two
// predecessors whose different costs round to the same sum. Candidate
// 5 at $1 and candidate 2 at the next double above $1 both reach
// exactly $3 with a $2 accrual, so the sweep keeps 2, the lower index.
// The scan meets 5 first; it must still evaluate 2 (its bound equals
// the best, so stopping on >= is wrong) and prefer it on the tie
// (keeping the first predecessor in scan order is wrong).
func TestRelaxTieRule(t *testing.T) {
	const m = 7
	lo, hi := units.USD(1), units.USD(math.Nextafter(1, 2))
	if !(lo < hi) || lo+2 < hi+2 || hi+2 < lo+2 {
		t.Fatal("test premise broken: $1 and its successor must differ but sum to the same $3")
	}
	sc := &solveCtx{
		stepLen:   3600,
		u:         make([]units.Rate, m),
		cu:        make([]units.USDPerHour, m),
		addedCap:  make([]units.Rate, m*m),
		removedCu: make([]units.USDPerHour, m*m),
	}
	for j := range sc.cu {
		sc.cu[j] = 2
		if j < m-1 {
			sc.u[j] = units.Rate(1 + j) // the last candidate stays at zero capacity
		}
	}
	if sc.cu[0].Over(sc.stepLen) != 2 {
		t.Fatal("test premise broken: $2/h over one hour must accrue exactly $2")
	}
	prev := make([]value, m)
	reach := make([]bool, m)
	for i := range prev {
		prev[i] = value{cost: units.USD(10 + i)}
		reach[i] = true
	}
	prev[5].cost, prev[2].cost = lo, hi
	prev[4], reach[4] = value{}, false // cheapest of all, but no schedule ends there
	prev[1] = value{miss: 1}           // free, but already missed a step

	// One instruction of demand: every candidate but the zero-capacity
	// one finishes it, so that one misses from every predecessor.
	const d = units.Instructions(1)
	if !sc.missed(m-1, m-1, d) || sc.missed(0, 0, d) {
		t.Fatal("test premise broken: only the zero-capacity candidate should miss")
	}
	gotCur, gotParent := make([]value, m), make([]int32, m)
	newRelaxer(sc).relax(prev, reach, d, 0, gotCur, gotParent)
	wantCur, wantParent := make([]value, m), make([]int32, m)
	allPairsStep(sc, prev, reach, d, 0, wantCur, wantParent)

	if !slices.Equal(gotParent, wantParent) || !slices.Equal(gotCur, wantCur) {
		t.Fatalf("relax = %v %v, all-pairs sweep = %v %v", gotParent, gotCur, wantParent, wantCur)
	}
	for _, j := range []int{0, m - 1} {
		if gotParent[j] != 2 {
			t.Fatalf("candidate %d entered from %d, want 2 (the lower index of the tied $3 sums)", j, gotParent[j])
		}
	}
	if gotCur[m-1].miss != 1 {
		t.Fatalf("zero-capacity candidate reached with %d misses, want 1", gotCur[m-1].miss)
	}
}
