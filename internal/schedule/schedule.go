// Package schedule solves for a cost-optimal scaling schedule over a
// demand trace — the continuous-elasticity setting the paper's
// one-shot (deadline, budget) queries sit inside. Each timestep of a
// demand.Trace must finish its problem within the step; the solver
// picks one configuration per step so that total spend is minimal
// among schedules with the fewest deadline misses.
//
// The search has two layers. Within a step, domination in the
// (capacity, unit-cost) plane is billing- and demand-invariant, so the
// candidate configurations for every step come from one shared
// core.FrontierIndex staircase (built once per engine, reused across
// all steps, all requests, and both certified billing policies) plus
// the explicit all-idle configuration. Across steps, switching is not free — newly
// added nodes boot before contributing, and under per-hour billing a
// released node still owes the remainder of its started hour — so a
// dynamic program over (step, candidate) charges those switching costs
// and finds the globally cheapest path rather than thrashing between
// adjacent configurations the way a per-step greedy would.
//
// The DP objective is lexicographic: first minimize missed steps, then
// dollars. All transitions stay admissible even when a step's demand
// exceeds every candidate's capacity (the step is simply marked
// missed), so an infeasible spike degrades the answer instead of
// voiding it. Each entry keeps the predecessor with the least (value,
// candidate index), so equal values resolve to the lowest index and
// the recurrence is deterministic: a fixed trace and policy reproduce
// the schedule bit for bit.
package schedule

import (
	"context"
	"fmt"
	"math"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/demand"
	"repro/internal/model"
	"repro/internal/units"
)

// DefaultBoot mirrors autoscale.DefaultPolicy's boot delay: the time a
// newly added node takes to start contributing capacity.
const DefaultBoot units.Seconds = 120

// Policy carries the switching-cost model.
type Policy struct {
	// Boot is the delay before capacity added at a step boundary
	// contributes work within that step.
	Boot units.Seconds
	// Quantum is the billing quantum released nodes were committed to:
	// a node removed mid-quantum still owes the remainder of its
	// started quantum (2017-era per-hour billing). Zero means
	// per-second billing — release is free.
	Quantum units.Seconds
}

// PolicyFor derives the policy matching an engine's billing model:
// default boot, and a one-hour quantum iff the engine bills per hour.
func PolicyFor(eng *core.Engine) Policy {
	pol := Policy{Boot: DefaultBoot}
	if eng.Billing() == model.PerHour {
		pol.Quantum = units.FromHours(1)
	}
	return pol
}

// Validate rejects policies that are broken relative to a step length.
func (pol Policy) Validate(step units.Seconds) error {
	if pol.Boot < 0 || pol.Boot > step {
		return fmt.Errorf("schedule: boot %v outside [0, step %v]", pol.Boot, step)
	}
	if pol.Quantum < 0 || pol.Quantum.IsInf() {
		return fmt.Errorf("schedule: billing quantum %v, want finite and >= 0", pol.Quantum)
	}
	return nil
}

// Step is one solved timestep.
type Step struct {
	// Config is the configuration held for the step.
	Config config.Tuple
	// Demand is the step's modeled instruction demand (0 = idle step).
	Demand units.Instructions
	// Busy is the boot-adjusted time the step's problem takes,
	// capped at the step length; Slack is the remainder.
	Busy  units.Seconds
	Slack units.Seconds
	// Cost is what the step adds to the bill: holding Config for the
	// full step, plus the released-quantum carryover owed for nodes
	// removed at the step's entry boundary.
	Cost units.USD
	// DeltaNodes is the net node-count change at the entry boundary.
	DeltaNodes int
	// Missed marks a step whose demand exceeds the boot-adjusted work
	// the chosen configuration can complete within the step.
	Missed bool
}

// Schedule is a solved (or simulated) scaling schedule.
type Schedule struct {
	StepLen units.Seconds
	Policy  Policy
	Steps   []Step
	// TotalCost is the sum of step costs plus ReleasePayout.
	TotalCost units.USD
	// ReleasePayout is the carryover owed for tearing the final
	// configuration down at the end of the horizon.
	ReleasePayout units.USD
	// Switches counts boundaries whose configuration differs from the
	// step before (starting from idle before step 0).
	Switches int
	// Misses counts steps whose demand could not be met in time.
	Misses int
	// Candidates is the number of frontier-staircase candidates the
	// solver considered per step (diagnostic; 0 for the baseline).
	Candidates int
}

// solveCtx is the shared precomputation for one solve: candidates with
// per-type counts, and pairwise transition tables.
type solveCtx struct {
	stepLen units.Seconds
	pol     Policy

	u  []units.Rate       // per candidate
	cu []units.USDPerHour // per candidate
	tp []config.Tuple     // per candidate

	// addedCap[i*m+j]: capacity added moving i→j (booting nodes);
	// removedCu[i*m+j]: unit cost of nodes released moving i→j.
	addedCap  []units.Rate
	removedCu []units.USDPerHour
}

// Solve computes the cost-optimal schedule for the trace on this
// engine, without external cancellation (offline callers: the CLI and
// tests). The serving path uses SolveContext.
func Solve(eng *core.Engine, tr demand.Trace, pol Policy) (Schedule, error) {
	return SolveContext(context.Background(), eng, tr, pol)
}

// SolveContext is Solve under a request context. It forces the
// engine's frontier index to exist (the build is billing-independent)
// and errors if the catalog does not compress into an index;
// demand-model or domain errors for any step surface with the step
// index. The DP polls ctx between timesteps (each step costs
// O(m log m) plus the transitions its bound-ordered scan evaluates),
// so a canceled request stops paying for the horizon it no longer
// wants.
func SolveContext(ctx context.Context, eng *core.Engine, tr demand.Trace, pol Policy) (Schedule, error) {
	if err := tr.Validate(); err != nil {
		return Schedule{}, err
	}
	if err := pol.Validate(tr.Step); err != nil {
		return Schedule{}, err
	}
	cands, ok := eng.FrontierCandidates()
	if !ok {
		return Schedule{}, fmt.Errorf("schedule: engine's catalog did not compress into a frontier index; the horizon solver needs one")
	}
	demands, err := traceDemands(eng, tr)
	if err != nil {
		return Schedule{}, err
	}

	sc := newSolveCtx(eng, cands, tr.Step, pol)
	parent, last, err := sc.dp(ctx, demands)
	if err != nil {
		return Schedule{}, err
	}
	m := len(sc.u)
	path := make([]int, len(demands))
	for t, j := len(path)-1, last; t >= 0; t-- {
		path[t] = j
		j = int(parent[t*m+j])
	}
	sched := sc.replay(path, demands, m-1) // m-1: the appended all-idle candidate
	sched.Candidates = len(cands)
	return sched, nil
}

// unreached marks a DP entry no schedule can end in.
const unreached = -1

// value is the DP objective of a partial schedule: missed steps first,
// then dollars.
type value struct {
	miss int
	cost units.USD
}

// less orders values lexicographically by (miss, cost).
func (a value) less(b value) bool {
	if a.miss != b.miss {
		return a.miss < b.miss
	}
	return a.cost < b.cost
}

// dp runs the DP over (step, candidate) and returns the parent table
// (parent[t*m+j] is the candidate held before step t on the best
// schedule entering j at t) and the best final candidate, charged its
// end-of-horizon release payout.
func (sc *solveCtx) dp(ctx context.Context, demands []units.Instructions) ([]int32, int, error) {
	m := len(sc.u)
	n := len(demands)
	prev := make([]value, m)
	cur := make([]value, m)
	reach := make([]bool, m)
	nextReach := make([]bool, m)
	reach[m-1] = true // schedules start from idle
	parent := make([]int32, n*m)
	r := newRelaxer(sc)
	for t := 0; t < n; t++ {
		if err := ctx.Err(); err != nil {
			return nil, 0, err
		}
		row := parent[t*m : (t+1)*m]
		carrySec := sc.carrySeconds(units.Seconds(float64(t)) * sc.stepLen)
		r.relax(prev, reach, demands[t], carrySec, cur, row)
		for j, i := range row {
			nextReach[j] = i != unreached
		}
		prev, cur = cur, prev
		reach, nextReach = nextReach, reach
	}

	// Horizon end: tearing the final configuration down owes its
	// released-quantum carryover too, so a plan that hoards capacity
	// cannot hide the bill past the last step.
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
	if last == unreached {
		return nil, 0, fmt.Errorf("schedule: no reachable terminal state (internal invariant broken)")
	}
	return parent, last, nil
}

// relaxer evaluates one DP step. Its predecessor heap and scan order
// are scratch reused across steps.
type relaxer struct {
	sc *solveCtx
	// accrues[j] is cu[j]·stepLen, invariant across steps; hoisting it
	// changes no rounding (the same Over call).
	accrues []units.USD
	heap    []int32 // reachable predecessors not yet in order
	order   []int32 // predecessors popped so far, ascending (value, index)
}

func newRelaxer(sc *solveCtx) *relaxer {
	m := len(sc.u)
	r := &relaxer{
		sc:      sc,
		accrues: make([]units.USD, m),
		heap:    make([]int32, 0, m),
		order:   make([]int32, 0, m),
	}
	for j := range r.accrues {
		r.accrues[j] = sc.cu[j].Over(sc.stepLen)
	}
	return r
}

// relax computes one step of the recurrence. prev[i] is the best value
// of a schedule ending in candidate i before the step (read only where
// reach[i]); relax writes into cur[j] and parent[j] the best value of
// entering candidate j with demand d and the predecessor that attains
// it, or unreached when no predecessor is reachable. Among predecessors
// of equal value the lowest index wins.
//
// Entering j from i is worth at least (prev[i].miss + floor_j,
// fl(prev[i].cost + accrual_j)): the carry term is non-negative and
// fl(x + y) >= x for y >= 0, a miss only adds, and floor_j is 1 when j
// misses from every predecessor (its own capacity cannot finish d; a
// switch only subtracts booting work).
// That bound is monotone in prev[i], so relax walks the predecessors
// in ascending (value, index) order, popped lazily from a heap shared
// by every j of the step, and stops each j at the first bound strictly
// worse than its best: no later predecessor can beat or tie it.
func (r *relaxer) relax(prev []value, reach []bool, d units.Instructions, carrySec units.Seconds, cur []value, parent []int32) {
	sc := r.sc
	m := len(sc.u)
	r.heap, r.order = r.heap[:0], r.order[:0]
	for i, ok := range reach {
		if ok {
			r.heap = append(r.heap, int32(i))
		}
	}
	for k := len(r.heap)/2 - 1; k >= 0; k-- {
		r.siftDown(prev, k)
	}
	for j := 0; j < m; j++ {
		floor := 0
		if sc.missed(j, j, d) {
			floor = 1
		}
		accrue := r.accrues[j]
		bestI := int32(unreached)
		var best value
		for k := 0; ; k++ {
			if k == len(r.order) {
				if len(r.heap) == 0 {
					break
				}
				r.order = append(r.order, r.pop(prev))
			}
			i := r.order[k]
			v := value{miss: prev[i].miss, cost: prev[i].cost + accrue}
			if bestI != unreached && best.less(value{miss: v.miss + floor, cost: v.cost}) {
				break
			}
			if carrySec > 0 {
				v.cost += sc.removedCu[int(i)*m+j].Over(carrySec)
			}
			if sc.missed(int(i), j, d) {
				v.miss++
			}
			if bestI == unreached || v.less(best) || (!best.less(v) && i < bestI) {
				bestI, best = i, v
			}
		}
		parent[j] = bestI
		cur[j] = best
	}
}

// ahead orders predecessors by (prev value, index).
func ahead(prev []value, a, b int32) bool {
	if prev[a].less(prev[b]) {
		return true
	}
	if prev[b].less(prev[a]) {
		return false
	}
	return a < b
}

// pop removes and returns the heap's least predecessor.
func (r *relaxer) pop(prev []value) int32 {
	top := r.heap[0]
	last := len(r.heap) - 1
	r.heap[0] = r.heap[last]
	r.heap = r.heap[:last]
	r.siftDown(prev, 0)
	return top
}

// siftDown restores the min-heap order below position k.
func (r *relaxer) siftDown(prev []value, k int) {
	h := r.heap
	for {
		c := 2*k + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && ahead(prev, h[c+1], h[c]) {
			c++
		}
		if !ahead(prev, h[c], h[k]) {
			return
		}
		h[k], h[c] = h[c], h[k]
		k = c
	}
}

// newSolveCtx assembles candidates (frontier staircase + idle) and the
// pairwise transition tables.
func newSolveCtx(eng *core.Engine, cands []core.Candidate, stepLen units.Seconds, pol Policy) *solveCtx {
	w, nodeCost := eng.Capacities().NodeArrays()
	m := len(cands) + 1
	ctx := &solveCtx{
		stepLen: stepLen,
		pol:     pol,
		u:       make([]units.Rate, m),
		cu:      make([]units.USDPerHour, m),
		tp:      make([]config.Tuple, m),
	}
	for i, c := range cands {
		ctx.u[i], ctx.cu[i], ctx.tp[i] = c.U, c.Cu, c.Config
	}
	// The final candidate is all-idle (zero tuple of the right arity):
	// valleys and zero-demand steps can release everything.
	ctx.tp[m-1] = config.Tuple{}
	if len(cands) > 0 {
		ctx.tp[m-1], _ = config.NewTuple(make([]int, cands[0].Config.Len()))
	}

	ctx.addedCap = make([]units.Rate, m*m)
	ctx.removedCu = make([]units.USDPerHour, m*m)
	for i := 0; i < m; i++ {
		for j := 0; j < m; j++ {
			if i == j {
				continue
			}
			var add units.Rate
			var rem units.USDPerHour
			a, b := ctx.tp[i], ctx.tp[j]
			for k := 0; k < b.Len() || k < a.Len(); k++ {
				ca, cb := 0, 0
				if k < a.Len() {
					ca = a.Count(k)
				}
				if k < b.Len() {
					cb = b.Count(k)
				}
				if cb > ca {
					add += units.Rate(cb-ca) * w[k]
				} else if ca > cb {
					rem += units.USDPerHour(ca-cb) * nodeCost[k]
				}
			}
			ctx.addedCap[i*m+j] = add
			ctx.removedCu[i*m+j] = rem
		}
	}
	return ctx
}

// traceDemands evaluates the engine's demand model per step. A zero
// problem size is an idle step (zero demand); everything else must lie
// in the model's fitted domain.
func traceDemands(eng *core.Engine, tr demand.Trace) ([]units.Instructions, error) {
	out := make([]units.Instructions, tr.Steps())
	for t := range out {
		if tr.N[t] == 0 {
			continue
		}
		d, err := eng.Demand(tr.Params(t))
		if err != nil {
			return nil, fmt.Errorf("schedule: step %d: %w", t, err)
		}
		out[t] = d
	}
	return out, nil
}

// carrySeconds is the time a node released at the given elapsed offset
// still owes: the remainder of its started billing quantum, with
// quantum boundaries aligned to the trace origin (exact for nodes held
// since a boundary; a conservative overcharge for nodes that booted
// mid-quantum). Zero under per-second billing.
func (ctx *solveCtx) carrySeconds(elapsed units.Seconds) units.Seconds {
	if ctx.pol.Quantum <= 0 {
		return 0
	}
	cycles := float64(elapsed / ctx.pol.Quantum)
	frac := cycles - math.Floor(cycles)
	if frac == 0 {
		return 0
	}
	return units.Seconds(1-frac) * ctx.pol.Quantum
}

// missed reports whether demand d cannot complete within the step when
// entering candidate j from candidate i: capacity added at the
// boundary boots for Policy.Boot before contributing.
func (ctx *solveCtx) missed(i, j int, d units.Instructions) bool {
	if d <= 0 {
		return false
	}
	effWork := ctx.u[j].Over(ctx.stepLen)
	if i != j {
		effWork -= ctx.addedCap[i*len(ctx.u)+j].Over(ctx.pol.Boot)
	}
	return d > effWork
}

// finishTime solves the boot-adjusted within-step completion time:
// capacity held from the previous step (uOld) runs during boot, the
// full capacity u afterwards. +Inf when the demand cannot complete.
func finishTime(d units.Instructions, uOld, u units.Rate, boot units.Seconds) units.Seconds {
	if d <= 0 {
		return 0
	}
	if u <= uOld || boot <= 0 {
		return units.Time(d, u)
	}
	if uOld > 0 && d <= uOld.Over(boot) {
		return units.Time(d, uOld)
	}
	return boot + units.Time(d-uOld.Over(boot), u)
}

// replay walks a candidate path and produces the full per-step
// accounting the DP value function summarizes.
func (ctx *solveCtx) replay(path []int, demands []units.Instructions, idle int) Schedule {
	m := len(ctx.u)
	sched := Schedule{
		StepLen: ctx.stepLen,
		Policy:  ctx.pol,
		Steps:   make([]Step, len(path)),
	}
	prev := idle
	for t, j := range path {
		boundary := units.Seconds(float64(t)) * ctx.stepLen
		cost := ctx.cu[j].Over(ctx.stepLen)
		if carry := ctx.carrySeconds(boundary); carry > 0 {
			cost += ctx.removedCu[prev*m+j].Over(carry)
		}
		uOld := ctx.u[j]
		if prev != j {
			uOld = ctx.u[j] - ctx.addedCap[prev*m+j]
		}
		// The miss flag comes from the same predicate the DP charged, so
		// Schedule.Misses always equals the optimized miss count; busy is
		// the boot-adjusted completion time capped at the step.
		missed := ctx.missed(prev, j, demands[t])
		busy := finishTime(demands[t], uOld, ctx.u[j], ctx.pol.Boot)
		if busy > ctx.stepLen {
			busy = ctx.stepLen
		}
		st := Step{
			Config:     ctx.tp[j],
			Demand:     demands[t],
			Busy:       busy,
			Slack:      ctx.stepLen - busy,
			Cost:       cost,
			DeltaNodes: ctx.tp[j].TotalNodes() - ctx.tp[prev].TotalNodes(),
			Missed:     missed,
		}
		if j != prev {
			sched.Switches++
		}
		if missed {
			sched.Misses++
		}
		sched.TotalCost += cost
		sched.Steps[t] = st
		prev = j
	}
	sched.ReleasePayout = ctx.cu[prev].Over(ctx.carrySeconds(units.Seconds(float64(len(path))) * ctx.stepLen))
	sched.TotalCost += sched.ReleasePayout
	return sched
}

// SavingsPct reports how much cheaper `solved` is than `baseline`, in
// percent of the baseline. Zero when the baseline is free or negative.
func SavingsPct(solved, baseline units.USD) float64 {
	if baseline <= 0 {
		return 0
	}
	return (1 - float64(solved/baseline)) * 100
}
