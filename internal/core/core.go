// Package core is the CELIA engine — the paper's primary contribution.
// Given an elastic application's demand model, per-type cloud resource
// capacities, a time deadline T′ and a cost budget C′, it searches the
// configuration space for feasible configurations (Algorithm 1),
// extracts the cost-time Pareto-optimal subset, and answers the
// optimization queries the evaluation is built on (minimum cost for a
// deadline, minimum time within a budget, maximum accuracy within
// both).
//
// Every query takes one of two paths, proven equivalent by tests:
//
//   - Frontier index (index.go): the demand-invariant (capacity, unit
//     cost) pair table, its Pareto staircase and its blocks of equal-
//     capacity spans, built once per catalog and published on the
//     engine. Under a billing policy certified by
//     model.Billing.Indexable, queries answer from it in
//     O(|staircase| + blocks·log), plus an exact walk of the few spans a
//     block's corners cannot decide, with the scan's exact floats and
//     tie winners.
//
//   - Exhaustive scan: a parallel streaming scan of all S
//     configurations (Eq. 1), exactly Algorithm 1 — the reference the
//     index is certified against, and the answer whenever no index is
//     published or the billing policy is not certified.
//
// A query never builds an index; it reads the published one or scans.
// Frontier, FrontierCandidates, RebuildIndex and InstallIndex publish.
package core

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/config"
	"repro/internal/demand"
	"repro/internal/ec2"
	"repro/internal/model"
	"repro/internal/pareto"
	"repro/internal/units"
	"repro/internal/workload"
)

// Engine binds a demand model, capacities, and a configuration space.
type Engine struct {
	caps    *model.Capacities
	dm      demand.Model
	space   *config.Space
	domain  workload.Domain
	billing model.Billing

	// Frontier-index state (see index.go): built at most once under
	// idxMu by Frontier/FrontierCandidates, or swapped in by
	// RebuildIndex/InstallIndex, and published through an atomic pointer
	// that queries read without locking, so a rebuild or snapshot
	// restore lands under live traffic. nil pointer = nothing published
	// (not yet built, or the build overflowed); idxTried flips after the
	// first build attempt either way.
	idxMu    sync.Mutex
	idx      atomic.Pointer[FrontierIndex]
	idxTried atomic.Bool
}

// NewEngine validates and builds an engine. The space's arity must
// match the catalog.
func NewEngine(caps *model.Capacities, dm demand.Model, space *config.Space, dom workload.Domain) (*Engine, error) {
	if caps == nil || space == nil {
		return nil, fmt.Errorf("core: nil capacities or space")
	}
	if space.Types() != caps.Catalog().Len() {
		return nil, fmt.Errorf("core: space has %d types, catalog %d", space.Types(), caps.Catalog().Len())
	}
	return &Engine{caps: caps, dm: dm, space: space, domain: dom}, nil
}

// SetBilling selects the billing policy used by every query (default:
// per-second, Eq. 5 verbatim). Per-hour billing reproduces 2017-era
// EC2 charging, where each instance pays for every started hour.
func (e *Engine) SetBilling(b model.Billing) { e.billing = b }

// Billing reports the engine's billing policy.
func (e *Engine) Billing() model.Billing { return e.billing }

// Capacities returns the engine's capacity model.
func (e *Engine) Capacities() *model.Capacities { return e.caps }

// DemandModel returns the engine's demand model.
func (e *Engine) DemandModel() demand.Model { return e.dm }

// Space returns the engine's configuration space.
func (e *Engine) Space() *config.Space { return e.space }

// Demand evaluates the demand model at p after domain validation.
func (e *Engine) Demand(p workload.Params) (units.Instructions, error) {
	if err := e.domain.CheckParams(p); err != nil {
		return 0, err
	}
	d := e.dm.Demand(p)
	if d <= 0 {
		return 0, fmt.Errorf("core: demand model predicts %v for %v", d, p)
	}
	return d, nil
}

// Constraints are the execution targets: time deadline T′ and cost
// budget C′. Non-positive values mean unconstrained.
type Constraints struct {
	Deadline units.Seconds
	Budget   units.USD
}

func (c Constraints) deadlineOrInf() units.Seconds {
	if c.Deadline <= 0 {
		return units.Seconds(math.Inf(1))
	}
	return c.Deadline
}

func (c Constraints) budgetOrInf() units.USD {
	if c.Budget <= 0 {
		return units.USD(math.Inf(1))
	}
	return c.Budget
}

// FrontierPoint is one Pareto-optimal configuration.
type FrontierPoint struct {
	Config config.Tuple
	Time   units.Seconds
	Cost   units.USD
}

// Analysis is the result of a full configuration-space census
// (Algorithm 1 plus the Pareto filter) — the data behind Figure 4.
type Analysis struct {
	Params      workload.Params
	Demand      units.Instructions
	Constraints Constraints
	Total       uint64 // S: configurations examined
	Feasible    uint64 // configurations with T < T′ and C < C′
	Frontier    []FrontierPoint
	// Sample holds every k-th feasible (time, cost) pair for plotting
	// the Figure 4 scatter; empty unless Options.SampleEvery > 0.
	Sample []FrontierPoint
}

// CostSpan reports the cheapest and most expensive frontier costs and
// their ratio (the paper reports spans of ~1.2–1.3×). An empty frontier
// reports (0, 0, 0). A frontier whose cheapest point costs $0 has no
// meaningful ratio: an all-free frontier reports the flat span 1, and a
// $0 cheapest point under a priced maximum reports the 0 sentinel
// rather than ±Inf or NaN so callers can gate on it.
func (a Analysis) CostSpan() (lo, hi units.USD, ratio float64) {
	if len(a.Frontier) == 0 {
		return 0, 0, 0
	}
	lo, hi = a.Frontier[0].Cost, a.Frontier[0].Cost
	for _, f := range a.Frontier[1:] {
		if f.Cost < lo {
			lo = f.Cost
		}
		if f.Cost > hi {
			hi = f.Cost
		}
	}
	switch {
	case lo > 0:
		ratio = float64(hi / lo)
	case hi == 0:
		ratio = 1
	default:
		ratio = 0
	}
	return lo, hi, ratio
}

// Options tune Analyze.
type Options struct {
	EpsTime     float64 // ε-box size for time (seconds); 0 = exact frontier
	EpsCost     float64 // ε-box size for cost ($); 0 = exact frontier
	SampleEvery uint64  // keep every k-th feasible point; 0 = none
	SampleCap   int     // max sample size (default 4096)
}

// ctxPollMask throttles cancellation checks in the scan hot loops: a
// worker consults ctx.Err() at each configuration index that is a
// multiple of 8192, once per 8192 configurations of its contiguous
// chunk — cheap enough to be invisible in the scan benchmarks yet
// prompt enough that a canceled multi-second walk returns within
// microseconds of real work. Keying the poll on the index, not on a
// per-worker counter, keeps the hot loops free of per-configuration
// writes to per-worker state, which shares cache lines across workers
// (a counter there made the argmin scan 2–3× slower).
const ctxPollMask = 8192 - 1

// errAborted wraps a context error so scan-path callers surface the
// standard context sentinels (errors.Is works) under a package prefix.
func errAborted(err error) error { return fmt.Errorf("core: query aborted: %w", err) }

// Analyze runs Algorithm 1 over the entire space and Pareto-filters the
// feasible set. An engine with a published frontier index answers
// sampling-free censuses from the precomputed pair table instead of
// re-walking the space — under per-second and per-hour billing alike
// (model.Billing.Indexable); the two paths produce byte-identical
// Analysis values (certified in index_test.go and the per-billing
// property harness).
func (e *Engine) Analyze(p workload.Params, cons Constraints, opts Options) (Analysis, error) {
	return e.AnalyzeContext(context.Background(), p, cons, opts)
}

// AnalyzeContext is Analyze with cooperative cancellation: the
// exhaustive scan path polls ctx between batches of configurations and
// abandons the walk once the context is done, returning the wrapped
// context error instead of a partial census. The index path answers in
// microseconds and never needs to poll.
func (e *Engine) AnalyzeContext(ctx context.Context, p workload.Params, cons Constraints, opts Options) (Analysis, error) {
	d, err := e.Demand(p)
	if err != nil {
		return Analysis{}, err
	}
	an := Analysis{
		Params:      p,
		Demand:      d,
		Constraints: cons,
		Total:       e.space.Size(),
	}
	var front []pareto.Point
	if idx := e.indexFor(); idx != nil && opts.SampleEvery == 0 {
		// Sampling still needs the per-configuration walk: the index
		// aggregates away the individual feasible points.
		an.Feasible, front = idx.census(e, d, cons)
	} else {
		front = e.scanCensus(ctx, &an, d, cons, opts)
		if err := ctx.Err(); err != nil {
			return Analysis{}, errAborted(err)
		}
	}
	// A one-sided ε is honored per axis; the zero axis stays exact.
	if opts.EpsTime > 0 || opts.EpsCost > 0 {
		front = pareto.EpsilonFrontier2D(front, opts.EpsTime, opts.EpsCost)
	}
	an.Frontier = make([]FrontierPoint, len(front))
	for i, pt := range front {
		tuple, err := e.space.AtIndex(pt.ID)
		if err != nil {
			return Analysis{}, fmt.Errorf("core: frontier index %d: %w", pt.ID, err)
		}
		an.Frontier[i] = FrontierPoint{Config: tuple, Time: units.Seconds(pt.X), Cost: units.USD(pt.Y)}
	}
	// Deterministic (time, cost, tuple) order: a bare time key left
	// equal-time points in worker-merge order, so the output varied
	// with GOMAXPROCS. Sample membership still depends on the
	// worker sharding — each shard keeps its own every-k-th feasible
	// point — only the order of whatever was kept is pinned here.
	sort.SliceStable(an.Sample, func(i, j int) bool {
		a, b := an.Sample[i], an.Sample[j]
		if a.Time != b.Time {
			return a.Time < b.Time
		}
		if a.Cost != b.Cost {
			return a.Cost < b.Cost
		}
		return lessTupleFast(a.Config, b.Config)
	})
	return an, nil
}

// scanCensus is Analyze's exhaustive path: a streaming scan of the
// whole space on GOMAXPROCS workers that never stores the feasible set.
// It fills the feasible count and sample in an and returns the merged
// frontier.
func (e *Engine) scanCensus(ctx context.Context, an *Analysis, d units.Instructions, cons Constraints, opts Options) []pareto.Point {
	workers := runtime.GOMAXPROCS(0)
	sampleCap := opts.SampleCap
	if sampleCap <= 0 {
		sampleCap = 4096
	}
	deadline, budget := cons.deadlineOrInf(), cons.budgetOrInf()
	w, nodeCost := e.caps.NodeArrays()

	type shard struct {
		stream   pareto.Stream2D
		feasible uint64
		sample   []FrontierPoint
	}
	shards := make([]shard, workers)
	var stop atomic.Bool

	e.space.ForEachParallelIndexed(workers, func(worker int, idx uint64, t config.Tuple) {
		if stop.Load() {
			return
		}
		if idx&ctxPollMask == 0 && ctx.Err() != nil {
			stop.Store(true)
			return
		}
		u, cu := model.Sums(t, w, nodeCost)
		T := units.Time(d, u)
		C := model.Bill(T, cu, e.billing)
		if T >= deadline || C >= budget {
			return
		}
		sh := &shards[worker]
		sh.feasible++
		// The exact streaming frontier is also a sufficient candidate
		// set for ε-filtering afterwards: an ε-box dominates another
		// exactly when some exact-frontier point in it does.
		//lint:allow unitsafe pareto.Point is the unit-agnostic frontier kernel; axes are re-typed on rebuild above
		sh.stream.Add(pareto.Point{X: float64(T), Y: float64(C), ID: idx})
		if opts.SampleEvery > 0 && sh.feasible%opts.SampleEvery == 0 && len(sh.sample) < sampleCap {
			sh.sample = append(sh.sample, FrontierPoint{Config: t, Time: T, Cost: C})
		}
	})

	var merged pareto.Stream2D
	for i := range shards {
		an.Feasible += shards[i].feasible
		merged.Merge(&shards[i].stream)
		an.Sample = append(an.Sample, shards[i].sample...)
	}
	return merged.Frontier()
}

// searchBest routes a single-objective query to the published frontier
// index when the billing policy is certified for it, and to the
// exhaustive scan otherwise. It never builds an index.
func (e *Engine) searchBest(ctx context.Context, d units.Instructions, cons Constraints, obj objective) (model.Prediction, bool, error) {
	if idx := e.indexFor(); idx != nil {
		pred, ok := idx.minSearch(e, d, cons, obj)
		return pred, ok, nil
	}
	return e.scanSearch(ctx, d, cons, obj)
}

// MinCostForDeadline finds the cheapest configuration whose predicted
// time satisfies the deadline, from the published frontier index when
// there is one and the exhaustive scan otherwise. The second return is
// false when no configuration can meet the deadline.
func (e *Engine) MinCostForDeadline(p workload.Params, deadline units.Seconds) (model.Prediction, bool, error) {
	return e.MinCostForDeadlineContext(context.Background(), p, deadline)
}

// MinCostForDeadlineContext is MinCostForDeadline with cooperative
// cancellation on the scan path.
func (e *Engine) MinCostForDeadlineContext(ctx context.Context, p workload.Params, deadline units.Seconds) (model.Prediction, bool, error) {
	d, err := e.Demand(p)
	if err != nil {
		return model.Prediction{}, false, err
	}
	return e.searchBest(ctx, d, Constraints{Deadline: deadline}, objectiveCost)
}

// MinTimeForBudget finds the fastest configuration whose predicted cost
// stays within the budget.
func (e *Engine) MinTimeForBudget(p workload.Params, budget units.USD) (model.Prediction, bool, error) {
	return e.MinTimeForBudgetContext(context.Background(), p, budget)
}

// MinTimeForBudgetContext is MinTimeForBudget with cooperative
// cancellation on the scan path.
func (e *Engine) MinTimeForBudgetContext(ctx context.Context, p workload.Params, budget units.USD) (model.Prediction, bool, error) {
	d, err := e.Demand(p)
	if err != nil {
		return model.Prediction{}, false, err
	}
	return e.searchBest(ctx, d, Constraints{Budget: budget}, objectiveTime)
}

// MinCostExhaustive is MinCostForDeadline answered by the exhaustive
// scan (Algorithm 1 with a running minimum) even when an index is
// published: the reference the index is certified against.
func (e *Engine) MinCostExhaustive(p workload.Params, deadline units.Seconds) (model.Prediction, bool, error) {
	d, err := e.Demand(p)
	if err != nil {
		return model.Prediction{}, false, err
	}
	return e.scanSearch(context.Background(), d, Constraints{Deadline: deadline}, objectiveCost)
}

type objective int

const (
	objectiveCost objective = iota
	objectiveTime
)

// scanSearch is the single-objective search over the whole space: the
// minimal objective under both constraints, value ties broken by the
// lexicographically least tuple (lessTupleFast).
func (e *Engine) scanSearch(ctx context.Context, d units.Instructions, cons Constraints, obj objective) (model.Prediction, bool, error) {
	w, nodeCost := e.caps.NodeArrays()
	deadline, budget := cons.deadlineOrInf(), cons.budgetOrInf()
	workers := runtime.GOMAXPROCS(0)
	type best struct {
		val float64
		t   config.Tuple
		ok  bool
	}
	bests := make([]best, workers)
	for i := range bests {
		bests[i].val = math.Inf(1)
	}
	var stop atomic.Bool
	e.space.ForEachParallelIndexed(workers, func(worker int, k uint64, t config.Tuple) {
		if stop.Load() {
			return
		}
		if k&ctxPollMask == 0 && ctx.Err() != nil {
			stop.Store(true)
			return
		}
		u, cu := model.Sums(t, w, nodeCost)
		T := units.Time(d, u)
		C := model.Bill(T, cu, e.billing)
		if T >= deadline || C >= budget {
			return
		}
		//lint:allow unitsafe objective value is cost ($) or time (s) by query kind; only compared against itself
		v := float64(C)
		if obj == objectiveTime {
			//lint:allow unitsafe objective value is cost ($) or time (s) by query kind; only compared against itself
			v = float64(T)
		}
		b := &bests[worker]
		//lint:allow floateq exact argmin tie: ulp-equal costs resolve lexicographically by tuple, deterministic either way
		if v < b.val || (v == b.val && b.ok && lessTupleFast(t, b.t)) {
			b.val, b.t, b.ok = v, t, true
		}
	})
	if err := ctx.Err(); err != nil {
		return model.Prediction{}, false, errAborted(err)
	}
	out := best{val: math.Inf(1)}
	for _, b := range bests {
		//lint:allow floateq exact argmin tie: ulp-equal costs resolve lexicographically by tuple, deterministic either way
		if b.ok && (b.val < out.val || (b.val == out.val && out.ok && lessTupleFast(b.t, out.t))) {
			out = b
		}
	}
	if !out.ok {
		return model.Prediction{}, false, nil
	}
	return e.caps.PredictBilled(d, out.t, e.billing), true, nil
}

// MaxAccuracy finds the largest accuracy value a (within the app's
// domain) such that problem (n, a) still admits a configuration meeting
// both constraints — the inverse query that motivates elastic
// applications: spend the whole budget on result quality. Monotone
// demand in a is assumed (true for all three paper applications);
// binary search to within tol (relative).
func (e *Engine) MaxAccuracy(n float64, cons Constraints, tol float64) (workload.Params, model.Prediction, bool, error) {
	return e.MaxAccuracyContext(context.Background(), n, cons, tol)
}

// MaxAccuracyContext is MaxAccuracy with cooperative cancellation. The
// bisection runs up to ~20 sequential searches; on an engine with no
// published index that is ~20 full scans, the single most expensive
// query the serving path can receive, so each probe checks ctx and the
// whole bisection aborts as soon as the context is done. Callers that
// bisect repeatedly should publish the index first (Frontier).
func (e *Engine) MaxAccuracyContext(ctx context.Context, n float64, cons Constraints, tol float64) (workload.Params, model.Prediction, bool, error) {
	if tol <= 0 {
		tol = 1e-3
	}
	lo, hi := e.domain.MinA, e.domain.MaxA
	// Every probe's a lies in the domain, so only n can put a probe
	// outside it: that is the caller's error, not an infeasible a.
	if err := e.domain.CheckParams(workload.Params{N: n, A: lo}); err != nil {
		return workload.Params{}, model.Prediction{}, false, err
	}
	check := func(a float64) (model.Prediction, bool, error) {
		d, err := e.Demand(workload.Params{N: n, A: a})
		if err != nil {
			// A non-positive demand at an in-domain a: infeasible there.
			return model.Prediction{}, false, nil
		}
		return e.searchBest(ctx, d, cons, objectiveCost)
	}
	pred, ok, err := check(lo)
	if err != nil {
		return workload.Params{}, model.Prediction{}, false, err
	}
	if !ok {
		return workload.Params{}, model.Prediction{}, false, nil
	}
	if p, ok, err := check(hi); err != nil {
		return workload.Params{}, model.Prediction{}, false, err
	} else if ok {
		return workload.Params{N: n, A: hi}, p, true, nil
	}
	bestA := lo
	for hi-lo > tol*math.Max(1, hi) {
		mid := (lo + hi) / 2
		p, ok, err := check(mid)
		if err != nil {
			return workload.Params{}, model.Prediction{}, false, err
		}
		if ok {
			bestA, pred, lo = mid, p, mid
		} else {
			hi = mid
		}
	}
	return workload.Params{N: n, A: bestA}, pred, true, nil
}

// NewPaperEngine assembles the paper's standard setup for an
// application: Oregon catalog, five nodes per type, ground-truth
// capacities, and the app's analytic demand law. Production use feeds
// fitted demand models and profiled capacities instead; this
// constructor serves analysis and examples.
func NewPaperEngine(app workload.App) *Engine {
	cat := ec2.Oregon()
	space, err := config.Uniform(cat.Len(), 5)
	if err != nil {
		panic("core: paper space: " + err.Error())
	}
	eng, err := NewEngine(model.FromIPC(cat, app), demand.FromApp(app), space, app.Domain())
	if err != nil {
		panic("core: paper engine: " + err.Error())
	}
	return eng
}
