// Package risk estimates deadline risk under instance failures: a
// seeded Monte-Carlo evaluator that replays one configuration through
// the cloud simulator across many drawn failure traces and reports the
// probability of missing the deadline plus makespan and cost quantiles.
//
// CELIA's deterministic answer — "configuration c finishes D within T′
// at minimal cost" — silently assumes no instance dies. This package
// quantifies the assumption: with a per-instance-hour hazard λ and a
// recovery policy, P(makespan > T′) is the number a user trading cost
// against deadline risk actually needs. Every estimate is replayable:
// the same (seed, hazard, trials) triple drives the same traces through
// the same simulator, in parallel, with a deterministic result.
package risk

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"

	"repro/internal/cloudsim"
	"repro/internal/config"
	"repro/internal/detrand"
	"repro/internal/ec2"
	"repro/internal/faults"
	"repro/internal/stats"
	"repro/internal/units"
	"repro/internal/workload"
)

// DefaultTrials is the trial count when Options.Trials is zero: enough
// to resolve miss probabilities around a few percent without making an
// interactive query sluggish.
const DefaultTrials = 200

// MaxTrials bounds a single estimate; it keeps one API request from
// monopolizing the server.
const MaxTrials = 10000

// Options configure one estimate.
type Options struct {
	// Trials is the number of Monte-Carlo draws; 0 means DefaultTrials.
	Trials int
	// Seed drives the trace draws. Trial i uses a seed derived from
	// (Seed, i), so one estimate's trials are independent but the whole
	// estimate replays exactly.
	Seed uint64
	// HazardPerHour is the per-instance-hour failure rate λ fed to
	// faults.PoissonTrace. Zero means no failures (every trial equals
	// the base run).
	HazardPerHour float64
	// Deadline is the paper's T′: a trial misses when its makespan
	// exceeds it. Trials whose run errors out (an exhausted retry
	// budget, a dead cluster) always count as misses.
	Deadline units.Seconds
	// Sim is the base simulator configuration; its Trace is
	// overwritten per trial.
	Sim cloudsim.Options
	// Recovery is the failure-handling policy applied to every trial
	// and to the base run (so checkpointing overhead shows up in the
	// base makespan too).
	Recovery faults.Recovery
}

// Result is one Monte-Carlo estimate.
type Result struct {
	Trials int // trials evaluated
	Failed int // trials whose simulation returned an error

	// MissProb is P(makespan > Deadline); failed trials count as
	// misses.
	MissProb float64

	// Base is the failure-free reference run under the same recovery
	// policy.
	BaseMakespan units.Seconds
	BaseCost     units.USD

	// Makespan and cost quantiles over the successful trials.
	MakespanP50 units.Seconds
	MakespanP90 units.Seconds
	MakespanP99 units.Seconds
	CostP50     units.USD
	CostP90     units.USD
	CostP99     units.USD

	// MeanFailures is the mean number of failure events per trial
	// (including failed trials) — a sanity check that the hazard and
	// horizon produce the intended event density.
	MeanFailures float64
}

// trialSeed derives the trace seed for one trial: detrand's splitmix64
// stream mix keeps neighboring trial indices uncorrelated. (It is the
// same mix this function inlined before detrand existed, so stored
// estimates replay unchanged.)
func trialSeed(seed uint64, trial int) uint64 {
	return detrand.Mix(seed, trial)
}

// Estimate runs the Monte-Carlo evaluation without external
// cancellation. Only this package's tests call it; the serving path
// (/v1/risk and /v1/schedule's risk timeline) uses EstimateContext.
func Estimate(app workload.App, p workload.Params, tuple config.Tuple, cat *ec2.Catalog, opts Options) (Result, error) {
	return EstimateContext(context.Background(), app, p, tuple, cat, opts)
}

// EstimateContext is Estimate under a request context. It runs the
// trials on GOMAXPROCS workers and is deterministic for equal inputs
// under any GOMAXPROCS: results are collected by trial index and
// aggregated in order. The trial dispatch loop races each hand-off
// against ctx, so a canceled request stops after the in-flight trials
// instead of paying for the full draw count; a canceled estimate
// returns ctx's error and no partial result (a partial aggregate would
// not be replayable).
func EstimateContext(ctx context.Context, app workload.App, p workload.Params, tuple config.Tuple, cat *ec2.Catalog, opts Options) (Result, error) {
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	if opts.Trials < 0 {
		return Result{}, fmt.Errorf("risk: negative trial count %d", opts.Trials)
	}
	if opts.Trials == 0 {
		opts.Trials = DefaultTrials
	}
	if opts.Trials > MaxTrials {
		return Result{}, fmt.Errorf("risk: %d trials exceeds the limit of %d", opts.Trials, MaxTrials)
	}
	if opts.HazardPerHour < 0 {
		return Result{}, fmt.Errorf("risk: negative hazard rate %v", opts.HazardPerHour)
	}
	if opts.Deadline <= 0 {
		return Result{}, fmt.Errorf("risk: deadline must be positive, got %v", opts.Deadline)
	}
	if err := opts.Recovery.Validate(); err != nil {
		return Result{}, err
	}

	base := opts.Sim
	base.Trace = faults.Trace{}
	base.Recovery = opts.Recovery
	ref, err := cloudsim.Run(app, p, tuple, cat, base)
	if err != nil {
		return Result{}, fmt.Errorf("risk: base run: %w", err)
	}

	// Failures can only matter while the job runs; the horizon covers
	// slow recovered runs and the full deadline with margin.
	horizon := 3 * ref.Makespan
	if h := 2 * opts.Deadline; h > horizon {
		horizon = h
	}

	type trial struct {
		makespan units.Seconds
		cost     units.USD
		failures int
		err      error
	}
	trials := make([]trial, opts.Trials)
	workers := min(runtime.GOMAXPROCS(0), opts.Trials)
	var wg sync.WaitGroup
	idx := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				tr := faults.PoissonTrace(trialSeed(opts.Seed, i), opts.HazardPerHour, ref.Instances, horizon)
				if ev := tr.Events(); len(ev) == 0 || ev[0].At > ref.Makespan {
					// Every failure finds the base run over: the trial is
					// the base run (DESIGN §7).
					trials[i] = trial{makespan: ref.Makespan, cost: ref.Cost, failures: tr.Len()}
					continue
				}
				o := base
				o.Trace = tr
				res, err := cloudsim.Run(app, p, tuple, cat, o)
				if err != nil {
					trials[i] = trial{failures: tr.Len(), err: err}
					continue
				}
				trials[i] = trial{makespan: res.Makespan, cost: res.Cost, failures: res.Failures}
			}
		}()
	}
	for i := 0; i < opts.Trials; i++ {
		select {
		case idx <- i:
		case <-ctx.Done():
			close(idx)
			wg.Wait() // workers drain the closed channel; bounded by in-flight trials
			return Result{}, ctx.Err()
		}
	}
	close(idx)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}

	out := Result{
		Trials:       opts.Trials,
		BaseMakespan: ref.Makespan,
		BaseCost:     ref.Cost,
	}
	var makespans, costs []float64
	misses := 0
	totalFailures := 0
	for _, tr := range trials {
		totalFailures += tr.failures
		if tr.err != nil {
			out.Failed++
			misses++
			continue
		}
		if tr.makespan > opts.Deadline {
			misses++
		}
		//lint:allow unitsafe stats.Quantile sorts raw float64 samples; results are re-typed below
		makespans = append(makespans, float64(tr.makespan))
		costs = append(costs, float64(tr.cost)) //lint:allow unitsafe same raw-sample collection as the makespan line above
	}
	out.MissProb = float64(misses) / float64(opts.Trials)
	out.MeanFailures = float64(totalFailures) / float64(opts.Trials)
	if len(makespans) > 0 {
		sort.Float64s(makespans)
		sort.Float64s(costs)
		out.MakespanP50 = units.Seconds(stats.Quantile(makespans, 0.50))
		out.MakespanP90 = units.Seconds(stats.Quantile(makespans, 0.90))
		out.MakespanP99 = units.Seconds(stats.Quantile(makespans, 0.99))
		out.CostP50 = units.USD(stats.Quantile(costs, 0.50))
		out.CostP90 = units.USD(stats.Quantile(costs, 0.90))
		out.CostP99 = units.USD(stats.Quantile(costs, 0.99))
	}
	return out, nil
}
