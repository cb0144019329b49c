package risk

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"repro/internal/apps/galaxy"
	"repro/internal/apps/sand"
	"repro/internal/apps/x264"
	"repro/internal/cloudsim"
	"repro/internal/config"
	"repro/internal/ec2"
	"repro/internal/faults"
	"repro/internal/stats"
	"repro/internal/units"
	"repro/internal/workload"
)

// simulateEvery is the oracle for EstimateContext's reuse of the base
// run: it draws each trial's trace as EstimateContext does, simulates
// every trial through cloudsim.Run, and aggregates the results as
// Result documents them. It also reports how many trials EstimateContext
// may reuse: those whose trace is empty or starts after the base
// makespan.
func simulateEvery(t *testing.T, app workload.App, p workload.Params, tuple config.Tuple, cat *ec2.Catalog, opts Options) (res Result, reusable int) {
	t.Helper()
	base := opts.Sim
	base.Recovery = opts.Recovery
	ref, err := cloudsim.Run(app, p, tuple, cat, base)
	if err != nil {
		t.Fatalf("base run: %v", err)
	}
	horizon := max(3*ref.Makespan, 2*opts.Deadline)
	res = Result{Trials: opts.Trials, BaseMakespan: ref.Makespan, BaseCost: ref.Cost}
	var makespans, costs []float64
	misses, failures := 0, 0
	for i := 0; i < opts.Trials; i++ {
		tr := faults.PoissonTrace(trialSeed(opts.Seed, i), opts.HazardPerHour, ref.Instances, horizon)
		if tr.Empty() || tr.Events()[0].At > ref.Makespan {
			reusable++
		}
		failures += tr.Len()
		o := base
		o.Trace = tr
		run, err := cloudsim.Run(app, p, tuple, cat, o)
		if err != nil {
			res.Failed++
			misses++
			continue
		}
		if run.Makespan > opts.Deadline {
			misses++
		}
		makespans = append(makespans, float64(run.Makespan))
		costs = append(costs, float64(run.Cost))
	}
	res.MissProb = float64(misses) / float64(opts.Trials)
	res.MeanFailures = float64(failures) / float64(opts.Trials)
	if len(makespans) > 0 {
		sort.Float64s(makespans)
		sort.Float64s(costs)
		res.MakespanP50 = units.Seconds(stats.Quantile(makespans, 0.50))
		res.MakespanP90 = units.Seconds(stats.Quantile(makespans, 0.90))
		res.MakespanP99 = units.Seconds(stats.Quantile(makespans, 0.99))
		res.CostP50 = units.USD(stats.Quantile(costs, 0.50))
		res.CostP90 = units.USD(stats.Quantile(costs, 0.90))
		res.CostP99 = units.USD(stats.Quantile(costs, 0.99))
	}
	return res, reusable
}

// resultBits lists every Result field, floats by their bits.
func resultBits(r Result) []uint64 {
	return []uint64{
		uint64(r.Trials), uint64(r.Failed), math.Float64bits(r.MissProb),
		math.Float64bits(float64(r.BaseMakespan)), math.Float64bits(float64(r.BaseCost)),
		math.Float64bits(float64(r.MakespanP50)), math.Float64bits(float64(r.MakespanP90)),
		math.Float64bits(float64(r.MakespanP99)), math.Float64bits(float64(r.CostP50)),
		math.Float64bits(float64(r.CostP90)), math.Float64bits(float64(r.CostP99)),
		math.Float64bits(r.MeanFailures),
	}
}

func TestReuseMatchesSimulatingEveryTrial(t *testing.T) {
	// Each plan kind under two policies and three hazards: none (every
	// trial reused), about ln 2 expected failures per failure-free run
	// (half reused), and 4 (nearly every trial simulated). The estimate
	// must equal the oracle's, which simulates every trial, field by
	// field and bit for bit.
	cat := ec2.Oregon()
	cases := []struct {
		app   workload.App
		p     workload.Params
		tuple config.Tuple
	}{
		{x264.App{}, workload.Params{N: 64, A: 20}, config.MustTuple(2, 1, 0, 0, 0, 0, 0, 0, 0)},
		{galaxy.App{}, workload.Params{N: 4096, A: 50}, config.MustTuple(2, 0, 0, 1, 0, 0, 0, 0, 0)},
		{sand.App{}, workload.Params{N: 64e6, A: 0.32}, config.MustTuple(3, 0, 0, 0, 0, 0, 0, 0, 0)},
	}
	for _, c := range cases {
		free, err := cloudsim.Run(c.app, c.p, c.tuple, cat, cloudsim.DefaultOptions())
		if err != nil {
			t.Fatalf("%s: %v", c.app.Name(), err)
		}
		// Expected failures per failure-free run: hazard × instances × hours.
		perRun := float64(free.Instances) * float64(free.Makespan.InHours())
		mixed := 0
		for _, rec := range []faults.Recovery{{}, faults.DefaultRecovery()} {
			for _, expected := range []float64{0, math.Ln2, 4} {
				name := fmt.Sprintf("%s/%+v/λ·run=%.2f", c.app.Name(), rec, expected)
				opts := Options{
					Trials:        40,
					Seed:          11,
					HazardPerHour: expected / perRun,
					Deadline:      free.Makespan * 1.1,
					Sim:           cloudsim.DefaultOptions(),
					Recovery:      rec,
				}
				got, err := Estimate(c.app, c.p, c.tuple, cat, opts)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				want, reusable := simulateEvery(t, c.app, c.p, c.tuple, cat, opts)
				gb, wb := resultBits(got), resultBits(want)
				for i := range gb {
					if gb[i] != wb[i] {
						t.Fatalf("%s: field %d differs from simulating every trial:\n got %+v\nwant %+v", name, i, got, want)
					}
				}
				if expected == 0 && reusable != opts.Trials {
					t.Fatalf("%s: %d of %d trials reusable without failures", name, reusable, opts.Trials)
				}
				t.Logf("%s: %d of %d trials reusable", name, reusable, opts.Trials)
				if reusable > 0 && reusable < opts.Trials {
					mixed++
				}
			}
		}
		if mixed == 0 {
			t.Fatalf("%s: no estimate mixed reused and simulated trials", c.app.Name())
		}
	}
}
