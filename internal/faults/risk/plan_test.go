package risk_test

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"sync"
	"testing"

	"repro/internal/apps/galaxy"
	"repro/internal/apps/sand"
	"repro/internal/apps/x264"
	"repro/internal/cloudsim"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/detrand"
	"repro/internal/ec2"
	"repro/internal/faults"
	"repro/internal/faults/risk"
	"repro/internal/units"
	"repro/internal/workload"
)

// planQuery is one /v1/risk request of the plan benchmark workload,
// resolved to the configuration the handler evaluates.
type planQuery struct {
	app   workload.App
	p     workload.Params
	tuple config.Tuple
	cat   *ec2.Catalog
	opts  risk.Options
}

// The plan workload's risk generator: problems 6–10× the size whose
// demand fills planPeakFrac of the largest configuration's capacity
// over one boot-adjusted schedule step, at each app's running-example
// accuracy.
const (
	planStep      = 300.0
	planBoot      = 120.0
	planPeakFrac  = 0.35
	queriesPerApp = 4
)

var (
	planOnce sync.Once
	planSet  []planQuery
	planErr  error
	planSink []risk.Result
)

// planQueries draws 12 risk queries, four per app, the way the plan
// workload draws them: a deadline 1.5–4× the fastest time, a hazard of
// 0.02–0.2 per instance-hour, and 50–80 trials under DefaultRecovery.
// Each configuration is the indexed min-cost answer for the deadline,
// as the /v1/risk handler chooses it. The draws come from one fixed
// seed, and the three indexes are built once per process.
func planQueries(tb testing.TB) []planQuery {
	tb.Helper()
	planOnce.Do(func() {
		rng := detrand.New(20171)
		for _, spec := range []struct {
			app workload.App
			a   float64
		}{{galaxy.App{}, 50}, {sand.App{}, 0.32}, {x264.App{}, 20}} {
			eng := core.NewPaperEngine(spec.app)
			if _, ok := eng.Frontier(); !ok {
				planErr = fmt.Errorf("no frontier index for %s", spec.app.Name())
				return
			}
			w, _ := eng.Capacities().NodeArrays()
			var uMax float64
			for i := range w {
				uMax += float64(eng.Space().Max(i)) * float64(w[i])
			}
			demand := func(n float64) float64 {
				return float64(spec.app.Demand(workload.Params{N: n, A: spec.a}))
			}
			peak := peakN(spec.app.Domain(), uMax, demand)
			for q := 0; q < queriesPerApp; q++ {
				n := peak * logUniform(rng, 6, 10)
				deadline := units.Hours(demand(n) / uMax * logUniform(rng, 1.5, 4) / 3600).Seconds()
				p := workload.Params{N: n, A: spec.a}
				pred, feasible, err := eng.MinCostForDeadline(p, deadline)
				if err == nil && !feasible {
					err = fmt.Errorf("no configuration meets the %v deadline", deadline)
				}
				if err != nil {
					planErr = fmt.Errorf("%s query %d: %w", spec.app.Name(), q, err)
					return
				}
				planSet = append(planSet, planQuery{
					app:   spec.app,
					p:     p,
					tuple: pred.Config,
					cat:   eng.Capacities().Catalog(),
					opts: risk.Options{
						Trials:        50 + int(rng.Uint64()%31),
						Seed:          rng.Uint64(),
						HazardPerHour: logUniform(rng, 0.02, 0.2),
						Deadline:      deadline,
						Sim:           cloudsim.DefaultOptions(),
						Recovery:      faults.DefaultRecovery(),
					},
				})
			}
		}
	})
	if planErr != nil {
		tb.Fatal(planErr)
	}
	return planSet
}

// peakN bisects, in log space over the domain, for the problem size
// whose demand fills planPeakFrac of uMax over one step.
func peakN(dom workload.Domain, uMax float64, demand func(n float64) float64) float64 {
	target := planPeakFrac * uMax * (planStep - planBoot)
	lo, hi := math.Log(dom.MinN), math.Log(dom.MaxN)
	for i := 0; i < 100; i++ {
		mid := (lo + hi) / 2
		if demand(math.Exp(mid)) > target {
			hi = mid
		} else {
			lo = mid
		}
	}
	return math.Exp(lo)
}

// logUniform draws from [lo, hi] uniformly in log space.
func logUniform(rng *detrand.Source, lo, hi float64) float64 {
	v := math.Exp(math.Log(lo) + rng.Float64()*(math.Log(hi)-math.Log(lo)))
	return math.Min(hi, math.Max(lo, v))
}

// estimatePlan runs every plan query and returns the results in order.
func estimatePlan(tb testing.TB, qs []planQuery) []risk.Result {
	out := make([]risk.Result, len(qs))
	for i, q := range qs {
		res, err := risk.EstimateContext(context.Background(), q.app, q.p, q.tuple, q.cat, q.opts)
		if err != nil {
			tb.Fatalf("query %d (%s): %v", i, q.app.Name(), err)
		}
		out[i] = res
	}
	return out
}

// resultsDigest is an FNV-1a digest over every field of the results,
// floats by their bits.
func resultsDigest(rs []risk.Result) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for _, r := range rs {
		put(uint64(r.Trials))
		put(uint64(r.Failed))
		for _, f := range []float64{
			r.MissProb, float64(r.BaseMakespan), float64(r.BaseCost),
			float64(r.MakespanP50), float64(r.MakespanP90), float64(r.MakespanP99),
			float64(r.CostP50), float64(r.CostP90), float64(r.CostP99), r.MeanFailures,
		} {
			put(math.Float64bits(f))
		}
	}
	return h.Sum64()
}

// goldenPlanDigest pins the twelve plan-shaped estimates: a change to
// the simulator, the trace draws or the aggregation that moves any
// result field by one bit moves it.
const goldenPlanDigest uint64 = 0x754c2a68601382e8

func TestRiskEstimatePlanGolden(t *testing.T) {
	rs := estimatePlan(t, planQueries(t))
	if got := resultsDigest(rs); got != goldenPlanDigest {
		for i, r := range rs {
			t.Logf("query %d: %+v", i, r)
		}
		t.Fatalf("plan-shaped estimates digest %#x, want %#x", got, goldenPlanDigest)
	}
}

// BenchmarkRiskEstimatePlan is the risk rung: one op runs the twelve
// plan-shaped estimates. The index builds and min-cost answers that
// pick the configurations happen before the timer starts.
func BenchmarkRiskEstimatePlan(b *testing.B) {
	qs := planQueries(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		planSink = estimatePlan(b, qs)
	}
}
