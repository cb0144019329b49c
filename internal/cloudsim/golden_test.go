package cloudsim

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/apps/galaxy"
	"repro/internal/apps/sand"
	"repro/internal/apps/x264"
	"repro/internal/config"
	"repro/internal/ec2"
	"repro/internal/faults"
	"repro/internal/units"
	"repro/internal/workload"
)

// goldenCases are the (app, params, tuple) runs of the golden grid:
// small clusters for each plan kind, plus min-cost configurations that
// the paper engines' frontier index picks for plan-shaped risk queries.
var goldenCases = []struct {
	app   workload.App
	p     workload.Params
	tuple config.Tuple
}{
	{x264.App{}, workload.Params{N: 32, A: 20}, config.MustTuple(2, 0, 0, 0, 0, 0, 0, 0, 0)},
	{x264.App{}, workload.Params{N: 9, A: 20}, config.MustTuple(0, 0, 1, 0, 0, 0, 0, 0, 0)},
	{x264.App{}, workload.Params{N: 64, A: 20}, config.MustTuple(1, 1, 0, 0, 0, 0, 0, 0, 0)},
	{galaxy.App{}, workload.Params{N: 2048, A: 10}, config.MustTuple(2, 0, 0, 0, 0, 0, 0, 0, 0)},
	{galaxy.App{}, workload.Params{N: 2048, A: 20}, config.MustTuple(1, 1, 0, 0, 0, 0, 0, 0, 0)},
	{galaxy.App{}, workload.Params{N: 4096, A: 50}, config.MustTuple(2, 0, 0, 1, 0, 0, 0, 0, 0)},
	{sand.App{}, workload.Params{N: 8e6, A: 0.32}, config.MustTuple(2, 0, 0, 0, 0, 0, 0, 0, 0)},
	{sand.App{}, workload.Params{N: 64e6, A: 0.32}, config.MustTuple(3, 0, 0, 0, 0, 0, 0, 0, 0)},
	{sand.App{}, workload.Params{N: 2e6, A: 0.32}, config.MustTuple(5, 0, 0, 0, 0, 0, 0, 0, 0)},
	{galaxy.App{}, workload.Params{N: 319202.73426374665, A: 50}, config.MustTuple(5, 5, 5, 0, 1, 5, 0, 0, 0)},
	{galaxy.App{}, workload.Params{N: 216962.09506641558, A: 50}, config.MustTuple(1, 5, 5, 0, 0, 0, 0, 0, 0)},
	{galaxy.App{}, workload.Params{N: 313737.298212381, A: 50}, config.MustTuple(5, 5, 5, 1, 0, 4, 0, 0, 0)},
	{sand.App{}, workload.Params{N: 7.87462362382e+07, A: 0.32}, config.MustTuple(4, 5, 5, 0, 0, 0, 0, 0, 0)},
	{sand.App{}, workload.Params{N: 5.216461615256374e+07, A: 0.32}, config.MustTuple(0, 5, 4, 0, 0, 0, 0, 0, 0)},
	{sand.App{}, workload.Params{N: 6.2429425845189326e+07, A: 0.32}, config.MustTuple(5, 5, 5, 1, 0, 1, 0, 0, 0)},
	{x264.App{}, workload.Params{N: 997.9819916908793, A: 20}, config.MustTuple(5, 5, 5, 0, 1, 3, 0, 0, 0)},
	{x264.App{}, workload.Params{N: 1072.7570631876724, A: 20}, config.MustTuple(5, 5, 5, 4, 5, 2, 0, 0, 0)},
	{x264.App{}, workload.Params{N: 1105.7913081702384, A: 20}, config.MustTuple(1, 5, 4, 0, 0, 0, 0, 0, 0)},
}

// goldenPolicies are the grid's recovery policies: the default, the
// zero policy (unbounded retries, no checkpoints, immediate failover),
// a tight retry budget with a short failover, and frequent cheap
// checkpoints.
var goldenPolicies = []faults.Recovery{
	faults.DefaultRecovery(),
	{},
	{MaxTaskRetries: 1, FailoverDetection: 2},
	{MaxTaskRetries: 5, CheckpointEverySteps: 2, CheckpointCost: 0.5},
}

// goldenTraces returns the grid's failure traces for a cluster of inst
// instances whose failure-free run takes base: the empty trace, Poisson
// draws from 0.05 to 50 failures per instance-hour, and explicit events
// at launch, at startup's end, mid-run, exactly at the makespan, long
// after it, and on every instance.
func goldenTraces(inst int, startup, base units.Seconds) []faults.Trace {
	out := []faults.Trace{{}}
	for _, hazard := range []float64{0.05, 0.2, 1, 5, 20, 50} {
		for seed := uint64(1); seed <= 8; seed++ {
			out = append(out, faults.PoissonTrace(seed, hazard, inst, 3*base))
		}
	}
	last := inst - 1
	out = append(out,
		faults.NewTrace(faults.Event{Instance: 0, At: 0}),
		faults.NewTrace(faults.Event{Instance: last, At: startup}),
		faults.NewTrace(faults.Event{Instance: 0, At: base / 2}),
		faults.NewTrace(faults.Event{Instance: last, At: base / 2}),
		faults.NewTrace(faults.Event{Instance: 0, At: base}),
		faults.NewTrace(faults.Event{Instance: last, At: base + 1e6}),
	)
	every := make([]faults.Event, inst)
	for i := range every {
		every[i] = faults.Event{Instance: i, At: base * units.Seconds(i+1) / units.Seconds(inst+1)}
	}
	return append(out, faults.NewTrace(every...))
}

// goldenRunDigest is the FNV-1a digest of every grid run's result (or
// error string). A change to the event calendar or to a failure path
// that moves any run's makespan, cost, counts or error moves it.
const goldenRunDigest uint64 = 0x453cacef4808b668

func TestRunGoldenDigest(t *testing.T) {
	cat := ec2.Oregon()
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	runs := 0
	for _, c := range goldenCases {
		base, err := Run(c.app, c.p, c.tuple, cat, DefaultOptions())
		if err != nil {
			t.Fatalf("%s base run: %v", c.app.Name(), err)
		}
		for _, tr := range goldenTraces(base.Instances, AppStartup(c.app.Name()), base.Makespan) {
			for _, rec := range goldenPolicies {
				opts := DefaultOptions()
				opts.Trace = tr
				opts.Recovery = rec
				res, err := Run(c.app, c.p, c.tuple, cat, opts)
				runs++
				if err != nil {
					h.Write([]byte(err.Error()))
					continue
				}
				put(math.Float64bits(float64(res.Makespan)))
				put(math.Float64bits(float64(res.Cost)))
				put(res.Events)
				put(uint64(res.Failures))
				put(uint64(res.Tasks))
			}
		}
	}
	if got := h.Sum64(); got != goldenRunDigest {
		t.Fatalf("golden grid digest %#x over %d runs, want %#x", got, runs, goldenRunDigest)
	}
}
