package risk

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/apps/galaxy"
	"repro/internal/apps/x264"
	"repro/internal/cloudsim"
	"repro/internal/config"
	"repro/internal/ec2"
	"repro/internal/faults"
	"repro/internal/units"
	"repro/internal/workload"
)

func baseOpts() Options {
	return Options{
		Trials:        64,
		Seed:          7,
		HazardPerHour: 2,
		Deadline:      units.FromHours(1),
		Sim:           cloudsim.DefaultOptions(),
		Recovery:      faults.DefaultRecovery(),
	}
}

func TestEstimateValidation(t *testing.T) {
	cat := ec2.Oregon()
	tuple := config.MustTuple(2, 0, 0, 0, 0, 0, 0, 0, 0)
	p := workload.Params{N: 16, A: 20}

	bad := baseOpts()
	bad.Deadline = 0
	if _, err := Estimate(x264.App{}, p, tuple, cat, bad); err == nil {
		t.Fatal("zero deadline accepted")
	}
	bad = baseOpts()
	bad.HazardPerHour = -1
	if _, err := Estimate(x264.App{}, p, tuple, cat, bad); err == nil {
		t.Fatal("negative hazard accepted")
	}
	bad = baseOpts()
	bad.Trials = MaxTrials + 1
	if _, err := Estimate(x264.App{}, p, tuple, cat, bad); err == nil {
		t.Fatal("oversized trial count accepted")
	}
	bad = baseOpts()
	bad.Trials = -1
	if _, err := Estimate(x264.App{}, p, tuple, cat, bad); err == nil {
		t.Fatal("negative trial count accepted")
	}
}

func TestZeroHazardMatchesBase(t *testing.T) {
	// λ = 0 draws only empty traces: every trial equals the base run and
	// a deadline above it is never missed.
	cat := ec2.Oregon()
	tuple := config.MustTuple(2, 0, 0, 0, 0, 0, 0, 0, 0)
	p := workload.Params{N: 16, A: 20}
	opts := baseOpts()
	opts.HazardPerHour = 0
	res, err := Estimate(x264.App{}, p, tuple, cat, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.MissProb != 0 || res.Failed != 0 {
		t.Fatalf("zero hazard missed: prob %v, failed %d", res.MissProb, res.Failed)
	}
	if res.MakespanP50 != res.BaseMakespan || res.MakespanP99 != res.BaseMakespan {
		t.Fatalf("zero-hazard quantiles %v / %v differ from base %v",
			res.MakespanP50, res.MakespanP99, res.BaseMakespan)
	}
	if res.CostP50 != res.BaseCost {
		t.Fatalf("zero-hazard cost quantile %v differs from base %v", res.CostP50, res.BaseCost)
	}
	if res.MeanFailures != 0 {
		t.Fatalf("zero hazard produced %v failures/trial", res.MeanFailures)
	}
}

func TestDeadlineBelowBaseAlwaysMisses(t *testing.T) {
	cat := ec2.Oregon()
	tuple := config.MustTuple(2, 0, 0, 0, 0, 0, 0, 0, 0)
	p := workload.Params{N: 16, A: 20}
	opts := baseOpts()
	opts.HazardPerHour = 0
	opts.Deadline = 1 // one second: unreachable
	res, err := Estimate(x264.App{}, p, tuple, cat, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.MissProb != 1 {
		t.Fatalf("unreachable deadline missed with prob %v, want 1", res.MissProb)
	}
}

// setProcs sets GOMAXPROCS to n until the test ends: the estimator
// sizes its trial workers from it.
func setProcs(t *testing.T, n int) {
	t.Helper()
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

func TestEstimateDeterministicAcrossWorkerCounts(t *testing.T) {
	// Same seed and hazard → identical output, serial or parallel.
	cat := ec2.Oregon()
	tuple := config.MustTuple(2, 0, 0, 0, 0, 0, 0, 0, 0)
	p := workload.Params{N: 16, A: 20}

	setProcs(t, 1)
	a, err := Estimate(x264.App{}, p, tuple, cat, baseOpts())
	if err != nil {
		t.Fatal(err)
	}
	setProcs(t, 8)
	b, err := Estimate(x264.App{}, p, tuple, cat, baseOpts())
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("worker count changed the estimate:\n%+v\n%+v", a, b)
	}
	c, err := Estimate(x264.App{}, p, tuple, cat, baseOpts())
	if err != nil {
		t.Fatal(err)
	}
	if b != c {
		t.Fatal("repeated estimate diverged")
	}
	diff := baseOpts()
	diff.Seed = 8
	d, err := Estimate(x264.App{}, p, tuple, cat, diff)
	if err != nil {
		t.Fatal(err)
	}
	if d == b && d.MeanFailures > 0 {
		t.Fatal("different seed produced an identical non-trivial estimate")
	}
}

func TestHazardRaisesRisk(t *testing.T) {
	// A hazard high enough to kill instances mid-run must push both the
	// makespan tail and the miss probability above the zero-hazard case.
	cat := ec2.Oregon()
	tuple := config.MustTuple(2, 0, 0, 0, 0, 0, 0, 0, 0)
	p := workload.Params{N: 64, A: 20}

	calm := baseOpts()
	calm.HazardPerHour = 0
	quiet, err := Estimate(x264.App{}, p, tuple, cat, calm)
	if err != nil {
		t.Fatal(err)
	}
	// Deadline 5% above the base: losing an instance mid-run (its
	// redone work on the survivor) blows through it. At 1 failure per
	// instance-hour some trials still lose both instances and fail;
	// the successful ones make the tail.
	storm := baseOpts()
	storm.HazardPerHour = 1
	storm.Deadline = units.Seconds(1.05 * float64(quiet.BaseMakespan))
	calm.Deadline = storm.Deadline
	quiet, err = Estimate(x264.App{}, p, tuple, cat, calm)
	if err != nil {
		t.Fatal(err)
	}
	risky, err := Estimate(x264.App{}, p, tuple, cat, storm)
	if err != nil {
		t.Fatal(err)
	}
	if risky.MeanFailures <= 0 {
		t.Fatal("high hazard produced no failures")
	}
	if risky.MissProb <= quiet.MissProb {
		t.Fatalf("hazard did not raise miss probability: %v vs %v", risky.MissProb, quiet.MissProb)
	}
	if risky.MakespanP99 <= quiet.MakespanP99 {
		t.Fatalf("hazard did not stretch the makespan tail: %v vs %v",
			risky.MakespanP99, quiet.MakespanP99)
	}
}

func TestFailedTrialsCountAsMisses(t *testing.T) {
	// At 200 failures per instance-hour some trials lose both instances
	// of the BSP job, which fails them ("all BSP ranks failed"); those
	// trials must surface as Failed and count toward MissProb.
	cat := ec2.Oregon()
	tuple := config.MustTuple(2, 0, 0, 0, 0, 0, 0, 0, 0)
	p := workload.Params{N: 2048, A: 50}
	opts := baseOpts()
	opts.HazardPerHour = 200 // ~every trial sees a failure
	opts.Deadline = units.FromHours(10)
	res, err := Estimate(galaxy.App{}, p, tuple, cat, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed == 0 {
		t.Fatal("no failed trials despite an extreme hazard on a two-instance BSP job")
	}
	if res.MissProb < float64(res.Failed)/float64(res.Trials) {
		t.Fatalf("miss probability %v below the failed-trial fraction %v",
			res.MissProb, float64(res.Failed)/float64(res.Trials))
	}
}

// cancelAfterEntry is a Context that reports itself canceled on every
// Err poll after the first: EstimateContext's entry check passes, and
// the next poll — the trial-dispatch select or the post-join check —
// sees a canceled context. That makes mid-run cancellation
// deterministic without sleeping against the Monte-Carlo's wall clock.
type cancelAfterEntry struct {
	done  chan struct{}
	polls atomic.Int32
}

func newCancelAfterEntry() *cancelAfterEntry {
	ch := make(chan struct{})
	close(ch)
	return &cancelAfterEntry{done: ch}
}

func (c *cancelAfterEntry) Deadline() (time.Time, bool)       { return time.Time{}, false }
func (c *cancelAfterEntry) Done() <-chan struct{}             { return c.done }
func (c *cancelAfterEntry) Value(key interface{}) interface{} { return nil }
func (c *cancelAfterEntry) Err() error {
	if c.polls.Add(1) == 1 {
		return nil
	}
	return context.Canceled
}

// TestEstimateContextCancellation is the regression test for the
// dropped-ctx bug the ctxflow rule caught: the serving path used to
// call the context-free Estimate, so request cancellation never
// reached the trial dispatch. Both the entry check and the dispatch
// loop must observe cancellation.
func TestEstimateContextCancellation(t *testing.T) {
	cat := ec2.Oregon()
	tuple := config.MustTuple(2, 0, 0, 0, 0, 0, 0, 0, 0)
	p := workload.Params{N: 16, A: 20}

	// Already-canceled context: rejected before any trial runs.
	pre, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := EstimateContext(pre, x264.App{}, p, tuple, cat, baseOpts()); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled ctx: err = %v, want context.Canceled", err)
	}

	// Canceled right after entry: the dispatch must stop mid-run and
	// surface the cancellation, not drain all trials and return a result.
	opts := baseOpts()
	opts.Trials = MaxTrials
	setProcs(t, 1)
	res, err := EstimateContext(newCancelAfterEntry(), x264.App{}, p, tuple, cat, opts)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-run cancel: err = %v, want context.Canceled", err)
	}
	if res != (Result{}) {
		t.Fatalf("canceled estimate returned a partial result: %+v", res)
	}

	// The context-free wrapper still works for offline callers.
	if _, err := Estimate(x264.App{}, p, tuple, cat, baseOpts()); err != nil {
		t.Fatalf("Estimate: %v", err)
	}
}
