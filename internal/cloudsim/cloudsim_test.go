package cloudsim

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/apps/galaxy"
	"repro/internal/apps/sand"
	"repro/internal/apps/x264"
	"repro/internal/config"
	"repro/internal/ec2"
	"repro/internal/faults"
	"repro/internal/model"
	"repro/internal/stats"
	"repro/internal/units"
	"repro/internal/workload"
)

func TestRunValidation(t *testing.T) {
	cat := ec2.Oregon()
	opts := DefaultOptions()
	if _, err := Run(galaxy.App{}, workload.Params{N: 1024, A: 10},
		config.MustTuple(1, 0), cat, opts); err == nil {
		t.Fatal("arity mismatch accepted")
	}
	if _, err := Run(galaxy.App{}, workload.Params{N: 1024, A: 10},
		config.MustTuple(0, 0, 0, 0, 0, 0, 0, 0, 0), cat, opts); err == nil {
		t.Fatal("empty configuration accepted")
	}
}

func TestIndependentNearModelOnSingleInstance(t *testing.T) {
	// On one instance, with the startup taken off, the simulator must
	// approach the analytic model: same capacity law, only jitter and
	// task-granularity tail differ.
	cat := ec2.Oregon()
	var app x264.App
	p := workload.Params{N: 64, A: 20}
	tuple := config.MustTuple(1, 0, 0, 0, 0, 0, 0, 0, 0)
	res, err := Run(app, p, tuple, cat, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	compute := res.Makespan - AppStartup(app.Name())
	pred := model.FromIPC(cat, app).Predict(app.Demand(p), tuple)
	if e := stats.RelErr(float64(pred.Time), float64(compute)); e > 5 {
		t.Fatalf("sim vs model differ %.1f%% (sim %v after startup, model %v)", e, compute, pred.Time)
	}
}

func TestIndependentTailImbalance(t *testing.T) {
	// One task fewer than 2× the vCPU count leaves the last wave half
	// empty: makespan ≈ 2 task times even though capacity suggests
	// less.
	cat := ec2.Oregon()
	var app x264.App
	tuple := config.MustTuple(0, 0, 1, 0, 0, 0, 0, 0, 0) // 8 vCPUs
	p := workload.Params{N: 9, A: 20}                    // 9 tasks on 8 vCPUs
	res, err := Run(app, p, tuple, cat, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	taskTime := float64(x264.ClipDemand(20)) / (app.IPC(ec2.C4) * 2.9e9)
	if got := float64(res.Makespan - AppStartup(app.Name())); got < 1.9*taskTime {
		t.Fatalf("makespan %v < 2 waves (%v); tail imbalance not modeled", got, 2*taskTime)
	}
}

func TestBSPGalaxyMatchesModelShape(t *testing.T) {
	cat := ec2.Oregon()
	var app galaxy.App
	p := workload.Params{N: 4096, A: 50}
	tuple := config.MustTuple(2, 0, 0, 1, 0, 0, 0, 0, 0)
	res, err := Run(app, p, tuple, cat, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	pred := model.FromIPC(cat, app).Predict(app.Demand(p), tuple)
	// Simulated time exceeds the ideal model (startup, comm, remainder
	// imbalance) but stays within ~15%.
	if res.Makespan < pred.Time {
		t.Fatalf("simulated %v faster than ideal model %v", res.Makespan, pred.Time)
	}
	if e := stats.RelErr(float64(res.Makespan), float64(pred.Time)); e > 15 {
		t.Fatalf("sim deviates %.1f%% from model", e)
	}
	if res.Tasks != 50 {
		t.Fatalf("BSP steps = %d, want 50", res.Tasks)
	}
}

func TestBSPSingleInstanceNoComm(t *testing.T) {
	// Communication applies only across instances: a single-node run,
	// with the startup taken off, should sit within jitter of the model.
	cat := ec2.Oregon()
	var app galaxy.App
	p := workload.Params{N: 2048, A: 20}
	tuple := config.MustTuple(0, 0, 1, 0, 0, 0, 0, 0, 0)
	res, err := Run(app, p, tuple, cat, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	pred := model.FromIPC(cat, app).Predict(app.Demand(p), tuple)
	if e := stats.RelErr(float64(res.Makespan-AppStartup(app.Name())), float64(pred.Time)); e > 3.5 {
		t.Fatalf("single-node BSP deviates %.1f%% from model", e)
	}
}

func TestMasterWorkerDispatchSlowsLargeClusters(t *testing.T) {
	// The same sand workload on a large cluster suffers relatively
	// more from serialized dispatch than the model predicts.
	cat := ec2.Oregon()
	var app sand.App
	p := workload.Params{N: 512e6, A: 0.32}
	caps := model.FromIPC(cat, app)

	small := config.MustTuple(1, 0, 0, 0, 0, 0, 0, 0, 0)
	large := config.MustTuple(5, 5, 5, 0, 0, 0, 0, 0, 0)
	rSmall, err := Run(app, p, small, cat, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	rLarge, err := Run(app, p, large, cat, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	d := app.Demand(p)
	overSmall := float64(rSmall.Makespan) / float64(caps.Predict(d, small).Time)
	overLarge := float64(rLarge.Makespan) / float64(caps.Predict(d, large).Time)
	if overLarge <= overSmall {
		t.Fatalf("dispatch overhead ratio small=%.3f large=%.3f; want larger cluster worse",
			overSmall, overLarge)
	}
	if overLarge < 1.02 {
		t.Fatalf("large-cluster overhead %.3f; sand must under-predict at scale", overLarge)
	}
}

func TestCostBillsBootAndMakespan(t *testing.T) {
	cat := ec2.Oregon()
	var app x264.App
	p := workload.Params{N: 16, A: 20}
	tuple := config.MustTuple(2, 0, 0, 0, 0, 0, 0, 0, 0)
	opts := DefaultOptions()
	res, err := Run(app, p, tuple, cat, opts)
	if err != nil {
		t.Fatal(err)
	}
	price, _ := cat.Lookup("c4.large")
	want := 2 * float64(price.Price) / 3600 * float64(opts.Boot+res.Makespan)
	if math.Abs(float64(res.Cost)-want)/want > 1e-9 {
		t.Fatalf("cost = %v, want %v", res.Cost, want)
	}
	if res.Instances != 2 || res.VCPUs != 4 {
		t.Fatalf("cluster shape %d instances / %d vCPUs", res.Instances, res.VCPUs)
	}
}

func TestRunDeterministicForSeed(t *testing.T) {
	cat := ec2.Oregon()
	var app galaxy.App
	p := workload.Params{N: 2048, A: 10}
	tuple := config.MustTuple(1, 1, 0, 0, 0, 0, 0, 0, 0)
	a, err := Run(app, p, tuple, cat, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(app, p, tuple, cat, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if a.Makespan != b.Makespan || a.Cost != b.Cost {
		t.Fatal("simulation not deterministic for equal options")
	}
	opts2 := DefaultOptions()
	opts2.Seed = 99
	c, err := Run(app, p, tuple, cat, opts2)
	if err != nil {
		t.Fatal(err)
	}
	if c.Makespan == a.Makespan {
		t.Fatal("different seed produced identical makespan (jitter not applied)")
	}
}

func TestPartitionProportional(t *testing.T) {
	vcpus := []vcpuRef{{0, 100}, {0, 100}, {1, 200}}
	share := partitionProportional(40, vcpus)
	if share[0]+share[1]+share[2] != 40 {
		t.Fatalf("partition loses elements: %v", share)
	}
	if share[2] <= share[0] {
		t.Fatalf("faster rank got fewer elements: %v", share)
	}
	// Exact proportional case.
	if share[0] != 10 || share[1] != 10 || share[2] != 20 {
		t.Fatalf("partition = %v, want [10 10 20]", share)
	}
}

func TestPartitionRemainder(t *testing.T) {
	vcpus := []vcpuRef{{0, 1}, {0, 1}, {0, 1}}
	share := partitionProportional(10, vcpus)
	total := 0
	for _, s := range share {
		total += s
		if s < 3 || s > 4 {
			t.Fatalf("unbalanced remainder split: %v", share)
		}
	}
	if total != 10 {
		t.Fatalf("partition total %d, want 10", total)
	}
}

func TestAppStartupDefaults(t *testing.T) {
	if AppStartup("x264") <= AppStartup("galaxy") {
		t.Fatal("x264 stages input; its startup should dominate galaxy's")
	}
	if AppStartup("unknown") <= 0 {
		t.Fatal("unknown apps need a positive default startup")
	}
}

func TestMasterWorkerFewTasks(t *testing.T) {
	// Fewer tasks than workers must still terminate and keep workers
	// partially idle.
	cat := ec2.Oregon()
	var app sand.App
	p := workload.Params{N: 2e6, A: 0.32} // few tasks
	tuple := config.MustTuple(5, 0, 0, 0, 0, 0, 0, 0, 0)
	res, err := Run(app, p, tuple, cat, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan <= 0 {
		t.Fatalf("makespan = %v", res.Makespan)
	}
}

func TestFailureIndependentRecovers(t *testing.T) {
	cat := ec2.Oregon()
	var app x264.App
	p := workload.Params{N: 64, A: 20}
	tuple := config.MustTuple(2, 0, 0, 0, 0, 0, 0, 0, 0)
	base, err := Run(app, p, tuple, cat, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	failed := DefaultOptions()
	failed.Trace = faults.NewTrace(faults.Event{Instance: 1, At: base.Makespan / 2})
	res, err := Run(app, p, tuple, cat, failed)
	if err != nil {
		t.Fatal(err)
	}
	// Losing half the cluster halfway through must slow the run but
	// still complete all work.
	if res.Makespan <= base.Makespan {
		t.Fatalf("failure did not slow the run: %v vs %v", res.Makespan, base.Makespan)
	}
	// Rough bound: remaining half of the work on half the capacity
	// adds at most ~1 extra base makespan plus a task tail.
	if float64(res.Makespan) > 2.5*float64(base.Makespan) {
		t.Fatalf("failure recovery too slow: %v vs %v", res.Makespan, base.Makespan)
	}
	// The failed instance stops billing at the failure time.
	if res.Cost >= base.Cost*2 {
		t.Fatalf("failed run cost %v unreasonably high vs %v", res.Cost, base.Cost)
	}
}

func TestFailureValidation(t *testing.T) {
	cat := ec2.Oregon()
	opts := DefaultOptions()
	opts.Trace = faults.NewTrace(faults.Event{Instance: 99, At: 10})
	if _, err := Run(x264.App{}, workload.Params{N: 8, A: 20},
		config.MustTuple(1, 0, 0, 0, 0, 0, 0, 0, 0), cat, opts); err == nil {
		t.Fatal("out-of-cluster fail instance accepted")
	}
}

func TestFailureWorkConservation(t *testing.T) {
	// Every task completes exactly once on a surviving worker: the
	// makespan with a failure at t=0 equals a run on the surviving
	// instance alone.
	cat := ec2.Oregon()
	var app x264.App
	p := workload.Params{N: 32, A: 20}
	two := config.MustTuple(2, 0, 0, 0, 0, 0, 0, 0, 0)
	one := config.MustTuple(1, 0, 0, 0, 0, 0, 0, 0, 0)

	failEarly := DefaultOptions()
	failEarly.Trace = faults.NewTrace(faults.Event{Instance: 1, At: units.Seconds(0.001)})
	resFail, err := Run(app, p, two, cat, failEarly)
	if err != nil {
		t.Fatal(err)
	}
	resOne, err := Run(app, p, one, cat, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Jitter differs per instance id, so allow a few percent.
	if e := stats.RelErr(float64(resFail.Makespan), float64(resOne.Makespan)); e > 5 {
		t.Fatalf("immediate failure (%v) differs %.1f%% from single-instance run (%v)",
			resFail.Makespan, e, resOne.Makespan)
	}
}

func TestZeroEventTraceBitForBit(t *testing.T) {
	// An explicitly empty trace under a policy without checkpoints must
	// follow the exact event sequence and float arithmetic of a run with
	// no fault options: same makespan, same cost, to the last bit.
	cat := ec2.Oregon()
	cases := []struct {
		app   workload.App
		p     workload.Params
		tuple config.Tuple
	}{
		{x264.App{}, workload.Params{N: 32, A: 20}, config.MustTuple(2, 0, 0, 0, 0, 0, 0, 0, 0)},
		{galaxy.App{}, workload.Params{N: 2048, A: 10}, config.MustTuple(1, 1, 0, 0, 0, 0, 0, 0, 0)},
		{sand.App{}, workload.Params{N: 8e6, A: 0.32}, config.MustTuple(2, 0, 0, 0, 0, 0, 0, 0, 0)},
	}
	for _, c := range cases {
		base, err := Run(c.app, c.p, c.tuple, cat, DefaultOptions())
		if err != nil {
			t.Fatalf("%s: %v", c.app.Name(), err)
		}
		rec := DefaultOptions()
		rec.Trace = faults.Trace{}
		rec.Recovery = faults.Recovery{MaxTaskRetries: 3, FailoverDetection: 10}
		got, err := Run(c.app, c.p, c.tuple, cat, rec)
		if err != nil {
			t.Fatalf("%s: %v", c.app.Name(), err)
		}
		if got.Makespan != base.Makespan || got.Cost != base.Cost || got.Events != base.Events {
			t.Fatalf("%s: zero-event run diverged: makespan %v vs %v, cost %v vs %v, events %d vs %d",
				c.app.Name(), got.Makespan, base.Makespan, got.Cost, base.Cost, got.Events, base.Events)
		}
		if got.Failures != 0 {
			t.Fatalf("%s: zero-event run reports %d failures", c.app.Name(), got.Failures)
		}
	}
}

func TestBSPCheckpointOverheadBilled(t *testing.T) {
	// With no failures, checkpointing every k steps costs exactly
	// floor((steps-1)/k) checkpoint writes of wall time on top of the
	// plain barrier loop — and that time is billed.
	cat := ec2.Oregon()
	var app galaxy.App
	p := workload.Params{N: 4096, A: 50}
	tuple := config.MustTuple(2, 0, 0, 0, 0, 0, 0, 0, 0)
	plain, err := Run(app, p, tuple, cat, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.Recovery = faults.Recovery{CheckpointEverySteps: 10, CheckpointCost: 5}
	ck, err := Run(app, p, tuple, cat, opts)
	if err != nil {
		t.Fatal(err)
	}
	// 50 steps, checkpoints after 10, 20, 30, 40 (never after the last).
	want := plain.Makespan + 4*5
	if math.Abs(float64(ck.Makespan-want)) > 1e-6 {
		t.Fatalf("checkpointed makespan %v, want plain %v + 20s", ck.Makespan, plain.Makespan)
	}
	if ck.Cost <= plain.Cost {
		t.Fatalf("checkpoint overhead not billed: %v vs %v", ck.Cost, plain.Cost)
	}
}

func TestBSPCheckpointRestartCompletes(t *testing.T) {
	// A mid-run failure rolls the survivors back to the last checkpoint;
	// the run still completes every step, and checkpointing beats
	// restarting the whole computation from step 0.
	cat := ec2.Oregon()
	var app galaxy.App
	p := workload.Params{N: 4096, A: 50}
	tuple := config.MustTuple(2, 0, 0, 0, 0, 0, 0, 0, 0)
	rec := faults.Recovery{CheckpointEverySteps: 5, CheckpointCost: 2}

	ckOnly := DefaultOptions()
	ckOnly.Recovery = rec
	base, err := Run(app, p, tuple, cat, ckOnly)
	if err != nil {
		t.Fatal(err)
	}
	failAt := units.Seconds(0.6 * float64(base.Makespan))

	withFail := ckOnly
	withFail.Trace = faults.NewTrace(faults.Event{Instance: 1, At: failAt})
	res, err := Run(app, p, tuple, cat, withFail)
	if err != nil {
		t.Fatal(err)
	}
	if res.Tasks != 50 {
		t.Fatalf("steps completed = %d, want 50", res.Tasks)
	}
	if res.Makespan <= base.Makespan {
		t.Fatalf("mid-run failure did not slow the run: %v vs %v", res.Makespan, base.Makespan)
	}
	if res.Failures != 1 {
		t.Fatalf("failures = %d, want 1", res.Failures)
	}

	noCkpt := DefaultOptions()
	noCkpt.Recovery = faults.Recovery{}
	noCkpt.Trace = withFail.Trace
	fromZero, err := Run(app, p, tuple, cat, noCkpt)
	if err != nil {
		t.Fatal(err)
	}
	if fromZero.Makespan <= res.Makespan {
		t.Fatalf("restart-from-zero (%v) not slower than checkpointed restart (%v)",
			fromZero.Makespan, res.Makespan)
	}
}

func TestBSPAllRanksFailedErrors(t *testing.T) {
	cat := ec2.Oregon()
	opts := DefaultOptions()
	opts.Recovery = faults.Recovery{CheckpointEverySteps: 5, CheckpointCost: 2}
	opts.Trace = faults.NewTrace(
		faults.Event{Instance: 0, At: 1},
		faults.Event{Instance: 1, At: 2},
	)
	_, err := Run(galaxy.App{}, workload.Params{N: 2048, A: 20},
		config.MustTuple(2, 0, 0, 0, 0, 0, 0, 0, 0), cat, opts)
	if err == nil {
		t.Fatal("run with every rank dead completed")
	}
}

func TestMasterFailoverCompletes(t *testing.T) {
	// The master dies mid-run; after FailoverDetection a surviving
	// instance is promoted and the remaining work drains through it.
	cat := ec2.Oregon()
	var app sand.App
	p := workload.Params{N: 64e6, A: 0.32}
	tuple := config.MustTuple(3, 0, 0, 0, 0, 0, 0, 0, 0)
	base, err := Run(app, p, tuple, cat, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.Recovery = faults.Recovery{MaxTaskRetries: 5, FailoverDetection: 10}
	opts.Trace = faults.NewTrace(faults.Event{Instance: 0, At: base.Makespan / 2})
	res, err := Run(app, p, tuple, cat, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan <= base.Makespan {
		t.Fatalf("master failover did not slow the run: %v vs %v", res.Makespan, base.Makespan)
	}
	if res.Failures != 1 {
		t.Fatalf("failures = %d, want 1", res.Failures)
	}
	// The dead master stops billing at the failure.
	if res.Cost >= base.Cost*2 {
		t.Fatalf("failover run cost %v unreasonably high vs %v", res.Cost, base.Cost)
	}
}

func TestMasterAndAllWorkersFailErrors(t *testing.T) {
	cat := ec2.Oregon()
	opts := DefaultOptions()
	opts.Recovery = faults.Recovery{FailoverDetection: 10}
	opts.Trace = faults.NewTrace(
		faults.Event{Instance: 0, At: 30},
		faults.Event{Instance: 1, At: 31},
	)
	_, err := Run(sand.App{}, workload.Params{N: 64e6, A: 0.32},
		config.MustTuple(2, 0, 0, 0, 0, 0, 0, 0, 0), cat, opts)
	if err == nil {
		t.Fatal("run with master and every worker dead completed")
	}
}

func TestIndependentMultiFailureConservation(t *testing.T) {
	// Two of three instances die immediately: every task still completes
	// exactly once, so the makespan matches a single-instance run.
	cat := ec2.Oregon()
	var app x264.App
	p := workload.Params{N: 32, A: 20}
	three := config.MustTuple(3, 0, 0, 0, 0, 0, 0, 0, 0)
	one := config.MustTuple(1, 0, 0, 0, 0, 0, 0, 0, 0)

	opts := DefaultOptions()
	opts.Recovery = faults.DefaultRecovery()
	opts.Trace = faults.NewTrace(
		faults.Event{Instance: 1, At: units.Seconds(0.001)},
		faults.Event{Instance: 2, At: units.Seconds(0.002)},
	)
	resFail, err := Run(app, p, three, cat, opts)
	if err != nil {
		t.Fatal(err)
	}
	resOne, err := Run(app, p, one, cat, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if e := stats.RelErr(float64(resFail.Makespan), float64(resOne.Makespan)); e > 5 {
		t.Fatalf("double immediate failure (%v) differs %.1f%% from single-instance run (%v)",
			resFail.Makespan, e, resOne.Makespan)
	}
	if resFail.Failures != 2 {
		t.Fatalf("failures = %d, want 2", resFail.Failures)
	}
}

func TestIndependentRetryBudgetExceeded(t *testing.T) {
	// A task lost twice under MaxTaskRetries=1 must fail the run: fail
	// one instance mid-wave (its tasks are re-dispatched), then kill
	// both survivors while the retried tasks are in flight. The wave
	// starts when the startup ends.
	cat := ec2.Oregon()
	var app x264.App
	p := workload.Params{N: 6, A: 20} // one task per vCPU: a single wave
	tuple := config.MustTuple(3, 0, 0, 0, 0, 0, 0, 0, 0)
	opts := DefaultOptions()
	base, err := Run(app, p, tuple, cat, opts)
	if err != nil {
		t.Fatal(err)
	}
	startup := AppStartup(app.Name())
	wave := float64(base.Makespan - startup)
	opts.Recovery = faults.Recovery{MaxTaskRetries: 1}
	opts.Trace = faults.NewTrace(
		faults.Event{Instance: 0, At: startup + units.Seconds(0.5*wave)},
		faults.Event{Instance: 1, At: startup + units.Seconds(1.3*wave)},
		faults.Event{Instance: 2, At: startup + units.Seconds(1.35*wave)},
	)
	_, err = Run(app, p, tuple, cat, opts)
	if err == nil || !strings.Contains(err.Error(), "retry budget") {
		t.Fatalf("exhausted retry budget not reported: %v", err)
	}
}

func TestMultiEventBillingCaps(t *testing.T) {
	// Every failed instance bills Boot + min(FailAt, makespan); the
	// survivor bills Boot + makespan.
	cat := ec2.Oregon()
	var app x264.App
	p := workload.Params{N: 32, A: 20}
	tuple := config.MustTuple(3, 0, 0, 0, 0, 0, 0, 0, 0)
	opts := DefaultOptions()
	opts.Recovery = faults.DefaultRecovery()
	t1, t2 := units.Seconds(40), units.Seconds(90)
	opts.Trace = faults.NewTrace(
		faults.Event{Instance: 1, At: t1},
		faults.Event{Instance: 2, At: t2},
	)
	res, err := Run(app, p, tuple, cat, opts)
	if err != nil {
		t.Fatal(err)
	}
	price, _ := cat.Lookup("c4.large")
	perHr := float64(price.Price) / 3600
	want := perHr * (float64(opts.Boot+res.Makespan) + float64(opts.Boot+t1) + float64(opts.Boot+t2))
	if math.Abs(float64(res.Cost)-want)/want > 1e-9 {
		t.Fatalf("cost = %v, want %v (per-event billing caps)", res.Cost, want)
	}
}

func TestFailureAfterCompletionBillsFullSpan(t *testing.T) {
	// An event after the run already finished changes nothing, for every
	// plan kind, under the zero policy and DefaultRecovery(): the
	// instance bills through the makespan, exactly as without the event.
	cat := ec2.Oregon()
	cases := []struct {
		app   workload.App
		p     workload.Params
		tuple config.Tuple
	}{
		{x264.App{}, workload.Params{N: 16, A: 20}, config.MustTuple(2, 0, 0, 0, 0, 0, 0, 0, 0)},
		{galaxy.App{}, workload.Params{N: 2048, A: 10}, config.MustTuple(2, 0, 0, 0, 0, 0, 0, 0, 0)},
		{sand.App{}, workload.Params{N: 8e6, A: 0.32}, config.MustTuple(2, 0, 0, 0, 0, 0, 0, 0, 0)},
	}
	for _, c := range cases {
		for _, rec := range []faults.Recovery{{}, faults.DefaultRecovery()} {
			name := fmt.Sprintf("%s/%+v", c.app.Name(), rec)
			base := DefaultOptions()
			base.Recovery = rec
			want, err := Run(c.app, c.p, c.tuple, cat, base)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			opts := base
			opts.Trace = faults.NewTrace(faults.Event{Instance: 1, At: want.Makespan + 1e6})
			res, err := Run(c.app, c.p, c.tuple, cat, opts)
			if err != nil {
				t.Fatalf("%s: post-completion event failed the run: %v", name, err)
			}
			if res.Makespan != want.Makespan || res.Cost != want.Cost {
				t.Fatalf("%s: post-completion event altered the run: makespan %v vs %v, cost %v vs %v",
					name, res.Makespan, want.Makespan, res.Cost, want.Cost)
			}
		}
	}
}

func TestFailureOneULPAfterCompletionIsFailureFree(t *testing.T) {
	// risk keeps the failure-free result for a trial whose first event
	// comes after the failure-free makespan. The earliest such event is
	// one ulp after it; put one on every instance there. Each finds the
	// run over, so makespan and cost equal the failure-free run's to the
	// bit, for every plan kind and policy. The same events at the
	// makespan itself fire before the last completion and change the
	// run, which is why the reuse test is strict.
	cat := ec2.Oregon()
	cases := []struct {
		app   workload.App
		p     workload.Params
		tuple config.Tuple
	}{
		{x264.App{}, workload.Params{N: 32, A: 20}, config.MustTuple(2, 0, 0, 0, 0, 0, 0, 0, 0)},
		{galaxy.App{}, workload.Params{N: 2048, A: 10}, config.MustTuple(1, 1, 0, 0, 0, 0, 0, 0, 0)},
		{sand.App{}, workload.Params{N: 8e6, A: 0.32}, config.MustTuple(2, 0, 0, 0, 0, 0, 0, 0, 0)},
	}
	everyAt := func(instances int, at units.Seconds) faults.Trace {
		evs := make([]faults.Event, instances)
		for i := range evs {
			evs[i] = faults.Event{Instance: i, At: at}
		}
		return faults.NewTrace(evs...)
	}
	for _, c := range cases {
		for _, rec := range []faults.Recovery{{}, faults.DefaultRecovery()} {
			name := fmt.Sprintf("%s/%+v", c.app.Name(), rec)
			opts := DefaultOptions()
			opts.Recovery = rec
			want, err := Run(c.app, c.p, c.tuple, cat, opts)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			opts.Trace = everyAt(want.Instances, units.Seconds(math.Nextafter(float64(want.Makespan), math.Inf(1))))
			got, err := Run(c.app, c.p, c.tuple, cat, opts)
			if err != nil {
				t.Fatalf("%s: events after completion failed the run: %v", name, err)
			}
			if math.Float64bits(float64(got.Makespan)) != math.Float64bits(float64(want.Makespan)) ||
				math.Float64bits(float64(got.Cost)) != math.Float64bits(float64(want.Cost)) {
				t.Fatalf("%s: makespan %v cost %v, want the failure-free %v and %v",
					name, got.Makespan, got.Cost, want.Makespan, want.Cost)
			}
			if got.Failures != want.Instances {
				t.Fatalf("%s: %d failures, want %d", name, got.Failures, want.Instances)
			}

			opts.Trace = everyAt(want.Instances, want.Makespan)
			at, err := Run(c.app, c.p, c.tuple, cat, opts)
			if err == nil && at.Makespan == want.Makespan && at.Cost == want.Cost {
				t.Fatalf("%s: events at the makespan left the run unchanged", name)
			}
		}
	}
}
