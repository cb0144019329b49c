// Package cloudsim is the cloud execution substrate: a discrete-event
// simulator of running an elastic application's full-scale workload on
// a cluster provisioned from a configuration tuple. It plays the role
// Amazon EC2 plays in the paper — both for baseline capacity
// characterization (timed scale-down runs on single instances, §IV-B)
// and for the "Actual" column of the Table IV validation.
//
// The simulator deliberately includes effects the analytical model
// (Eq. 2–6) abstracts away, because those effects are what the paper's
// validation error consists of:
//
//   - application startup on the cluster (MPI init, input staging),
//     which contaminates short baseline runs and amortizes at scale;
//   - per-instance performance jitter from processor sharing [26];
//   - BSP barrier synchronization and per-step exchanges (galaxy);
//   - serialized master dispatch and input shipping for work-queue
//     applications (sand);
//   - task-granularity tail imbalance on heterogeneous clusters;
//   - billing from provisioning (boot included) to teardown;
//   - instance failures, injected from a faults.Trace and recovered per
//     plan kind (bounded task re-dispatch, BSP checkpoint/restart,
//     master failover).
package cloudsim

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"repro/internal/config"
	"repro/internal/des"
	"repro/internal/ec2"
	"repro/internal/faults"
	"repro/internal/units"
	"repro/internal/vm"
	"repro/internal/workload"
)

// Network models the cluster interconnect (paper-era EC2: ~1 Gb/s
// class links with virtualization-inflated latency).
type Network struct {
	LatencySec  float64
	BytesPerSec float64
}

// DefaultNetwork returns the stock interconnect.
func DefaultNetwork() Network { return Network{LatencySec: 2e-3, BytesPerSec: 125e6} }

// Options configure a run.
type Options struct {
	Seed    uint64
	Boot    units.Seconds // VM provisioning latency (billed, not timed)
	Network Network

	// Trace injects instance failures: each event terminates one
	// instance at a time measured from application launch, losing its
	// in-flight work. An event after the run completes changes nothing.
	Trace faults.Trace

	// Recovery sets how each plan kind recovers from a failure: lost
	// tasks are re-dispatched within MaxTaskRetries, BSP ranks restart
	// from the last checkpoint, and a dead master is replaced after
	// FailoverDetection. The zero value recovers with unbounded
	// retries, no checkpoints and immediate failover. A run that loses
	// every instance before it completes fails.
	Recovery faults.Recovery
}

// AppStartup reports the default application startup time on the
// cluster: x264 stages its codec and input pipeline, galaxy runs MPI
// initialization, sand's lightweight master boots almost instantly.
func AppStartup(appName string) units.Seconds {
	switch appName {
	case "x264":
		return 25
	case "galaxy":
		return 0.75
	case "sand":
		return 0.2
	default:
		return 1
	}
}

// NetworkCPUOverhead reports the fraction of vCPU capacity lost to
// virtualized network processing when the application spans multiple
// instances (Wang & Ng [26]: packet processing on EC2 guests steals
// guest CPU). Single-instance runs — including all baseline
// characterization runs — are unaffected, which is why the analytic
// model, fed with single-instance measurements, under-predicts
// communication-heavy applications at scale (Table IV: sand).
func NetworkCPUOverhead(appName string) float64 {
	switch appName {
	case "x264":
		return 0 // no inter-node communication at all
	case "galaxy":
		return 0.01 // bulk synchronous: few large messages
	case "sand":
		return 0.08 // chatty work-queue RPC: many small messages
	default:
		return 0.02
	}
}

// DefaultOptions returns the standard run configuration.
func DefaultOptions() Options {
	return Options{Seed: 1, Boot: 45, Network: DefaultNetwork()}
}

// Result reports one simulated run.
type Result struct {
	Makespan  units.Seconds // application launch → completion (what a user times)
	Cost      units.USD     // billed: boot through completion (or failure), all instances
	Instances int           // provisioned instances
	VCPUs     int
	Tasks     int
	Events    uint64
	Failures  int // failure events applied to this run
}

// Run executes the application's plan for p on a cluster provisioned
// per the tuple, under the failures in opts.Trace.
//
// Billing: every instance bills from the start of its boot through the
// end of the run, capped at its failure time: Boot + min(FailAt,
// Makespan).
func Run(app workload.App, p workload.Params, tuple config.Tuple, cat *ec2.Catalog, opts Options) (Result, error) {
	if tuple.Len() != cat.Len() {
		return Result{}, fmt.Errorf("cloudsim: tuple arity %d vs catalog %d", tuple.Len(), cat.Len())
	}
	if tuple.IsEmpty() {
		return Result{}, fmt.Errorf("cloudsim: empty configuration")
	}
	plan := app.Plan(p)
	if err := plan.Validate(); err != nil {
		return Result{}, err
	}
	if err := opts.Recovery.Validate(); err != nil {
		return Result{}, err
	}
	cluster := provision(tuple, cat, app, opts.Seed)
	if err := opts.Trace.Validate(len(cluster)); err != nil {
		return Result{}, err
	}

	r := &runner{
		app:     app,
		plan:    plan,
		opts:    opts,
		cluster: cluster,
		startup: AppStartup(app.Name()),
	}

	var span units.Seconds
	var tasks int
	switch plan.Kind {
	case workload.Independent:
		span, tasks = r.runIndependent()
	case workload.BSP:
		span, tasks = r.runBSP()
	case workload.MasterWorker:
		span, tasks = r.runMasterWorker()
	default:
		return Result{}, fmt.Errorf("cloudsim: unknown plan kind %v", plan.Kind)
	}
	if r.err != nil {
		return Result{}, r.err
	}

	res := Result{
		Makespan:  span,
		Instances: len(cluster),
		Tasks:     tasks,
		Events:    r.sim.Events(),
		Failures:  opts.Trace.Len(),
	}
	failAt := make(map[int]units.Seconds, opts.Trace.Len())
	for _, e := range opts.Trace.Events() {
		failAt[e.Instance] = e.At
	}
	for i, in := range cluster {
		res.VCPUs += in.Type.VCPUs
		billed := span
		if at, ok := failAt[i]; ok && at < billed {
			billed = at // terminated instances stop billing at the event
		}
		res.Cost += in.Type.Price.Over(opts.Boot + billed)
	}
	return res, nil
}

// provision builds the cluster's instance list in tuple order.
func provision(tuple config.Tuple, cat *ec2.Catalog, app workload.App, seed uint64) []vm.Instance {
	var out []vm.Instance
	id := 0
	for i := 0; i < tuple.Len(); i++ {
		typ := cat.Type(i)
		for k := 0; k < tuple.Count(i); k++ {
			out = append(out, vm.Provision(id, typ, app, seed))
			id++
		}
	}
	return out
}

// runner carries the state shared by the per-plan schedulers: the
// cluster, the options with their recovery policy, and the first fatal
// error.
type runner struct {
	sim     des.Sim
	app     workload.App
	plan    workload.Plan
	opts    Options
	cluster []vm.Instance
	startup units.Seconds
	err     error
}

func (r *runner) fail(format string, args ...interface{}) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
}

// onFailures schedules every trace event; the plans call it after
// scheduling their launch and before anything completes, so an event at
// a completion's instant fires first. An event changes nothing once the
// run is over or has failed; otherwise it calls lose with the failed
// instance.
func (r *runner) onFailures(over func() bool, lose func(inst int)) {
	for _, e := range r.opts.Trace.Events() {
		inst := e.Instance
		r.sim.At(e.At, func() {
			if !over() && r.err == nil {
				lose(inst)
			}
		})
	}
}

// vcpuRef identifies one vCPU of one instance.
type vcpuRef struct {
	inst int
	rate units.Rate
}

// clusterVCPUs flattens the cluster into per-vCPU workers. When the
// application spans multiple instances, every vCPU loses the
// application's network-processing fraction.
func clusterVCPUs(cluster []vm.Instance, appName string) []vcpuRef {
	factor := networkFactor(len(cluster), appName)
	var out []vcpuRef
	for i, in := range cluster {
		for v := 0; v < in.Type.VCPUs; v++ {
			out = append(out, vcpuRef{inst: i, rate: in.PerVCPURate() * units.Rate(factor)})
		}
	}
	return out
}

func networkFactor(instances int, appName string) float64 {
	if instances > 1 {
		return 1 - NetworkCPUOverhead(appName)
	}
	return 1
}

// workers is the vCPU pool both task plans run on: one slot per vCPU,
// each running at most one task. A slot's generation voids the
// completion of a task that its instance's failure took down.
type workers struct {
	r         *runner
	slots     []slot
	retries   map[int]int // per-task re-dispatch count, lazily allocated
	completed int
	finish    units.Seconds

	free    func(w int)    // slot w completed its task
	requeue func(task int) // a lost task within its retry budget
}

// slot is one vCPU of the pool.
type slot struct {
	vcpuRef
	dead    bool
	gen     int
	current int // task in flight, -1 when idle
}

// newWorkers makes one idle slot per vCPU of the cluster, in instance
// order. Like clusterVCPUs, every slot loses the application's
// network-processing share when the cluster has more than one instance.
func (r *runner) newWorkers() *workers {
	factor := networkFactor(len(r.cluster), r.app.Name())
	p := &workers{r: r}
	for i, in := range r.cluster {
		for v := 0; v < in.Type.VCPUs; v++ {
			p.slots = append(p.slots, slot{
				vcpuRef: vcpuRef{inst: i, rate: in.PerVCPURate() * units.Rate(factor)},
				current: -1,
			})
		}
	}
	return p
}

// start runs task on slot w. Its completion is the record (w, the
// slot's generation), which Fire takes, so a task allocates nothing.
func (p *workers) start(w, task int) {
	s := &p.slots[w]
	s.current = task
	p.r.sim.Post(units.Time(p.r.plan.TaskInstr(task), s.rate), p, w, s.gen)
}

// Fire completes slot w's task and calls free(w), unless the slot's
// instance failed since the task started at generation gen.
func (p *workers) Fire(w, gen int) {
	s := &p.slots[w]
	if s.gen != gen {
		return // lost to a failure; the task was requeued
	}
	s.current = -1
	p.completed++
	if now := p.r.sim.Now(); now > p.finish {
		p.finish = now
	}
	p.free(w)
}

// kill takes down instance inst's slots and re-dispatches the tasks in
// flight on them.
func (p *workers) kill(inst int) {
	for w := range p.slots {
		s := &p.slots[w]
		if s.inst != inst || s.dead {
			continue
		}
		s.dead = true
		s.gen++
		if s.current >= 0 {
			p.lost(s.current)
			s.current = -1
		}
	}
}

// lost charges one re-dispatch to task and requeues it, or fails the run
// once the task exceeds its retry budget.
func (p *workers) lost(task int) {
	if p.retries == nil {
		p.retries = map[int]int{}
	}
	p.retries[task]++
	if budget := p.r.opts.Recovery.MaxTaskRetries; budget > 0 && p.retries[task] > budget {
		p.r.fail("cloudsim: task %d exceeded its retry budget of %d re-dispatches", task, budget)
		return
	}
	p.requeue(task)
}

func (p *workers) done() bool { return p.completed >= p.r.plan.Tasks }

// firstLive returns the lowest-indexed instance with a live vCPU, or -1.
// Slots are in instance order.
func (p *workers) firstLive() int {
	for _, s := range p.slots {
		if !s.dead {
			return s.inst
		}
	}
	return -1
}

// run simulates to the end and reports the span from launch to the last
// completion; tasks left over fail the run.
func (p *workers) run(why string) units.Seconds {
	p.r.sim.Run()
	if left := p.r.plan.Tasks - p.completed; left > 0 {
		p.r.fail("cloudsim: %d of %d tasks incomplete after failures%s", left, p.r.plan.Tasks, why)
	}
	if p.finish < p.r.startup {
		return p.r.startup
	}
	return p.finish
}

// runIndependent schedules plan.Tasks independent tasks onto all vCPUs
// via greedy pull (x264's clip farm), retried tasks first. In-flight
// work of a failed instance is re-dispatched from scratch to surviving
// workers, within the retry budget.
func (r *runner) runIndependent() (units.Seconds, int) {
	plan := r.plan
	pool := r.newWorkers()
	next := 0
	var retry []int
	started := false
	pull := func(w int) {
		if s := pool.slots[w]; s.dead || !started || s.current >= 0 || r.err != nil {
			return
		}
		switch {
		case len(retry) > 0:
			task := retry[len(retry)-1]
			retry = retry[:len(retry)-1]
			pool.start(w, task)
		case next < plan.Tasks:
			task := next
			next++
			pool.start(w, task)
		}
	}
	pool.free = pull
	pool.requeue = func(task int) { retry = append(retry, task) }
	wakeAll := func() {
		for w := range pool.slots {
			pull(w)
		}
	}
	r.sim.At(r.startup, func() {
		started = true
		wakeAll()
	})
	r.onFailures(pool.done, func(inst int) {
		pool.kill(inst)
		wakeAll()
	})
	return pool.run(" (no surviving workers)"), plan.Tasks
}

// runBSP executes plan.Steps bulk-synchronous steps (galaxy): elements
// are partitioned across ranks (one per vCPU) proportionally to rank
// speed, each step ends at the slowest rank plus the exchange.
//
// The job checkpoints every CheckpointEverySteps steps (paying
// CheckpointCost of coordinated I/O). On an instance failure the
// surviving ranks restart from the last checkpoint — paying
// CheckpointCost once more to read it back — with the elements
// repartitioned proportionally to surviving rank speed.
func (r *runner) runBSP() (units.Seconds, int) {
	sim := &r.sim
	plan := r.plan
	appName := r.app.Name()
	ckptEvery, ckptCost := r.opts.Recovery.CheckpointEverySteps, r.opts.Recovery.CheckpointCost

	alive := make([]bool, len(r.cluster))
	for i := range alive {
		alive[i] = true
	}

	var slowest, comm units.Seconds
	done, ckpt := 0, 0
	epoch := 0
	started := false
	finished := false
	var finish units.Seconds

	var startStep func()
	startStep = func() {
		if finished || r.err != nil {
			return
		}
		if done >= plan.Steps {
			finish = sim.Now()
			finished = true
			return
		}
		myEpoch := epoch
		sim.Schedule(slowest+comm, func() {
			if epoch != myEpoch || finished || r.err != nil {
				return // step torn down by a failure restart
			}
			done++
			if done >= plan.Steps {
				finish = sim.Now()
				finished = true
				return
			}
			if ckptEvery > 0 && done%ckptEvery == 0 {
				sim.Schedule(ckptCost, func() {
					if epoch != myEpoch || finished || r.err != nil {
						return // failure hit mid-checkpoint: it never completed
					}
					ckpt = done
					startStep()
				})
				return
			}
			startStep()
		})
	}

	// restart partitions the elements over the surviving instances'
	// ranks and resumes from the last checkpoint. The launch is a
	// restart from step 0.
	restart := func() {
		var world []vm.Instance
		for i, in := range r.cluster {
			if alive[i] {
				world = append(world, in)
			}
		}
		vcpus := clusterVCPUs(world, appName)
		if len(vcpus) == 0 {
			r.fail("cloudsim: all BSP ranks failed")
			return
		}
		share := partitionProportional(plan.Elements, vcpus)
		slowest = 0
		for rk, elems := range share {
			t := units.Time(units.Instructions(elems)*plan.InstrPerElement, vcpus[rk].rate)
			if t > slowest {
				slowest = t
			}
		}
		comm = 0
		if len(world) > 1 {
			comm = units.Seconds(r.opts.Network.LatencySec + plan.CommBytesPerStep/r.opts.Network.BytesPerSec)
		}
		done = ckpt
		if ckpt > 0 && ckptCost > 0 {
			myEpoch := epoch
			sim.Schedule(ckptCost, func() { // read the checkpoint back
				if epoch == myEpoch {
					startStep()
				}
			})
			return
		}
		startStep()
	}

	sim.At(r.startup, func() {
		started = true
		restart()
	})
	r.onFailures(func() bool { return finished }, func(inst int) {
		alive[inst] = false
		epoch++
		if started {
			restart()
		}
	})
	sim.Run()
	if r.err == nil && !finished {
		r.fail("cloudsim: BSP job incomplete after failures (%d of %d steps)", done, plan.Steps)
	}
	return finish, plan.Steps
}

// partitionProportional splits n elements across ranks proportionally
// to their rates using largest-remainder rounding.
func partitionProportional(n int, vcpus []vcpuRef) []int {
	var total float64
	for _, v := range vcpus {
		total += float64(v.rate) //lint:allow unitsafe largest-remainder split needs raw proportional weights; a typed rewrite would reassociate the rounding
	}
	share := make([]int, len(vcpus))
	type frac struct {
		idx int
		f   float64
	}
	fracs := make([]frac, len(vcpus))
	assigned := 0
	for i, v := range vcpus {
		//lint:allow unitsafe largest-remainder split needs raw proportional weights; a typed rewrite would reassociate the rounding
		exact := float64(n) * float64(v.rate) / total
		share[i] = int(math.Floor(exact))
		assigned += share[i]
		fracs[i] = frac{i, exact - math.Floor(exact)}
	}
	// Hand out the remainder to the largest fractional parts, the lower
	// index first on a tie. The remainder is the sum of the fractional
	// parts, each below 1, so it never exceeds the rank count.
	slices.SortFunc(fracs, func(a, b frac) int {
		return cmp.Or(cmp.Compare(b.f, a.f), cmp.Compare(a.idx, b.idx))
	})
	for _, f := range fracs[:n-assigned] {
		share[f.idx]++
	}
	return share
}

// idleWorker is slot w, parked idle since at.
type idleWorker struct {
	at units.Seconds
	w  int
}

// Less orders idle workers by the time they went idle, then by slot.
func (a idleWorker) Less(b idleWorker) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.w < b.w
}

// runMasterWorker executes a work-queue plan (sand): the master on
// instance 0 serially dispatches tasks (compute + input shipping over
// its network link); free workers pull dispatched tasks.
//
// A dead worker's in-flight and queued-but-unstarted tasks are
// re-dispatched (within the retry budget), and when the master dies,
// the lowest-indexed surviving instance is promoted after
// FailoverDetection — tasks whose inputs were shipped but not started
// are re-shipped by the new master. The run fails if no instance is
// left to promote.
func (r *runner) runMasterWorker() (units.Seconds, int) {
	sim := &r.sim
	plan := r.plan
	net := r.opts.Network
	shipping := units.Seconds(0)
	if len(r.cluster) > 1 && net.BytesPerSec > 0 {
		shipping = units.Seconds(plan.BytesPerTask / net.BytesPerSec)
	}

	pool := r.newWorkers()
	masterInst := 0
	masterAlive := true
	masterEpoch := 0 // bumped when the master dies, voiding its in-flight dispatch
	perDispatch := units.Time(plan.DispatchInstr, r.cluster[0].PerVCPURate()) + shipping

	nextNew := 0          // next never-dispatched task
	redispatch := []int{} // tasks to dispatch again (inputs lost)
	readyTasks := []int{} // dispatched, waiting for a worker

	// idle holds the parked slots in Less order. A slot parks at
	// sim.Now(), which never decreases, so park passes at most the slots
	// parked at the same instant, and the least slot is always first.
	idle := make([]idleWorker, 0, len(pool.slots))
	park := func(w int) {
		iw := idleWorker{sim.Now(), w}
		i := len(idle)
		idle = append(idle, iw)
		for ; i > 0 && iw.Less(idle[i-1]); i-- {
			idle[i] = idle[i-1]
		}
		idle[i] = iw
	}
	popIdle := func() (int, bool) {
		for len(idle) > 0 {
			w := idle[0].w
			idle = idle[1:]
			if !pool.slots[w].dead {
				return w, true
			}
		}
		return -1, false
	}
	// A freed slot takes the oldest dispatched task, or parks idle.
	pool.free = func(w int) {
		if pool.done() {
			return
		}
		if len(readyTasks) > 0 {
			task := readyTasks[0]
			readyTasks = readyTasks[1:]
			pool.start(w, task)
		} else {
			park(w)
		}
	}
	pool.requeue = func(task int) { redispatch = append(redispatch, task) }

	dispatching := false
	started := false
	var dispatch func()
	dispatch = func() {
		if dispatching || !masterAlive || pool.done() || r.err != nil {
			return
		}
		if len(redispatch) == 0 && nextNew >= plan.Tasks {
			return
		}
		dispatching = true
		myEpoch := masterEpoch
		sim.Schedule(perDispatch, func() {
			if masterEpoch != myEpoch {
				return // its master failed mid-dispatch
			}
			dispatching = false
			if pool.done() || r.err != nil {
				return
			}
			var task int
			if len(redispatch) > 0 {
				task = redispatch[0]
				redispatch = redispatch[1:]
			} else {
				task = nextNew
				nextNew++
			}
			if w, ok := popIdle(); ok {
				pool.start(w, task)
			} else {
				readyTasks = append(readyTasks, task)
			}
			dispatch()
		})
	}

	sim.At(r.startup, func() {
		started = true
		for w, s := range pool.slots {
			if !s.dead {
				park(w)
			}
		}
		if masterAlive {
			dispatch()
		}
	})

	promote := func() {
		if pool.done() || r.err != nil {
			return
		}
		best := pool.firstLive()
		if best < 0 {
			r.fail("cloudsim: master and all workers failed")
			return
		}
		masterInst = best
		masterAlive = true
		perDispatch = units.Time(plan.DispatchInstr, r.cluster[best].PerVCPURate()) + shipping
		if started {
			dispatch()
		}
	}

	r.onFailures(pool.done, func(inst int) {
		pool.kill(inst)
		if inst == masterInst {
			// The master's queue of shipped-but-unstarted inputs dies
			// with it; those tasks are re-shipped after failover.
			masterAlive = false
			masterEpoch++
			dispatching = false
			for _, task := range readyTasks {
				pool.lost(task)
			}
			readyTasks = readyTasks[:0]
			sim.Schedule(r.opts.Recovery.FailoverDetection, promote)
		}
		if masterAlive && started {
			dispatch() // re-dispatch work lost with the workers
		}
	})
	return pool.run(""), plan.Tasks
}
