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
//   - instance failures, injected from a faults.Trace, with per-plan
//     recovery policies (bounded task re-dispatch, BSP
//     checkpoint/restart, master failover, replacement provisioning)
//     or the paper-faithful strict abort.
package cloudsim

import (
	"container/heap"
	"fmt"
	"math"

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
	// Startup overrides the per-application fixed startup; nil uses
	// AppStartup's defaults.
	Startup map[string]units.Seconds

	// Stragglers maps instance indices (provisioning order) to
	// slowdown factors > 1, modeling oversubscribed hosts.
	Stragglers map[int]float64

	// Trace injects instance failures: each event terminates one
	// instance at a time measured from application launch, losing its
	// in-flight work. What happens next is governed by Recovery.
	Trace faults.Trace

	// Recovery selects the failure-handling policy. The zero value is
	// faults.StrictAbort — the paper-faithful fault model: independent
	// plans re-dispatch lost tasks without bound, gang-scheduled BSP
	// and master-anchored work-queue plans abort with an error.
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

func (o Options) startup(appName string) units.Seconds {
	if o.Startup != nil {
		if s, ok := o.Startup[appName]; ok {
			return s
		}
	}
	return AppStartup(appName)
}

// Result reports one simulated run.
type Result struct {
	Makespan  units.Seconds // application launch → completion (what a user times)
	Cost      units.USD     // billed: boot through completion (or failure), all instances
	Instances int           // originally provisioned instances
	VCPUs     int
	Tasks     int
	Events    uint64
	Failures  int // failure events applied to this run
	Respawned int // replacement instances provisioned by the recovery policy
}

// Run executes the application's plan for p on a cluster provisioned
// per the tuple.
//
// Billing: every originally provisioned instance bills from the start
// of its boot through the end of the run, capped at its failure time —
// Boot + min(FailAt, Makespan) — for every event in the trace.
// Replacement instances bill from the moment the failure that triggered
// them fired (their boot happens inside the run) through the end of the
// run.
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
	cluster := provision(tuple, cat, app, opts)
	if err := opts.Trace.Validate(len(cluster)); err != nil {
		return Result{}, err
	}
	failing := !opts.Trace.Empty()
	recovering := opts.Recovery.Mode == faults.Recover

	r := &runner{
		app:     app,
		plan:    plan,
		opts:    opts,
		rec:     opts.Recovery,
		trace:   opts.Trace,
		cluster: cluster,
		orig:    len(cluster),
		startup: opts.startup(app.Name()),
	}

	var span units.Seconds
	var tasks int
	switch plan.Kind {
	case workload.Independent:
		span, tasks = r.runIndependent()
	case workload.BSP:
		if failing && !recovering {
			return Result{}, fmt.Errorf("cloudsim: gang-scheduled BSP job aborts on instance failure")
		}
		span, tasks = r.runBSP()
	case workload.MasterWorker:
		if failing && !recovering {
			return Result{}, fmt.Errorf("cloudsim: work-queue job aborts when an instance fails (master-anchored)")
		}
		span, tasks = r.runMasterWorker()
	default:
		return Result{}, fmt.Errorf("cloudsim: unknown plan kind %v", plan.Kind)
	}
	if r.err != nil {
		return Result{}, r.err
	}

	res := Result{
		Makespan:  span,
		Instances: r.orig,
		Tasks:     tasks,
		Events:    r.sim.Events(),
		Failures:  opts.Trace.Len(),
		Respawned: len(r.respawns),
	}
	failAt := make(map[int]units.Seconds, opts.Trace.Len())
	for _, e := range opts.Trace.Events() {
		failAt[e.Instance] = e.At
	}
	for i := 0; i < r.orig; i++ {
		in := r.cluster[i]
		res.VCPUs += in.Type.VCPUs
		billed := span
		if at, ok := failAt[i]; ok && at < billed {
			billed = at // terminated instances stop billing at the event
		}
		res.Cost += in.Type.Price.Over(opts.Boot + billed)
	}
	for _, rs := range r.respawns {
		if rs.at < span {
			res.Cost += rs.price.Over(span - rs.at)
		}
	}
	return res, nil
}

// provision builds the cluster's instance list in tuple order.
func provision(tuple config.Tuple, cat *ec2.Catalog, app workload.App, opts Options) []vm.Instance {
	var out []vm.Instance
	id := 0
	for i := 0; i < tuple.Len(); i++ {
		typ := cat.Type(i)
		for k := 0; k < tuple.Count(i); k++ {
			in := vm.Provision(id, typ, app, opts.Seed, opts.Boot)
			if f, ok := opts.Stragglers[id]; ok {
				in = in.Slowed(f)
			}
			out = append(out, in)
			id++
		}
	}
	return out
}

// respawn records one replacement provisioning for billing: the
// replacement bills from the failure that ordered it through run end.
type respawn struct {
	at    units.Seconds
	price units.USDPerHour
}

// runner carries the state shared by the per-plan schedulers: the
// (growing) instance list, the failure trace, the recovery policy, and
// the first fatal error.
type runner struct {
	sim     des.Sim
	app     workload.App
	plan    workload.Plan
	opts    Options
	rec     faults.Recovery
	trace   faults.Trace
	cluster []vm.Instance // originals, then replacements
	orig    int
	startup units.Seconds

	respawns []respawn
	err      error
}

func (r *runner) fail(format string, args ...interface{}) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
}

// spawnReplacement orders a replacement for a failed instance and
// returns its index in r.cluster; onBoot runs when it finishes booting.
func (r *runner) spawnReplacement(failed int, onBoot func(idx int)) {
	id := len(r.cluster)
	repl := vm.Replacement(id, r.cluster[failed], r.app, r.opts.Seed)
	r.cluster = append(r.cluster, repl)
	r.respawns = append(r.respawns, respawn{at: r.sim.Now(), price: repl.Type.Price})
	r.sim.Schedule(r.opts.Boot, func() { onBoot(id) })
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

// runIndependent schedules plan.Tasks independent tasks onto all vCPUs
// via greedy pull (x264's clip farm). Independent tasks tolerate
// instance failure: in-flight work of a failed instance is
// re-dispatched from scratch to surviving workers — without bound under
// StrictAbort (the paper's fault model for x264), within the per-task
// retry budget under Recover, where failed instances may also be
// respawned.
func (r *runner) runIndependent() (units.Seconds, int) {
	sim := &r.sim
	plan := r.plan
	appName := r.app.Name()
	factor := networkFactor(len(r.cluster), appName)
	vcpus := clusterVCPUs(r.cluster, appName)
	next := 0
	retry := []int{}
	dead := make([]bool, len(vcpus))
	gen := make([]int, len(vcpus))
	current := make([]int, len(vcpus))
	for i := range current {
		current[i] = -1
	}
	var finish units.Seconds
	completed := 0
	var retries map[int]int // per-task re-dispatch count, lazily allocated

	take := func() (int, bool) {
		if len(retry) > 0 {
			t := retry[len(retry)-1]
			retry = retry[:len(retry)-1]
			return t, true
		}
		if next < plan.Tasks {
			t := next
			next++
			return t, true
		}
		return -1, false
	}
	started := false
	var pull func(w int)
	pull = func(w int) {
		if dead[w] || !started || current[w] >= 0 || r.err != nil {
			return
		}
		task, ok := take()
		if !ok {
			current[w] = -1
			return
		}
		current[w] = task
		myGen := gen[w]
		dur := units.Time(plan.TaskInstr(task), vcpus[w].rate)
		sim.Schedule(dur, func() {
			if gen[w] != myGen {
				return // completion from before this worker's failure
			}
			current[w] = -1
			completed++
			if sim.Now() > finish {
				finish = sim.Now()
			}
			pull(w)
		})
	}
	sim.At(r.startup, func() {
		started = true
		for w := range vcpus {
			pull(w)
		}
	})

	// requeue re-dispatches a task lost to an instance failure,
	// enforcing the retry budget under Recover.
	requeue := func(task int) {
		if retries == nil {
			retries = map[int]int{}
		}
		retries[task]++
		if r.rec.Mode == faults.Recover && r.rec.MaxTaskRetries > 0 && retries[task] > r.rec.MaxTaskRetries {
			r.fail("cloudsim: task %d exceeded its retry budget of %d re-dispatches", task, r.rec.MaxTaskRetries)
			return
		}
		retry = append(retry, task)
	}
	for _, e := range r.trace.Events() {
		e := e
		sim.At(e.At, func() {
			if completed >= plan.Tasks || r.err != nil {
				return // run already over (or already failed)
			}
			for w := range vcpus {
				if vcpus[w].inst != e.Instance || dead[w] {
					continue
				}
				dead[w] = true
				gen[w]++
				if current[w] >= 0 {
					requeue(current[w])
					current[w] = -1
				}
			}
			if r.rec.Mode == faults.Recover && r.rec.Respawn {
				r.spawnReplacement(e.Instance, func(idx int) {
					if completed >= plan.Tasks || r.err != nil {
						return
					}
					in := r.cluster[idx]
					for v := 0; v < in.Type.VCPUs; v++ {
						vcpus = append(vcpus, vcpuRef{inst: idx, rate: in.PerVCPURate() * units.Rate(factor)})
						dead = append(dead, false)
						gen = append(gen, 0)
						current = append(current, -1)
						pull(len(vcpus) - 1)
					}
				})
			}
			// Wake idle survivors for the re-dispatched work.
			for w := range vcpus {
				if !dead[w] && current[w] < 0 {
					pull(w)
				}
			}
		})
	}
	sim.Run()
	if r.err == nil && completed < plan.Tasks {
		r.fail("cloudsim: %d of %d tasks incomplete after failures (no surviving workers)",
			plan.Tasks-completed, plan.Tasks)
	}
	if finish < r.startup {
		finish = r.startup
	}
	return finish, plan.Tasks
}

// runBSP executes plan.Steps bulk-synchronous steps (galaxy): elements
// are partitioned across ranks (one per vCPU) proportionally to rank
// speed, each step ends at the slowest rank plus the exchange.
//
// Under Recover, the job checkpoints every CheckpointEverySteps steps
// (paying CheckpointCost of coordinated I/O). On an instance failure
// the surviving ranks restart from the last checkpoint — paying
// CheckpointCost once more to read it back — with the elements
// repartitioned proportionally to surviving rank speed. Respawned
// replacements join when the MPI world is next rebuilt: at a failure
// restart or a checkpoint boundary.
func (r *runner) runBSP() (units.Seconds, int) {
	if r.trace.Empty() && !(r.rec.Mode == faults.Recover && r.rec.CheckpointEverySteps > 0) {
		// No failure machinery in play: the plain barrier loop, which a
		// zero-event trace must reproduce bit-for-bit.
		return r.runBSPPlain()
	}
	sim := &r.sim
	plan := r.plan
	appName := r.app.Name()
	ckptEvery := 0
	var ckptCost units.Seconds
	if r.rec.Mode == faults.Recover {
		ckptEvery = r.rec.CheckpointEverySteps
		ckptCost = r.rec.CheckpointCost
	}

	alive := make([]bool, len(r.cluster))
	for i := range alive {
		alive[i] = true
	}
	booted := []int{} // replacements up but not yet in the MPI world
	pendingBoots := 0

	var slowest, comm units.Seconds
	ranks := 0
	// rebuild recomputes the rank set and per-step time from the
	// instances currently in the world.
	rebuild := func() {
		var world []vm.Instance
		for i, in := range r.cluster {
			if i < len(alive) && alive[i] {
				world = append(world, in)
			}
		}
		vcpus := clusterVCPUs(world, appName)
		ranks = len(vcpus)
		if ranks == 0 {
			slowest, comm = 0, 0
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
	}
	join := func() {
		for _, idx := range booted {
			alive[idx] = true
		}
		booted = booted[:0]
	}

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
					if len(booted) > 0 {
						join()
						rebuild()
					}
					startStep()
				})
				return
			}
			startStep()
		})
	}

	// restart rolls the world back to the last checkpoint on the
	// current membership (survivors plus booted replacements).
	restart := func() {
		join()
		rebuild()
		if ranks == 0 {
			if pendingBoots == 0 {
				r.fail("cloudsim: all BSP ranks failed")
			}
			return // wait for a replacement to boot
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
		rebuild()
		if ranks == 0 {
			restart() // everything died during startup
			return
		}
		startStep()
	})
	for _, e := range r.trace.Events() {
		e := e
		sim.At(e.At, func() {
			if finished || r.err != nil || !alive[e.Instance] {
				return
			}
			alive[e.Instance] = false
			epoch++
			if r.rec.Respawn {
				pendingBoots++
				r.spawnReplacement(e.Instance, func(idx int) {
					pendingBoots--
					if finished || r.err != nil {
						return
					}
					for len(alive) < idx+1 {
						alive = append(alive, false) // joins via booted at the next world rebuild
					}
					booted = append(booted, idx)
					if started && ranks == 0 {
						epoch++
						restart()
					}
				})
			}
			if started {
				restart()
			}
		})
	}
	sim.Run()
	if r.err == nil && !finished {
		r.fail("cloudsim: BSP job incomplete after failures (%d of %d steps)", done, plan.Steps)
	}
	return finish, plan.Steps
}

// runBSPPlain is the failure-free barrier loop.
func (r *runner) runBSPPlain() (units.Seconds, int) {
	sim := &r.sim
	plan := r.plan
	net := r.opts.Network
	vcpus := clusterVCPUs(r.cluster, r.app.Name())
	share := partitionProportional(plan.Elements, vcpus)
	// The step's compute phase ends at the slowest rank.
	var slowest units.Seconds
	for rk, elems := range share {
		t := units.Time(units.Instructions(elems)*plan.InstrPerElement, vcpus[rk].rate)
		if t > slowest {
			slowest = t
		}
	}
	var comm units.Seconds
	if len(r.cluster) > 1 {
		comm = units.Seconds(net.LatencySec + plan.CommBytesPerStep/net.BytesPerSec)
	}
	var finish units.Seconds
	step := 0
	var barrier func()
	barrier = func() {
		if step >= plan.Steps {
			finish = sim.Now()
			return
		}
		step++
		sim.Schedule(slowest+comm, barrier)
	}
	sim.At(r.startup, barrier)
	sim.Run()
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
	// Hand out the remainder to the largest fractional parts
	// (deterministic tie-break by index).
	for rem := n - assigned; rem > 0; rem-- {
		best := -1
		for i := range fracs {
			if best < 0 || fracs[i].f > fracs[best].f {
				best = i
			}
		}
		share[fracs[best].idx]++
		fracs[best].f = -1
	}
	return share
}

// idleHeap orders idle workers FIFO by the time they went idle.
type idleWorker struct {
	at units.Seconds
	w  int
}
type idleHeap []idleWorker

func (h idleHeap) Len() int { return len(h) }
func (h idleHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].w < h[j].w
}
func (h idleHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *idleHeap) Push(x interface{}) { *h = append(*h, x.(idleWorker)) }
func (h *idleHeap) Pop() interface{} {
	old := *h
	n := len(old)
	v := old[n-1]
	*h = old[:n-1]
	return v
}

// runMasterWorker executes a work-queue plan (sand): the master on
// instance 0 serially dispatches tasks (compute + input shipping over
// its network link); free workers pull dispatched tasks.
//
// Under Recover the plan survives failures: a dead worker's in-flight
// and queued-but-unstarted tasks are re-dispatched (within the retry
// budget), and when the master dies, the lowest-indexed surviving
// instance is promoted after FailoverDetection — tasks whose inputs
// were shipped but not started are re-shipped by the new master.
func (r *runner) runMasterWorker() (units.Seconds, int) {
	sim := &r.sim
	plan := r.plan
	appName := r.app.Name()
	net := r.opts.Network
	factor := networkFactor(len(r.cluster), appName)
	shipping := units.Seconds(0)
	if len(r.cluster) > 1 && net.BytesPerSec > 0 {
		shipping = units.Seconds(plan.BytesPerTask / net.BytesPerSec)
	}

	vcpus := clusterVCPUs(r.cluster, appName)
	dead := make([]bool, len(vcpus))
	gen := make([]int, len(vcpus))
	current := make([]int, len(vcpus))
	for i := range current {
		current[i] = -1
	}
	aliveInst := make([]bool, len(r.cluster))
	for i := range aliveInst {
		aliveInst[i] = true
	}

	masterInst := 0
	masterAlive := true
	perDispatch := units.Time(plan.DispatchInstr, r.cluster[0].PerVCPURate()) + shipping

	nextNew := 0          // next never-dispatched task
	redispatch := []int{} // tasks to dispatch again (inputs lost)
	readyTasks := []int{} // dispatched, waiting for a worker
	completed := 0
	finished := false
	var finish units.Seconds
	var retries map[int]int

	idle := make(idleHeap, 0, len(vcpus))
	popIdle := func() (int, bool) {
		for idle.Len() > 0 {
			iw := heap.Pop(&idle).(idleWorker)
			if !dead[iw.w] {
				return iw.w, true
			}
		}
		return -1, false
	}

	dispatching := false
	var dispatchTimer *des.Timer
	started := false
	var dispatch func()
	var assign func(w, task int)
	assign = func(w, task int) {
		current[w] = task
		myGen := gen[w]
		dur := units.Time(plan.TaskInstr(task), vcpus[w].rate)
		sim.Schedule(dur, func() {
			if gen[w] != myGen {
				return // worker died mid-task; the task was re-dispatched
			}
			current[w] = -1
			completed++
			if sim.Now() > finish {
				finish = sim.Now()
			}
			if completed >= plan.Tasks {
				finished = true
				if dispatchTimer != nil {
					dispatchTimer.Cancel()
				}
				return
			}
			if len(readyTasks) > 0 {
				task := readyTasks[0]
				readyTasks = readyTasks[1:]
				assign(w, task)
			} else {
				heap.Push(&idle, idleWorker{sim.Now(), w})
			}
		})
	}
	dispatch = func() {
		if dispatching || !masterAlive || finished || r.err != nil {
			return
		}
		if len(redispatch) == 0 && nextNew >= plan.Tasks {
			return
		}
		dispatching = true
		dispatchTimer = sim.ScheduleTimer(perDispatch, func() {
			dispatching = false
			if finished || r.err != nil {
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
				assign(w, task)
			} else {
				readyTasks = append(readyTasks, task)
			}
			dispatch()
		})
	}

	requeue := func(task int) {
		if retries == nil {
			retries = map[int]int{}
		}
		retries[task]++
		if r.rec.MaxTaskRetries > 0 && retries[task] > r.rec.MaxTaskRetries {
			r.fail("cloudsim: task %d exceeded its retry budget of %d re-dispatches", task, r.rec.MaxTaskRetries)
			return
		}
		redispatch = append(redispatch, task)
	}

	sim.At(r.startup, func() {
		started = true
		for w := range vcpus {
			if !dead[w] {
				heap.Push(&idle, idleWorker{sim.Now(), w})
			}
		}
		if masterAlive {
			dispatch()
		}
	})

	promote := func() {
		if finished || r.err != nil || masterAlive {
			return
		}
		best := -1
		for i, ok := range aliveInst {
			if ok {
				best = i
				break
			}
		}
		if best < 0 {
			return // no candidate yet; a booting replacement will retry
		}
		masterInst = best
		masterAlive = true
		perDispatch = units.Time(plan.DispatchInstr, r.cluster[best].PerVCPURate()) + shipping
		if started {
			dispatch()
		}
	}

	for _, e := range r.trace.Events() {
		e := e
		sim.At(e.At, func() {
			if finished || r.err != nil || !aliveInst[e.Instance] {
				return
			}
			aliveInst[e.Instance] = false
			for w := range vcpus {
				if vcpus[w].inst != e.Instance || dead[w] {
					continue
				}
				dead[w] = true
				gen[w]++
				if current[w] >= 0 {
					requeue(current[w])
					current[w] = -1
				}
			}
			if e.Instance == masterInst {
				// The master's queue of shipped-but-unstarted inputs
				// dies with it; those tasks are re-shipped after
				// failover.
				masterAlive = false
				if dispatchTimer != nil {
					dispatchTimer.Cancel()
				}
				dispatching = false
				for _, task := range readyTasks {
					requeue(task)
				}
				readyTasks = readyTasks[:0]
				sim.Schedule(r.rec.FailoverDetection, promote)
			}
			if r.rec.Respawn {
				r.spawnReplacement(e.Instance, func(idx int) {
					if finished || r.err != nil {
						return
					}
					for len(aliveInst) < idx+1 {
						aliveInst = append(aliveInst, false)
					}
					aliveInst[idx] = true
					in := r.cluster[idx]
					for v := 0; v < in.Type.VCPUs; v++ {
						vcpus = append(vcpus, vcpuRef{inst: idx, rate: in.PerVCPURate() * units.Rate(factor)})
						dead = append(dead, false)
						gen = append(gen, 0)
						current = append(current, -1)
						w := len(vcpus) - 1
						if started {
							if len(readyTasks) > 0 {
								task := readyTasks[0]
								readyTasks = readyTasks[1:]
								assign(w, task)
							} else {
								heap.Push(&idle, idleWorker{sim.Now(), w})
							}
						}
					}
					if !masterAlive {
						promote()
					}
				})
			}
			if masterAlive && started {
				dispatch() // re-dispatch work lost with the workers
			}
			if !masterAlive && !anyAlive(aliveInst) && !r.rec.Respawn {
				r.fail("cloudsim: master and all workers failed")
			}
		})
	}
	sim.Run()
	if r.err == nil && completed < plan.Tasks {
		r.fail("cloudsim: %d of %d tasks incomplete after failures", plan.Tasks-completed, plan.Tasks)
	}
	if finish < r.startup {
		finish = r.startup
	}
	return finish, plan.Tasks
}

func anyAlive(alive []bool) bool {
	for _, ok := range alive {
		if ok {
			return true
		}
	}
	return false
}
