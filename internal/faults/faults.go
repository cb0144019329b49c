// Package faults is the failure model of the cloud substrate: ordered
// multi-instance failure traces, a seeded trace generator, and the
// recovery policy the simulator applies per plan kind.
//
// CELIA targets on-demand EC2 precisely because interruptions make
// deadline guarantees hard (paper's Related Work vs. Marathe's and
// Gong's spot systems). Quantifying how a configuration's makespan and
// cost degrade when instances die mid-run therefore needs a fault
// model the simulator and the risk queries share:
//
//   - a Trace is the ground truth of one run: which instances die and
//     when, measured from application launch;
//   - PoissonTrace draws traces from a per-instance-hour hazard rate
//     (the memoryless interruption model of the spot literature);
//   - Recovery sets how the simulator recovers when an event fires:
//     bounded task re-dispatch, BSP checkpoint/restart and master
//     failover.
package faults

import (
	"fmt"
	"sort"

	"repro/internal/detrand"
	"repro/internal/units"
)

// Event is one instance failure: the instance (by provisioning order)
// terminates at time At, measured from application launch. Work in
// flight on the instance at that moment is lost.
type Event struct {
	Instance int
	At       units.Seconds
}

func (e Event) String() string { return fmt.Sprintf("fail(vm-%d @ %v)", e.Instance, e.At) }

// Trace is an ordered sequence of failure events for one run. The zero
// value is the empty trace (no failures). Each instance fails at most
// once: a terminated instance stays terminated.
type Trace struct {
	events []Event
}

// NewTrace builds a trace from events, sorting them by (time,
// instance).
func NewTrace(events ...Event) Trace {
	out := append([]Event(nil), events...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].At != out[j].At {
			return out[i].At < out[j].At
		}
		return out[i].Instance < out[j].Instance
	})
	return Trace{events: out}
}

// Events returns the events in time order. Callers must not mutate the
// returned slice.
func (t Trace) Events() []Event { return t.events }

// Len reports the number of failure events.
func (t Trace) Len() int { return len(t.events) }

// Empty reports whether the trace has no events.
func (t Trace) Empty() bool { return len(t.events) == 0 }

// Validate checks the trace against a cluster size: every event must
// target an existing instance at a non-negative time, and no instance
// may fail twice.
func (t Trace) Validate(instances int) error {
	seen := make(map[int]bool, len(t.events))
	for _, e := range t.events {
		if e.Instance < 0 || e.Instance >= instances {
			return fmt.Errorf("faults: event %v outside cluster of %d", e, instances)
		}
		if e.At < 0 {
			return fmt.Errorf("faults: event %v at negative time", e)
		}
		if seen[e.Instance] {
			return fmt.Errorf("faults: instance %d fails twice", e.Instance)
		}
		seen[e.Instance] = true
	}
	return nil
}

func (t Trace) String() string {
	if t.Empty() {
		return "trace{}"
	}
	return fmt.Sprintf("trace%v", t.events)
}

// Traces draw from detrand's splitmix64 source: tiny, seedable, and
// stable across Go releases (unlike math/rand's unspecified default
// source), which keeps traces — and therefore every Monte-Carlo risk
// answer — replayable. The stream is bit-for-bit the one the package's
// former private generator produced.

// expSeconds draws an exponential waiting time (seconds) for a
// per-hour rate.
func expSeconds(r *detrand.Source, ratePerHour float64) units.Seconds {
	return units.Seconds(r.ExpFloat64() / ratePerHour * 3600)
}

// PoissonTrace draws one failure trace for a cluster of the given size
// over the horizon: each instance's time-to-failure is exponential with
// the per-instance-hour hazard rate (memoryless interruptions, the
// standard model of the spot-market literature); failures beyond the
// horizon are dropped. Deterministic for a (seed, hazard, instances,
// horizon) quadruple. A non-positive hazard yields the empty trace.
func PoissonTrace(seed uint64, hazardPerInstanceHour float64, instances int, horizon units.Seconds) Trace {
	if hazardPerInstanceHour <= 0 || instances <= 0 || horizon <= 0 {
		return Trace{}
	}
	r := detrand.New(seed)
	var events []Event
	for i := 0; i < instances; i++ {
		at := expSeconds(r, hazardPerInstanceHour)
		if at <= horizon {
			events = append(events, Event{Instance: i, At: at})
		}
	}
	return NewTrace(events...)
}

// Recovery configures failure handling per plan kind. The zero value
// recovers with unbounded task retries, no checkpoints and immediate
// master failover.
type Recovery struct {
	// MaxTaskRetries bounds how many times one task may be re-dispatched
	// after instance failures (independent and master-worker plans).
	// When a task exceeds the budget the run fails; ≤ 0 means unbounded.
	MaxTaskRetries int

	// CheckpointEverySteps is the BSP checkpoint interval k: after every
	// k completed steps the ranks write a coordinated checkpoint costing
	// CheckpointCost of wall time. On failure the survivors restart from
	// the last checkpoint (paying CheckpointCost once more to read it
	// back) with the elements repartitioned proportionally to surviving
	// rank speed. 0 disables checkpointing: a failure restarts the
	// computation from step 0.
	CheckpointEverySteps int
	CheckpointCost       units.Seconds

	// FailoverDetection is how long the work-queue cluster takes to
	// detect a dead master and promote the lowest-indexed surviving
	// instance. Dispatch is paused in between; tasks whose inputs were
	// shipped but not started are re-dispatched by the new master.
	FailoverDetection units.Seconds
}

// DefaultRecovery returns a tolerant policy: three re-dispatches per
// task, a checkpoint every 10 BSP steps at 5 s of I/O, and 10 s
// master-failover detection.
func DefaultRecovery() Recovery {
	return Recovery{
		MaxTaskRetries:       3,
		CheckpointEverySteps: 10,
		CheckpointCost:       5,
		FailoverDetection:    10,
	}
}

// Validate rejects nonsensical policies.
func (r Recovery) Validate() error {
	if r.CheckpointEverySteps < 0 {
		return fmt.Errorf("faults: negative checkpoint interval %d", r.CheckpointEverySteps)
	}
	if r.CheckpointCost < 0 {
		return fmt.Errorf("faults: negative checkpoint cost %v", r.CheckpointCost)
	}
	if r.FailoverDetection < 0 {
		return fmt.Errorf("faults: negative failover detection %v", r.FailoverDetection)
	}
	return nil
}
