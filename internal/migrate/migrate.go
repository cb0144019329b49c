// Package migrate implements the resource-migration capability the
// paper positions CELIA as complementary to (Kokkinos [13], Sharma
// [24]): given an application already running on some configuration,
// decide whether moving the remaining work to a different
// configuration lowers the remaining cost while still meeting the
// deadline, accounting for the migration overhead (checkpoint on the
// old cluster, boot and restore on the new one).
package migrate

import (
	"fmt"
	"math"
	"runtime"

	"repro/internal/config"
	"repro/internal/model"
	"repro/internal/units"
)

// Overheads models the cost of moving.
type Overheads struct {
	// Checkpoint is the time to snapshot state on the current cluster
	// (billed at the current configuration's rate).
	Checkpoint units.Seconds
	// Restore is boot + state restore time on the target cluster
	// (billed at the target configuration's rate).
	Restore units.Seconds
}

// DefaultOverheads reflects a memory-image checkpoint over the
// paper-era network: a few minutes each way.
func DefaultOverheads() Overheads {
	return Overheads{Checkpoint: 120, Restore: 300}
}

// State describes the running execution.
type State struct {
	Current config.Tuple
	// RemainingDemand is the unexecuted instruction count.
	RemainingDemand units.Instructions
	// RemainingDeadline is the time left until T′.
	RemainingDeadline units.Seconds
}

// Decision is the advisor's output. Costs cover only the remaining
// execution (sunk cost is irrelevant to the decision).
type Decision struct {
	Migrate           bool
	Target            config.Tuple  // equals State.Current when Migrate is false
	StayCost          units.USD     // remaining cost if staying
	StayTime          units.Seconds // remaining time if staying (+Inf if the deadline is missed)
	MoveCost          units.USD     // checkpoint + restore + remaining run on Target
	MoveTime          units.Seconds
	StayMeetsDeadline bool
}

// Advise finds the cheapest way to finish. It scans the whole space in
// parallel (migration decisions are rare; exactness matters more than
// microseconds) and compares against staying put.
func Advise(caps *model.Capacities, space *config.Space, st State, ov Overheads) (Decision, error) {
	if st.RemainingDemand <= 0 {
		return Decision{}, fmt.Errorf("migrate: nothing left to run (demand %v)", st.RemainingDemand)
	}
	if st.RemainingDeadline <= 0 {
		return Decision{}, fmt.Errorf("migrate: deadline already passed")
	}
	if !space.Contains(st.Current) {
		return Decision{}, fmt.Errorf("migrate: current configuration %v not in the space", st.Current)
	}
	if ov.Checkpoint < 0 || ov.Restore < 0 {
		return Decision{}, fmt.Errorf("migrate: negative overheads %+v", ov)
	}

	dec := Decision{Target: st.Current}
	stay := caps.Predict(st.RemainingDemand, st.Current)
	dec.StayTime = stay.Time
	dec.StayCost = stay.Cost
	dec.StayMeetsDeadline = float64(stay.Time) < float64(st.RemainingDeadline)

	// Candidate targets must absorb checkpoint+restore and still beat
	// the deadline. The checkpoint is paid on the current cluster; the
	// restore and the run on the target.
	ckptCost := caps.UnitCost(st.Current).Over(ov.Checkpoint)
	budgetTime := float64(st.RemainingDeadline) - float64(ov.Checkpoint) - float64(ov.Restore)
	df := float64(st.RemainingDemand)
	w, nodeCost := caps.NodeArrays()

	workers := runtime.GOMAXPROCS(0)
	type best struct {
		cost float64
		t    config.Tuple
		ok   bool
	}
	bests := make([]best, workers)
	for i := range bests {
		bests[i].cost = math.Inf(1)
	}
	if budgetTime > 0 {
		space.ForEachParallel(workers, func(worker int, t config.Tuple) {
			u, cu := model.Sums(t, w, nodeCost)
			T := df / float64(u)
			if T >= budgetTime {
				return
			}
			c := float64(cu) / 3600 * (T + float64(ov.Restore))
			b := &bests[worker]
			//lint:allow floateq exact argmin tie: ulp-equal costs resolve lexicographically by tuple, deterministic either way
			if c < b.cost || (c == b.cost && b.ok && t.String() < b.t.String()) {
				b.cost, b.t, b.ok = c, t, true
			}
		})
	}
	bestMove := best{cost: math.Inf(1)}
	for _, b := range bests {
		//lint:allow floateq exact argmin tie: ulp-equal costs resolve lexicographically by tuple, deterministic either way
		if b.ok && (b.cost < bestMove.cost || (b.cost == bestMove.cost && bestMove.ok && b.t.String() < bestMove.t.String())) {
			bestMove = b
		}
	}

	if !bestMove.ok {
		// No migration target exists; stay (feasible or not).
		dec.MoveCost = units.USD(math.Inf(1))
		dec.MoveTime = units.Seconds(math.Inf(1))
		return dec, nil
	}
	movePred := caps.Predict(st.RemainingDemand, bestMove.t)
	dec.MoveTime = units.Seconds(float64(ov.Checkpoint)+float64(ov.Restore)) + movePred.Time
	dec.MoveCost = ckptCost + caps.UnitCost(bestMove.t).Over(ov.Restore) + movePred.Cost

	// Migrate when staying misses the deadline, or when moving is
	// strictly cheaper while both meet it.
	switch {
	case !dec.StayMeetsDeadline:
		dec.Migrate = true
		dec.Target = bestMove.t
	case float64(dec.MoveCost) < float64(dec.StayCost):
		dec.Migrate = true
		dec.Target = bestMove.t
	}
	return dec, nil
}
