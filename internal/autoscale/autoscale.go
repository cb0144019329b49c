// Package autoscale implements a reactive deadline-driven autoscaler
// in the style of Mao et al. [18, 19], the resource-elasticity
// approach the paper's related work contrasts CELIA against: instead
// of choosing a configuration up front from a model, the autoscaler
// watches progress each epoch and grows or shrinks the cluster to hold
// the projected finish time at the deadline.
//
// Simulating the policy on the same demand/capacity models lets the
// evaluation quantify what reactive scaling costs relative to CELIA's
// static optimum: ramp-up epochs run below the needed capacity and
// must be bought back later at (possibly) worse efficiency.
package autoscale

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/config"
	"repro/internal/model"
	"repro/internal/units"
)

// Policy parameterizes the reactive loop.
type Policy struct {
	// Epoch is the decision interval.
	Epoch units.Seconds
	// Boot is how long a newly added node takes to start contributing
	// capacity within its first epoch.
	Boot units.Seconds
	// Headroom is the safety factor applied to the remaining time when
	// deciding whether capacity suffices (scale up when the projected
	// finish exceeds Headroom × remaining).
	Headroom float64
	// ShrinkBelow triggers scale-down when the projected finish is
	// under this fraction of the remaining time (0 disables shrinking).
	ShrinkBelow float64
	// MaxEpochs bounds the simulation.
	MaxEpochs int
}

// DefaultPolicy mirrors common hourly autoscaling with a modest safety
// margin.
func DefaultPolicy() Policy {
	return Policy{
		Epoch:       units.FromHours(1),
		Boot:        120,
		Headroom:    0.95,
		ShrinkBelow: 0.5,
		MaxEpochs:   10000,
	}
}

// Validate rejects broken policies.
func (p Policy) Validate() error {
	if p.Epoch <= 0 {
		return fmt.Errorf("autoscale: non-positive epoch %v", p.Epoch)
	}
	if p.Boot < 0 || p.Boot > p.Epoch {
		return fmt.Errorf("autoscale: boot %v outside [0, epoch]", p.Boot)
	}
	if p.Headroom <= 0 || p.Headroom > 1 {
		return fmt.Errorf("autoscale: headroom %v outside (0, 1]", p.Headroom)
	}
	if p.ShrinkBelow < 0 || p.ShrinkBelow >= p.Headroom {
		return fmt.Errorf("autoscale: shrink threshold %v must sit below headroom %v", p.ShrinkBelow, p.Headroom)
	}
	if p.MaxEpochs <= 0 {
		return fmt.Errorf("autoscale: non-positive epoch bound")
	}
	return nil
}

// Step records one epoch of the trace.
type Step struct {
	At       units.Seconds
	Config   config.Tuple
	DoneFrac float64
	Added    int // nodes added at this boundary (negative = removed)
}

// Trace is a full simulated execution.
type Trace struct {
	Steps      []Step
	FinishTime units.Seconds
	TotalCost  units.USD
	Finished   bool // finished within the deadline
}

// Simulate runs the reactive policy against the analytic models,
// starting from one node of the most cost-efficient type.
func Simulate(caps *model.Capacities, space *config.Space, d units.Instructions,
	deadline units.Seconds, pol Policy) (Trace, error) {
	if err := pol.Validate(); err != nil {
		return Trace{}, err
	}
	if d <= 0 || deadline <= 0 {
		return Trace{}, fmt.Errorf("autoscale: non-positive demand or deadline")
	}
	w, nodeCost := caps.NodeArrays()
	m := len(w)
	// Efficiency order for scale decisions.
	order := make([]int, m)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		ea, eb := units.PerDollar(w[order[a]], nodeCost[order[a]]), units.PerDollar(w[order[b]], nodeCost[order[b]])
		if ea != eb {
			return ea > eb
		}
		return order[a] < order[b]
	})

	cur, err := config.NewTuple(make([]int, m))
	if err != nil {
		return Trace{}, err
	}
	cur = cur.WithCount(order[0], 1)
	capacityOf := func() units.Rate {
		u, _ := model.Sums(cur, w, nodeCost)
		return u
	}
	unitCostOf := func() units.USDPerHour {
		_, cu := model.Sums(cur, w, nodeCost)
		return cu
	}

	var tr Trace
	remaining := d
	var now units.Seconds
	for epoch := 0; epoch < pol.MaxEpochs && remaining > 0; epoch++ {
		if now >= deadline {
			break
		}
		timeLeft := deadline - now
		u := capacityOf()

		// Reactive decision: scale up until the projection fits, then
		// maybe shrink.
		added := 0
		for units.Time(remaining, capacityOf()) > units.Seconds(pol.Headroom)*timeLeft {
			grew := false
			for _, i := range order {
				if cur.Count(i) < space.Max(i) {
					cur = cur.WithCount(i, uint8(cur.Count(i)+1))
					added++
					grew = true
					break
				}
			}
			if !grew {
				break // cluster maxed out; run what we have
			}
		}
		if added == 0 && pol.ShrinkBelow > 0 {
			// Shrink one least-efficient node if still comfortably early.
			for k := len(order) - 1; k >= 0; k-- {
				i := order[k]
				if cur.Count(i) == 0 {
					continue
				}
				uWithout := capacityOf() - w[i]
				if uWithout > 0 && units.Time(remaining, uWithout) < units.Seconds(pol.ShrinkBelow)*timeLeft {
					cur = cur.WithCount(i, uint8(cur.Count(i)-1))
					added--
				}
				break
			}
		}

		tr.Steps = append(tr.Steps, Step{
			At:       now,
			Config:   cur,
			DoneFrac: 1 - float64(remaining/d),
			Added:    added,
		})

		// Execute the epoch: newly added nodes boot first.
		u = capacityOf()
		effEpoch := pol.Epoch
		work := u.Over(effEpoch)
		if added > 0 {
			var addedCap units.Rate
			// The nodes added this boundary are the first `added` in
			// efficiency order with counts raised; approximate their
			// capacity as the capacity delta of this boundary.
			addedCap = u - prevCapacity(w, nodeCost, tr)
			if addedCap < 0 {
				addedCap = 0
			}
			work -= addedCap.Over(pol.Boot)
		}
		epochTime := effEpoch
		if work >= remaining {
			// Finishes mid-epoch.
			// Solve the boot-adjusted completion time.
			epochTime = timeToFinish(remaining, u, added, w, nodeCost, tr, pol)
			remaining = 0
		} else {
			remaining -= work
		}
		tr.TotalCost += unitCostOf().PerSecond().Over(epochTime)
		now += epochTime
	}
	tr.FinishTime = now
	tr.Finished = remaining <= 0 && now <= deadline
	return tr, nil
}

// prevCapacity reports the capacity of the configuration before this
// boundary's additions (the previous step's tuple).
func prevCapacity(w []units.Rate, nodeCost []units.USDPerHour, tr Trace) units.Rate {
	if len(tr.Steps) < 2 {
		return 0
	}
	u, _ := model.Sums(tr.Steps[len(tr.Steps)-2].Config, w, nodeCost)
	return u
}

// timeToFinish solves for the within-epoch completion time given that
// freshly added capacity only contributes after boot.
func timeToFinish(remaining units.Instructions, u units.Rate, added int, w []units.Rate, nodeCost []units.USDPerHour, tr Trace, pol Policy) units.Seconds {
	if added <= 0 {
		return units.Time(remaining, u)
	}
	uOld := prevCapacity(w, nodeCost, tr)
	boot := pol.Boot
	// Phase 1: only the old capacity runs.
	if remaining <= uOld.Over(boot) {
		if uOld <= 0 {
			return boot + units.Time(remaining, u)
		}
		return units.Time(remaining, uOld)
	}
	return boot + units.Time(remaining-uOld.Over(boot), u)
}

// CompareStatic reports the autoscaler's cost premium over a static
// optimal configuration's cost, in percent.
func CompareStatic(tr Trace, static units.USD) float64 {
	if static <= 0 {
		return math.NaN()
	}
	return (float64(tr.TotalCost/static) - 1) * 100
}
