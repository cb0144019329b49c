// The reactive comparison baseline: internal/autoscale's policy loop
// replayed over a demand trace under the same cost accounting as the
// DP solver, so "savings versus reactive scaling" is an
// apples-to-apples subtraction rather than a cross-model guess.
package schedule

import (
	"context"
	"sort"

	"repro/internal/autoscale"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/demand"
	"repro/internal/model"
	"repro/internal/units"
)

// Reactive simulates autoscale-style reactive scaling over the trace:
// at each step boundary it sees the step's demand, grows one node at a
// time in cost-efficiency order until the projected (boot-adjusted)
// finish fits within Headroom of the step, or sheds one least-efficient
// node when the projection is comfortably below ShrinkBelow. Only the
// reactive policy's Headroom and ShrinkBelow are consulted — its Epoch
// is the trace's step and its Boot is the schedule policy's, so solver
// and baseline price the identical switching-cost model (full-step
// accrual, boot delay, released-quantum carryover).
func Reactive(eng *core.Engine, tr demand.Trace, pol Policy, rp autoscale.Policy) (Schedule, error) {
	return ReactiveContext(context.Background(), eng, tr, pol, rp)
}

// ReactiveContext is Reactive under a request context, polling between
// steps like SolveContext so the baseline half of a /v1/schedule
// response cancels as promptly as the DP half.
func ReactiveContext(ctx context.Context, eng *core.Engine, tr demand.Trace, pol Policy, rp autoscale.Policy) (Schedule, error) {
	if err := tr.Validate(); err != nil {
		return Schedule{}, err
	}
	if err := pol.Validate(tr.Step); err != nil {
		return Schedule{}, err
	}
	rp.Epoch, rp.Boot = tr.Step, pol.Boot
	if rp.MaxEpochs == 0 {
		rp.MaxEpochs = tr.Steps()
	}
	if err := rp.Validate(); err != nil {
		return Schedule{}, err
	}
	demands, err := traceDemands(eng, tr)
	if err != nil {
		return Schedule{}, err
	}

	w, nodeCost := eng.Capacities().NodeArrays()
	space := eng.Space()
	m := len(w)
	// Efficiency order for scale decisions, as in autoscale.Simulate.
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
		return Schedule{}, err
	}
	capacityOf := func() units.Rate {
		u, _ := model.Sums(cur, w, nodeCost)
		return u
	}
	unitCostOf := func() units.USDPerHour {
		_, cu := model.Sums(cur, w, nodeCost)
		return cu
	}

	sc := &solveCtx{stepLen: tr.Step, pol: pol}
	sched := Schedule{
		StepLen: tr.Step,
		Policy:  pol,
		Steps:   make([]Step, len(demands)),
	}
	for t, d := range demands {
		if err := ctx.Err(); err != nil {
			return Schedule{}, err
		}
		uOld := capacityOf()
		start := cur
		if d > 0 {
			for finishTime(d, uOld, capacityOf(), pol.Boot) > units.Seconds(rp.Headroom)*tr.Step {
				grew := false
				for _, i := range order {
					if cur.Count(i) < space.Max(i) {
						cur = cur.WithCount(i, uint8(cur.Count(i)+1))
						grew = true
						break
					}
				}
				if !grew {
					break // cluster maxed out; run what we have
				}
			}
		}
		if grown := capacityOf() - uOld; grown <= 0 && rp.ShrinkBelow > 0 {
			// Shrink one least-efficient node if comfortably early (or
			// idle): the slow drain reactive scaling is known for.
			for k := len(order) - 1; k >= 0; k-- {
				i := order[k]
				if cur.Count(i) == 0 {
					continue
				}
				uWithout := capacityOf() - w[i]
				if d == 0 || (uWithout > 0 && units.Time(d, uWithout) < units.Seconds(rp.ShrinkBelow)*tr.Step) {
					cur = cur.WithCount(i, uint8(cur.Count(i)-1))
				}
				break
			}
		}

		u, cu := model.Sums(cur, w, nodeCost)
		addedCap := u - uOld
		if addedCap < 0 {
			addedCap = 0
		}
		var removedCu units.USDPerHour
		for i := 0; i < m; i++ {
			if start.Count(i) > cur.Count(i) {
				removedCu += units.USDPerHour(start.Count(i)-cur.Count(i)) * nodeCost[i]
			}
		}

		boundary := units.Seconds(float64(t)) * tr.Step
		cost := cu.Over(tr.Step)
		if carry := sc.carrySeconds(boundary); carry > 0 {
			cost += removedCu.Over(carry)
		}
		missed := d > 0 && d > u.Over(tr.Step)-addedCap.Over(pol.Boot)
		busy := finishTime(d, u-addedCap, u, pol.Boot)
		if busy > tr.Step {
			busy = tr.Step
		}
		st := Step{
			Config:     cur,
			Demand:     d,
			Busy:       busy,
			Slack:      tr.Step - busy,
			Cost:       cost,
			DeltaNodes: cur.TotalNodes() - start.TotalNodes(),
			Missed:     missed,
		}
		if st.DeltaNodes != 0 {
			sched.Switches++
		}
		if missed {
			sched.Misses++
		}
		sched.TotalCost += cost
		sched.Steps[t] = st
	}
	sched.ReleasePayout = unitCostOf().Over(sc.carrySeconds(units.Seconds(float64(len(demands))) * tr.Step))
	sched.TotalCost += sched.ReleasePayout
	return sched, nil
}
