// Package sweep implements the paper's model-based analyses (§IV-E):
// the configuration-space census behind Figure 4, the fixed-time
// scaling studies behind Figures 5 and 6, and the deadline-tightening
// study behind Observation 3.
package sweep

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/units"
	"repro/internal/workload"
)

// Deadlines returns the paper's standard deadline ladder (hours).
func Deadlines() []units.Hours { return []units.Hours{6, 12, 24, 48, 72} }

// CensusResult is Figure 4's content for one application.
type CensusResult struct {
	Analysis core.Analysis
	// SavingPct is Observation 1's headline: the cost reduction
	// available by moving along the Pareto frontier from its most
	// expensive (fastest) point to its cheapest, i.e. what relaxing
	// the time deadline within the optimal set saves.
	SavingPct float64
}

// Census runs the full-space analysis for one problem under the
// paper's Figure 4 constraints.
func Census(eng *core.Engine, p workload.Params, deadline units.Seconds, budget units.USD, sampleEvery uint64) (CensusResult, error) {
	an, err := eng.Analyze(p, core.Constraints{Deadline: deadline, Budget: budget},
		core.Options{SampleEvery: sampleEvery})
	if err != nil {
		return CensusResult{}, err
	}
	res := CensusResult{Analysis: an}
	if lo, hi, _ := an.CostSpan(); hi > 0 {
		res.SavingPct = (1 - float64(lo/hi)) * 100
	}
	return res, nil
}

// ScalePoint is one cell of a Figure 5/6 matrix: the minimum cost at
// one (value, deadline) pair and the configuration achieving it.
type ScalePoint struct {
	Value    float64 // problem size (Fig 5) or accuracy (Fig 6)
	Deadline units.Hours
	Cost     units.USD
	Time     units.Seconds
	Config   string
	Feasible bool
}

// ScalingResult is one panel of Figure 5 or 6.
type ScalingResult struct {
	App       string
	VaryName  string // "n", "s", "t", "f"
	Fixed     workload.Params
	Deadlines []units.Hours
	Values    []float64
	// Points[d][v] corresponds to Deadlines[d] × Values[v].
	Points [][]ScalePoint
}

// MinCostCurve computes minimum execution cost across a value sweep ×
// deadline ladder. byN selects whether values replace the problem size
// (Figure 5) or the accuracy (Figure 6).
func MinCostCurve(eng *core.Engine, fixed workload.Params, byN bool, varyName string,
	values []float64, deadlinesHours []units.Hours) (ScalingResult, error) {
	res := ScalingResult{
		VaryName:  varyName,
		Fixed:     fixed,
		Deadlines: deadlinesHours,
		Values:    values,
	}
	res.App = eng.DemandModel().AppName
	// Publish the frontier index before the ladder: the build runs once
	// and every (value × deadline) cell answers from the same
	// precomputed pair table instead of scanning the space.
	eng.Frontier()
	for _, dh := range deadlinesHours {
		row := make([]ScalePoint, 0, len(values))
		for _, v := range values {
			p := fixed
			if byN {
				p.N = v
			} else {
				p.A = v
			}
			pt := ScalePoint{Value: v, Deadline: dh}
			pred, ok, err := eng.MinCostForDeadline(p, dh.Seconds())
			if err != nil {
				return ScalingResult{}, fmt.Errorf("sweep: %v at %vh: %w", p, dh, err)
			}
			if ok {
				pt.Feasible = true
				pt.Cost = pred.Cost
				pt.Time = pred.Time
				pt.Config = pred.Config.String()
			}
			row = append(row, pt)
		}
		res.Points = append(res.Points, row)
	}
	return res, nil
}

// GradientJumps locates the paper's Observation 2 signature in one
// deadline row: indices where the cost curve's slope (per unit of the
// swept value) increases by more than jumpFactor relative to the
// previous segment — the spill points into a worse cost-efficiency
// category.
func GradientJumps(row []ScalePoint, jumpFactor float64) []int {
	var out []int
	var prevSlope float64
	havePrev := false
	for i := 1; i < len(row); i++ {
		if !row[i].Feasible || !row[i-1].Feasible {
			havePrev = false
			continue
		}
		dv := row[i].Value - row[i-1].Value
		if dv <= 0 {
			// A zero-width (duplicate value) or unordered segment has
			// no slope; drop the previous slope like the infeasible
			// branch does, or the next test would compare segments
			// that are not adjacent.
			havePrev = false
			continue
		}
		//lint:allow unitsafe slope is $ per swept unit (size or accuracy); no units type models the swept axis
		slope := (float64(row[i].Cost) - float64(row[i-1].Cost)) / dv
		if havePrev {
			if prevSlope > 0 {
				if slope > prevSlope*jumpFactor {
					out = append(out, i)
				}
			} else if slope > 0 {
				// Climbing out of a flat (or dipping) segment: relative
				// to a non-positive base slope every factor is
				// infinite, so any positive slope is a jump.
				out = append(out, i)
			}
		}
		prevSlope = slope
		havePrev = true
	}
	return out
}

// TighteningPoint is one step of the Observation 3 study.
type TighteningPoint struct {
	DeadlineHours units.Hours
	Cost          units.USD
	Config        string
	Feasible      bool
}

// TighteningResult summarizes deadline tightening for one problem.
type TighteningResult struct {
	Points []TighteningPoint
	// DeadlineCutPct and CostRisePct compare the tightest and loosest
	// feasible deadlines: the paper's claim is CostRisePct <
	// DeadlineCutPct (e.g. cutting the deadline 67% costs only +40%).
	DeadlineCutPct float64
	CostRisePct    float64
}

// Tightening computes minimum cost across a deadline ladder for a
// fixed problem.
func Tightening(eng *core.Engine, p workload.Params, deadlinesHours []units.Hours) (TighteningResult, error) {
	var res TighteningResult
	for _, dh := range deadlinesHours {
		pt := TighteningPoint{DeadlineHours: dh}
		pred, ok, err := eng.MinCostForDeadline(p, dh.Seconds())
		if err != nil {
			return TighteningResult{}, err
		}
		if ok {
			pt.Feasible = true
			pt.Cost = pred.Cost
			pt.Config = pred.Config.String()
		}
		res.Points = append(res.Points, pt)
	}
	// Compare the loosest and tightest feasible rungs.
	loosest, tightest := -1, -1
	for i, pt := range res.Points {
		if !pt.Feasible {
			continue
		}
		if loosest < 0 || pt.DeadlineHours > res.Points[loosest].DeadlineHours {
			loosest = i
		}
		if tightest < 0 || pt.DeadlineHours < res.Points[tightest].DeadlineHours {
			tightest = i
		}
	}
	if loosest >= 0 && tightest >= 0 && loosest != tightest {
		lo, hi := res.Points[loosest], res.Points[tightest]
		res.DeadlineCutPct = (1 - float64(hi.DeadlineHours/lo.DeadlineHours)) * 100
		if lo.Cost > 0 {
			res.CostRisePct = (float64(hi.Cost/lo.Cost) - 1) * 100
		}
	}
	return res, nil
}

// CostDemandElasticity quantifies Observation 2 along one deadline row:
// the ratio of relative cost growth to relative demand growth between
// consecutive feasible points. Values above 1 mean cost grows faster
// than resource demand.
func CostDemandElasticity(eng *core.Engine, fixed workload.Params, byN bool, row []ScalePoint) ([]float64, error) {
	var out []float64
	demandAt := func(v float64) (units.Instructions, error) {
		p := fixed
		if byN {
			p.N = v
		} else {
			p.A = v
		}
		return eng.Demand(p)
	}
	for i := 1; i < len(row); i++ {
		if !row[i].Feasible || !row[i-1].Feasible {
			continue
		}
		d0, err := demandAt(row[i-1].Value)
		if err != nil {
			return nil, err
		}
		d1, err := demandAt(row[i].Value)
		if err != nil {
			return nil, err
		}
		dd := float64(d1/d0) - 1
		dc := float64(row[i].Cost/row[i-1].Cost) - 1
		if dd > 1e-12 {
			out = append(out, dc/dd)
		}
	}
	return out, nil
}

// MaxElasticity returns the largest elasticity, or NaN for empty input.
func MaxElasticity(es []float64) float64 {
	if len(es) == 0 {
		return math.NaN()
	}
	max := es[0]
	for _, e := range es[1:] {
		if e > max {
			max = e
		}
	}
	return max
}
