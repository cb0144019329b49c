// Package model implements CELIA's analytical time and cost models
// (paper §III-B, §III-C):
//
//	T   = D_{P_{n,a}} / U_j                (Eq. 2)
//	U_j = Σ_i m_j,i · W_i                  (Eq. 3)
//	W_i = W_i,vCPU · v_i                   (Eq. 4)
//	C   = T · C_j,u                        (Eq. 5)
//	C_j,u = Σ_i m_j,i · c_i                (Eq. 6)
//
// The paper focuses on highly-parallelizable compute-intensive
// applications and deliberately omits communication overhead from the
// model; PredictWithComm provides the communication-aware extension
// used when analyzing validation error.
package model

import (
	"fmt"
	"math"

	"repro/internal/config"
	"repro/internal/ec2"
	"repro/internal/units"
	"repro/internal/workload"
)

// Capacities binds a catalog to one application's per-vCPU instruction
// execution rates W_i,vCPU (application-specific: each app has its own
// execution profile, §IV-B).
type Capacities struct {
	catalog  *ec2.Catalog
	perVCPU  []units.Rate // W_i,vCPU per catalog position
	perNode  []units.Rate // W_i = W_i,vCPU · v_i, precomputed
	nodeCost []units.USDPerHour
}

// New builds Capacities from measured per-vCPU rates, one per catalog
// position.
func New(cat *ec2.Catalog, perVCPU []units.Rate) (*Capacities, error) {
	if cat == nil {
		return nil, fmt.Errorf("model: nil catalog")
	}
	if len(perVCPU) != cat.Len() {
		return nil, fmt.Errorf("model: %d rates for %d catalog types", len(perVCPU), cat.Len())
	}
	c := &Capacities{
		catalog:  cat,
		perVCPU:  append([]units.Rate(nil), perVCPU...),
		perNode:  make([]units.Rate, cat.Len()),
		nodeCost: make([]units.USDPerHour, cat.Len()),
	}
	for i := 0; i < cat.Len(); i++ {
		if perVCPU[i] <= 0 {
			return nil, fmt.Errorf("model: non-positive rate %v for %s", perVCPU[i], cat.Type(i).Name)
		}
		typ := cat.Type(i)
		c.perNode[i] = perVCPU[i] * units.Rate(typ.VCPUs) // Eq. 4
		c.nodeCost[i] = typ.Price
	}
	return c, nil
}

// FromIPC builds the ground-truth capacities of the simulated world:
// W_i,vCPU = IPC(app, category) × base frequency. The profiling
// pipeline (internal/profile) must recover these from timed runs; tests
// compare the two.
func FromIPC(cat *ec2.Catalog, app workload.App) *Capacities {
	rates := make([]units.Rate, cat.Len())
	for i := 0; i < cat.Len(); i++ {
		typ := cat.Type(i)
		rates[i] = units.GIPS(app.IPC(typ.Category) * typ.BaseGHz)
	}
	c, err := New(cat, rates)
	if err != nil {
		panic("model: FromIPC produced invalid capacities: " + err.Error()) // unreachable: IPC > 0
	}
	return c
}

// Catalog returns the bound catalog.
func (c *Capacities) Catalog() *ec2.Catalog { return c.catalog }

// PerVCPU reports W_i,vCPU for catalog position i.
func (c *Capacities) PerVCPU(i int) units.Rate { return c.perVCPU[i] }

// W reports the per-node capacity W_i (Eq. 4).
func (c *Capacities) W(i int) units.Rate { return c.perNode[i] }

// AddNodes is one type's step of Sums: it adds m nodes of per-node
// capacity w and cost c to partial sums u and cu, and leaves them bit
// for bit untouched when m = 0. Core's index build extends partial sums
// with it one catalog type at a time, so its pairs are Sums' floats by
// construction.
func AddNodes(u units.Rate, cu units.USDPerHour, m int, w units.Rate, c units.USDPerHour) (units.Rate, units.USDPerHour) {
	if m > 0 {
		u += units.Rate(m) * w
		cu += units.USDPerHour(m) * c
	}
	return u, cu
}

// Sums computes a configuration's capacity U_j (Eq. 3) and unit cost
// C_j,u (Eq. 6) over per-node arrays (NodeArrays), applying AddNodes
// for each type in catalog order. It is the one (U, C_u) loop:
// Capacity, UnitCost and PredictBilled call it, and so do core's scans,
// so the Prediction a query returns is the scan's floats by
// construction. Small enough to inline into every hot loop.
func Sums(t config.Tuple, w []units.Rate, cost []units.USDPerHour) (u units.Rate, cu units.USDPerHour) {
	for i := 0; i < t.Len(); i++ {
		u, cu = AddNodes(u, cu, t.Count(i), w[i], cost[i])
	}
	return u, cu
}

// Capacity computes U_j (Eq. 3) for a configuration.
func (c *Capacities) Capacity(t config.Tuple) units.Rate {
	u, _ := Sums(t, c.perNode, c.nodeCost)
	return u
}

// UnitCost computes C_j,u (Eq. 6) for a configuration.
func (c *Capacities) UnitCost(t config.Tuple) units.USDPerHour {
	_, cu := Sums(t, c.perNode, c.nodeCost)
	return cu
}

// NodeArrays exposes the per-node capacity (instructions/second) and
// cost ($/hour) as typed slices for hot enumeration loops. Unit-
// agnostic kernels (baseline search, migration scoring) convert to raw
// float64 locally.
func (c *Capacities) NodeArrays() (w []units.Rate, cost []units.USDPerHour) {
	w = append([]units.Rate(nil), c.perNode...)
	cost = append([]units.USDPerHour(nil), c.nodeCost...)
	return w, cost
}

// PerDollar reports the normalized performance of catalog position i
// (instructions per second per dollar per hour) — Figure 3's metric.
func (c *Capacities) PerDollar(i int) float64 {
	return units.PerDollar(c.perNode[i], c.nodeCost[i])
}

// Billing selects the provider's charging granularity. The paper's
// cost model (Eq. 5) is continuous; 2017-era EC2 actually billed per
// started instance-hour, which snaps real costs upward. Both policies
// are supported so the billing-granularity effect can be studied.
type Billing int

const (
	// PerSecond bills exact duration (Eq. 5 verbatim; also modern EC2).
	PerSecond Billing = iota
	// PerHour bills each instance for every started hour.
	PerHour
)

func (b Billing) String() string {
	switch b {
	case PerSecond:
		return "per-second"
	case PerHour:
		return "per-hour"
	default:
		return fmt.Sprintf("Billing(%d)", int(b))
	}
}

// Indexable reports whether Bill is certified jointly monotone in
// (t, unit) — cost never decreases when the duration or the unit cost
// grows — as computed floats, not just reals. This is the property the
// core frontier index's staircase argument needs: with it, domination
// in the (capacity, unit cost) plane implies (time, cost) domination
// for every demand, so the billing-independent staircase stays a valid
// candidate superset and index answers match the scan bit for bit.
//
// PerSecond: fl(fl(unit/3600)·t) composes two correctly-rounded
// monotone operations. PerHour: fl(t/3600) is monotone in t, math.Ceil
// is monotone, the max(1, ·) minimum-charge clamp is monotone, and
// fl(unit·h) is monotone in both factors for non-negative operands —
// ceil flattens distinct durations onto the same quantum count but
// never reorders them. A future policy must be certified here (and by
// the per-billing trials in core's index property harness) before the
// index will serve it; unknown values fall back to the exhaustive scan.
func (b Billing) Indexable() bool {
	switch b {
	case PerSecond, PerHour:
		return true
	default:
		return false
	}
}

// Bill prices a duration at a unit cost under the policy; any policy
// but PerHour bills per second. It is the one billing function: core's
// scans call it per configuration and its index walks per binary-search
// probe, so it stays small enough to inline there.
func Bill(t units.Seconds, unit units.USDPerHour, b Billing) units.USD {
	if b == PerHour {
		h := units.Hours(math.Ceil(t.Hours()))
		if h < 1 && t > 0 {
			h = 1
		}
		return unit.ForHours(h)
	}
	return unit.PerSecond().Over(t)
}

// Prediction is the model's estimate for one (demand, configuration)
// pair.
type Prediction struct {
	Config   config.Tuple
	Capacity units.Rate
	UnitCost units.USDPerHour
	Time     units.Seconds
	Cost     units.USD
}

// Predict applies Eq. 2–6 to one configuration with exact (per-second)
// billing.
func (c *Capacities) Predict(d units.Instructions, t config.Tuple) Prediction {
	return c.PredictBilled(d, t, PerSecond)
}

// PredictBilled applies Eq. 2–4 and prices the result under the given
// billing policy.
func (c *Capacities) PredictBilled(d units.Instructions, t config.Tuple, b Billing) Prediction {
	u, cu := Sums(t, c.perNode, c.nodeCost)
	T := units.Time(d, u)
	return Prediction{
		Config:   t,
		Capacity: u,
		UnitCost: cu,
		Time:     T,
		Cost:     Bill(T, cu, b),
	}
}

// CommParams models the communication substrate for the communication-
// aware extension: per-message latency and aggregate bandwidth.
type CommParams struct {
	LatencySec  float64 // per synchronization round
	BytesPerSec float64 // effective network bandwidth
	MasterGIPS  float64 // master's dispatch rate for work-queue apps
}

// DefaultComm reflects the paper-era EC2 network (1 Gb/s class, sub-ms
// latency within a placement group is optimistic; virtualized latency
// runs higher [26]).
func DefaultComm() CommParams {
	return CommParams{LatencySec: 2e-3, BytesPerSec: 125e6, MasterGIPS: 2.0}
}

// PredictWithComm extends Eq. 2 with the communication the base model
// ignores: per-step exchanges for BSP plans and serialized master
// dispatch for master-worker plans. Independent plans are unchanged.
func (c *Capacities) PredictWithComm(d units.Instructions, t config.Tuple, plan workload.Plan, comm CommParams) Prediction {
	p := c.Predict(d, t)
	var extra units.Seconds
	switch plan.Kind {
	case workload.BSP:
		perStep := comm.LatencySec
		if comm.BytesPerSec > 0 {
			perStep += plan.CommBytesPerStep / comm.BytesPerSec
		}
		extra = units.Seconds(float64(plan.Steps) * perStep)
	case workload.MasterWorker:
		if comm.MasterGIPS > 0 {
			extra = units.Time(units.Instructions(plan.Tasks)*plan.DispatchInstr, units.GIPS(comm.MasterGIPS))
		}
		if comm.BytesPerSec > 0 {
			extra += units.Seconds(float64(plan.Tasks) * plan.BytesPerTask / comm.BytesPerSec)
		}
	}
	p.Time += extra
	p.Cost = units.Cost(p.Time, p.UnitCost)
	return p
}
