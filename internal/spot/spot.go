// Package spot implements the spot-market extension CELIA's related
// work contrasts against (Marathe [20], Gong [7]): a simulated spot
// price process per instance type, a bid-based termination model, and
// a deadline-risk-aware configuration selector that trades the spot
// discount against the expected cost of interruptions.
//
// The paper's CELIA deliberately targets on-demand resources because
// spot interruptions make deadline guarantees hard; this package
// quantifies exactly that trade-off on top of the same time and cost
// models.
package spot

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"repro/internal/apps"
	"repro/internal/config"
	"repro/internal/ec2"
	"repro/internal/model"
	"repro/internal/stats"
	"repro/internal/units"
)

// MarketParams shape the simulated price process: an Ornstein-
// Uhlenbeck-style mean-reverting walk around a fraction of the
// on-demand price, with occasional demand spikes — the qualitative
// structure reported for the 2017-era EC2 spot market [15].
type MarketParams struct {
	MeanFraction   float64 // long-run spot price / on-demand price
	Reversion      float64 // pull toward the mean per step (0..1)
	Volatility     float64 // step noise as a fraction of on-demand
	SpikeProb      float64 // probability a step is a demand spike
	SpikeMagnitude float64 // spike height as a fraction of on-demand
	StepMinutes    float64 // minutes per price step
}

// DefaultMarket returns parameters consistent with the 2017 studies:
// spot prices average ~25% of on-demand with rare spikes above it.
func DefaultMarket() MarketParams {
	return MarketParams{
		MeanFraction:   0.25,
		Reversion:      0.15,
		Volatility:     0.04,
		SpikeProb:      0.0015, // ~one above-on-demand spike per 2.3 days
		SpikeMagnitude: 1.6,
		StepMinutes:    5,
	}
}

// Validate rejects parameter combinations that break the process.
func (m MarketParams) Validate() error {
	if m.MeanFraction <= 0 || m.MeanFraction > 1 {
		return fmt.Errorf("spot: mean fraction %v outside (0, 1]", m.MeanFraction)
	}
	if m.Reversion <= 0 || m.Reversion > 1 {
		return fmt.Errorf("spot: reversion %v outside (0, 1]", m.Reversion)
	}
	if m.Volatility < 0 || m.SpikeProb < 0 || m.SpikeProb > 1 {
		return fmt.Errorf("spot: invalid volatility %v or spike probability %v", m.Volatility, m.SpikeProb)
	}
	if m.StepMinutes <= 0 {
		return fmt.Errorf("spot: non-positive step %v", m.StepMinutes)
	}
	return nil
}

// Market is a seeded spot-price history generator for one catalog.
// Histories are memoized: they are pure functions of (seed, type,
// horizon) and evaluators consult them repeatedly.
type Market struct {
	params  MarketParams
	catalog *ec2.Catalog
	seed    uint64

	mu    sync.Mutex
	cache map[histKey][]units.USDPerHour
}

type histKey struct {
	typeIdx int
	steps   int
}

// NewMarket builds a market over the catalog.
func NewMarket(cat *ec2.Catalog, params MarketParams, seed uint64) (*Market, error) {
	if cat == nil {
		return nil, fmt.Errorf("spot: nil catalog")
	}
	if err := params.Validate(); err != nil {
		return nil, err
	}
	return &Market{params: params, catalog: cat, seed: seed, cache: map[histKey][]units.USDPerHour{}}, nil
}

// History generates the spot price series for one type over a horizon.
// Deterministic for a (seed, type, horizon) triple.
func (m *Market) History(typeIdx int, horizon units.Seconds) []units.USDPerHour {
	typ := m.catalog.Type(typeIdx)
	//lint:allow unitsafe the price process is a raw stochastic walk around the on-demand level, not typed arithmetic
	onDemand := float64(typ.Price)
	step := units.Seconds(m.params.StepMinutes * 60)
	steps := int(horizon/step) + 1
	key := histKey{typeIdx, steps}
	m.mu.Lock()
	if h, ok := m.cache[key]; ok {
		m.mu.Unlock()
		return h
	}
	m.mu.Unlock()
	out := make([]units.USDPerHour, steps)
	price := onDemand * m.params.MeanFraction
	base := m.seed*2654435761 + uint64(typeIdx)*97
	for s := 0; s < steps; s++ {
		u1 := apps.Hash01(base + uint64(s)*3)
		u2 := apps.Hash01(base + uint64(s)*3 + 1)
		uSpike := apps.Hash01(base + uint64(s)*3 + 2)
		// Box-Muller for a normal shock.
		z := math.Sqrt(-2*math.Log(math.Max(u1, 1e-12))) * math.Cos(2*math.Pi*u2)
		mean := onDemand * m.params.MeanFraction
		price += m.params.Reversion*(mean-price) + m.params.Volatility*onDemand*z
		if uSpike < m.params.SpikeProb {
			price = onDemand * m.params.SpikeMagnitude
		}
		// The market floor is a nominal minimum; spot never exceeds
		// 10x on-demand in practice.
		price = math.Max(price, 0.1*mean)
		price = math.Min(price, 10*onDemand)
		out[s] = units.USDPerHour(price)
	}
	m.mu.Lock()
	m.cache[key] = out
	m.mu.Unlock()
	return out
}

// Quantile reports the q-quantile of a type's price over the horizon.
func (m *Market) Quantile(typeIdx int, horizon units.Seconds, q float64) units.USDPerHour {
	h := m.History(typeIdx, horizon)
	sorted := make([]float64, len(h))
	for i, p := range h {
		sorted[i] = float64(p) //lint:allow unitsafe quantile kernel sorts raw float64; the result is re-typed on return
	}
	sort.Float64s(sorted)
	return units.USDPerHour(stats.Quantile(sorted, q))
}

// InterruptionRate estimates the per-hour rate at which a bid at `bid`
// is out-priced for the type: the rate of upward crossings of the bid
// level over the horizon. An instance terminates once per crossing —
// consecutive above-bid steps after a spike are one interruption, not
// many.
func (m *Market) InterruptionRate(typeIdx int, horizon units.Seconds, bid units.USDPerHour) float64 {
	h := m.History(typeIdx, horizon)
	if len(h) < 2 {
		return 0
	}
	crossings := 0
	for i := 1; i < len(h); i++ {
		if h[i] > bid && h[i-1] <= bid {
			crossings++
		}
	}
	// First step already above bid counts: the instance never starts.
	if h[0] > bid {
		crossings++
	}
	hours := float64(len(h)) * m.params.StepMinutes / 60
	return float64(crossings) / hours
}

// Plan is a risk-adjusted spot execution plan for one configuration.
type Plan struct {
	Config config.Tuple
	// BaseTime is the uninterrupted execution time (on-demand model).
	BaseTime units.Seconds
	// ExpectedTime includes expected rework after interruptions with
	// periodic checkpointing (Marathe-style [20]).
	ExpectedTime units.Seconds
	// OnDemandCost and ExpectedSpotCost compare the two markets.
	OnDemandCost     units.USD
	ExpectedSpotCost units.USD
	// DeadlineProb is the probability the plan finishes before the
	// deadline given Poisson interruptions.
	DeadlineProb float64
	// Interruptions is the expected interruption count.
	Interruptions float64
}

// Evaluator prices configurations on the spot market.
type Evaluator struct {
	Market     *Market
	Caps       *model.Capacities
	Checkpoint units.Seconds // checkpoint interval (rework bound)
	BidFactor  float64       // bid = BidFactor × on-demand price
}

// NewEvaluator builds an evaluator with Marathe-style defaults: bid at
// the on-demand price, checkpoint hourly.
func NewEvaluator(market *Market, caps *model.Capacities) *Evaluator {
	return &Evaluator{Market: market, Caps: caps, Checkpoint: units.FromHours(1), BidFactor: 1.0}
}

// Evaluate prices one configuration for a demand under a deadline.
func (e *Evaluator) Evaluate(d units.Instructions, t config.Tuple, deadline units.Seconds) (Plan, error) {
	if e.Checkpoint <= 0 || e.BidFactor <= 0 {
		return Plan{}, fmt.Errorf("spot: invalid evaluator (checkpoint %v, bid factor %v)", e.Checkpoint, e.BidFactor)
	}
	pred := e.Caps.Predict(d, t)
	if pred.Time.IsInf() {
		return Plan{}, fmt.Errorf("spot: configuration %v has no capacity", t)
	}
	horizon := pred.Time * 3
	if deadline > 0 && deadline*3 > horizon {
		horizon = deadline * 3
	}

	cat := e.Caps.Catalog()
	// Cluster-level interruption hazard: any type's interruption kills
	// the step's progress back to the last checkpoint (gang-style MPI
	// assumption — conservative for independent tasks).
	var hazardPerHour float64
	var spotRate units.USDPerHour
	for i := 0; i < t.Len(); i++ {
		n := t.Count(i)
		if n == 0 {
			continue
		}
		bid := units.USDPerHour(e.BidFactor) * cat.Type(i).Price
		hazardPerHour += float64(n) * e.Market.InterruptionRate(i, horizon, bid)
		meanSpot := e.Market.Quantile(i, horizon, 0.5)
		spotRate += units.USDPerHour(n) * meanSpot
	}

	baseHours := pred.Time.Hours()
	interruptions := hazardPerHour * baseHours
	// Each interruption costs on average half a checkpoint interval of
	// rework plus a restart delay.
	const restartSec = 120
	penalty := e.Checkpoint/2 + restartSec
	rework := units.Seconds(interruptions) * penalty
	expTime := pred.Time + rework

	plan := Plan{
		Config:           t,
		BaseTime:         pred.Time,
		ExpectedTime:     expTime,
		OnDemandCost:     pred.Cost,
		ExpectedSpotCost: spotRate.PerSecond().Over(expTime),
		Interruptions:    interruptions,
	}
	if deadline > 0 {
		plan.DeadlineProb = deadlineProbability(pred.Time, deadline, hazardPerHour/3600, penalty)
	} else {
		plan.DeadlineProb = 1
	}
	return plan, nil
}

// deadlineProbability approximates P(finish ≤ deadline) when
// interruptions arrive as a Poisson process with the given per-second
// rate and each costs `penalty` seconds: the slack budget allows k* =
// ⌊(deadline − base)/penalty⌋ interruptions, so the probability is the
// Poisson CDF at k* with mean rate·base (exposure is approximated by
// the uninterrupted execution time; rework extends it, so this is
// slightly optimistic for tight deadlines).
func deadlineProbability(base, deadline units.Seconds, ratePerSec float64, penalty units.Seconds) float64 {
	if base > deadline {
		return 0
	}
	if ratePerSec <= 0 {
		return 1
	}
	slack := deadline - base
	kMax := int(slack / penalty)
	//lint:allow unitsafe the hazard is 1/s (no inverse-time unit type); exposure lambda = rate x time is dimensionless
	lambda := ratePerSec * float64(base)
	// Poisson CDF.
	p := math.Exp(-lambda)
	cdf := p
	for k := 1; k <= kMax; k++ {
		p *= lambda / float64(k)
		cdf += p
	}
	return math.Min(1, cdf)
}

// Recommendation compares the best on-demand and spot choices.
type Recommendation struct {
	OnDemand Plan
	Spot     Plan
	// SavingPct is the expected spot saving relative to on-demand cost
	// (negative when spot is expected to cost more).
	SavingPct float64
	// UseSpot is true when spot meets the confidence threshold and
	// saves money.
	UseSpot bool
}

// Recommend evaluates candidate configurations (e.g. a Pareto
// frontier) and recommends spot or on-demand execution at the given
// deadline-confidence threshold.
func (e *Evaluator) Recommend(d units.Instructions, candidates []config.Tuple,
	deadline units.Seconds, minConfidence float64) (Recommendation, error) {
	if len(candidates) == 0 {
		return Recommendation{}, fmt.Errorf("spot: no candidate configurations")
	}
	var rec Recommendation
	bestOD := units.USD(math.Inf(1))
	bestSpot := units.USD(math.Inf(1))
	foundOD := false
	foundSpot := false
	for _, t := range candidates {
		plan, err := e.Evaluate(d, t, deadline)
		if err != nil {
			return Recommendation{}, err
		}
		if plan.BaseTime < deadline && plan.OnDemandCost < bestOD {
			bestOD = plan.OnDemandCost
			rec.OnDemand = plan
			foundOD = true
		}
		if plan.DeadlineProb >= minConfidence && plan.ExpectedSpotCost < bestSpot {
			bestSpot = plan.ExpectedSpotCost
			rec.Spot = plan
			foundSpot = true
		}
	}
	if !foundOD {
		return Recommendation{}, fmt.Errorf("spot: no candidate meets the deadline on-demand")
	}
	if foundSpot {
		rec.SavingPct = (1 - float64(bestSpot/bestOD)) * 100
		rec.UseSpot = rec.SavingPct > 0
	}
	return rec, nil
}
