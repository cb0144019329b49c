package core

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/config"
	"repro/internal/demand"
	"repro/internal/detrand"
	"repro/internal/ec2"
	"repro/internal/model"
	"repro/internal/units"
	"repro/internal/workload"
)

// detSource adapts detrand's splitmix64 stream to math/rand.Source so
// the randomized-catalog helper runs on the repo's deterministic
// generator: the trial sequence is pinned by the seed alone, not by
// math/rand's generator choice.
type detSource struct{ s *detrand.Source }

func (d detSource) Int63() int64   { return int64(d.s.Uint64() >> 1) }
func (d detSource) Seed(_ int64)   {}
func (d detSource) Uint64() uint64 { return d.s.Uint64() }

// scanTwin returns an engine over eng's catalog, demand model, space
// and billing that never publishes an index, so every answer it gives
// is the exhaustive scan's.
func scanTwin(t *testing.T, eng *Engine) *Engine {
	t.Helper()
	twin, err := NewEngine(eng.caps, eng.dm, eng.space, eng.domain)
	if err != nil {
		t.Fatal(err)
	}
	twin.SetBilling(eng.billing)
	return twin
}

// requireIndexMatchesScan asserts that eng's published index answers p
// under cons exactly as the exhaustive scan does, under eng's billing:
// the Analyze census against scan (eng's scan twin), and both argmins
// through minSearch against scanSearch — same floats, same tie winners.
// It returns the argmin winners, for callers that check their footing.
func requireIndexMatchesScan(t *testing.T, label string, eng, scan *Engine, p workload.Params, cons Constraints) (winners []config.Tuple) {
	t.Helper()
	scanAn, err := scan.Analyze(p, cons, Options{})
	if err != nil {
		t.Fatal(err)
	}
	idxAn, err := eng.Analyze(p, cons, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(idxAn, scanAn) {
		t.Fatalf("%s: indexed Analysis %+v != scan %+v", label, idxAn, scanAn)
	}
	idx := eng.indexFor()
	if idx == nil {
		t.Fatalf("%s: index not serving under %s billing", label, eng.billing)
	}
	dem, err := eng.Demand(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, obj := range []objective{objectiveCost, objectiveTime} {
		got, okG := idx.minSearch(eng, dem, cons, obj)
		want, okW, err := eng.scanSearch(context.Background(), dem, cons, obj)
		if err != nil {
			t.Fatal(err)
		}
		if okG != okW || !reflect.DeepEqual(got, want) {
			t.Fatalf("%s obj %d: indexed (%+v, %v) != scan (%+v, %v)",
				label, obj, got, okG, want, okW)
		}
		if okW {
			winners = append(winners, want.Config)
		}
	}
	return winners
}

// TestIndexEqualsScanRandomized is the randomized certification of the
// frontier index: across random catalogs, constraints (including
// unconstrained and infeasible ones), the indexed Analyze and all
// argmin queries must equal the exhaustive scan exactly — same floats,
// same tie winners.
func TestIndexEqualsScanRandomized(t *testing.T) {
	rng := rand.New(detSource{detrand.New(0xce11a)})
	for trial := 0; trial < 30; trial++ {
		eng := randomEngine(t, rng)
		scan := scanTwin(t, eng)
		if _, ok := eng.Frontier(); !ok {
			t.Fatalf("trial %d: random catalog did not index", trial)
		}
		maxCap := 0.0
		eng.Space().ForEach(func(tp config.Tuple) bool {
			if u := float64(eng.Capacities().Capacity(tp)); u > maxCap {
				maxCap = u
			}
			return true
		})
		deadline := units.Seconds(3600 * (1 + 20*rng.Float64()))
		frac := 0.2 + 0.7*rng.Float64()
		d := maxCap * frac * float64(deadline)
		p := workload.Params{N: d, A: 1}

		// Cycle through constraint shapes: both axes, one axis,
		// unconstrained (zero = +Inf), and an unmeetable deadline.
		var conss []Constraints
		budget := units.USD(0.01 + 100*rng.Float64())
		conss = append(conss,
			Constraints{Deadline: deadline, Budget: budget},
			Constraints{Deadline: deadline},
			Constraints{Budget: budget},
			Constraints{},
			Constraints{Deadline: 1e-9},
		)
		for ci, cons := range conss {
			requireIndexMatchesScan(t, fmt.Sprintf("trial %d cons %d", trial, ci), eng, scan, p, cons)
		}

		// Codec round-trip: the snapshot payload must decode to an index
		// bit-identical to the built one — pair table and every derived
		// table — and the decoded index must re-encode to the same
		// bytes, so a restored process is indistinguishable from one
		// that paid the build.
		built := eng.indexFor()
		if built == nil {
			t.Fatalf("trial %d: no index to encode", trial)
		}
		payload := built.EncodeBinary()
		decoded, err := DecodeFrontierIndex(payload)
		if err != nil {
			t.Fatalf("trial %d: decode: %v", trial, err)
		}
		if !reflect.DeepEqual(decoded, built) {
			t.Fatalf("trial %d: decoded index differs from built", trial)
		}
		if re := decoded.EncodeBinary(); !bytes.Equal(re, payload) {
			t.Fatalf("trial %d: re-encoded payload differs (%d vs %d bytes)",
				trial, len(re), len(payload))
		}

		// MaxAccuracy bisects over searchBest: the indexed engine and its
		// scan twin must land on the same rung and prediction.
		cons := Constraints{Deadline: deadline, Budget: budget}
		pS, predS, okS, err := scan.MaxAccuracy(math.Max(1, d/2), cons, 1e-3)
		if err != nil {
			t.Fatal(err)
		}
		pI, predI, okI, err := eng.MaxAccuracy(math.Max(1, d/2), cons, 1e-3)
		if err != nil {
			t.Fatal(err)
		}
		if okS != okI || pS != pI || !reflect.DeepEqual(predS, predI) {
			t.Fatalf("trial %d: MaxAccuracy indexed (%+v, %+v, %v) != scan (%+v, %+v, %v)",
				trial, pI, predI, okI, pS, predS, okS)
		}

		// Per-hour billing must route *through* the same index: ceil'd
		// cost is still jointly monotone in (time, unit cost), so the
		// billing-independent staircase stays a valid candidate
		// superset and every answer — census, frontier, argmin tuple,
		// tie metadata — must match the scan bit for bit.
		eng.SetBilling(model.PerHour)
		scan.SetBilling(model.PerHour)
		for ci, cons := range conss {
			requireIndexMatchesScan(t, fmt.Sprintf("trial %d cons %d per-hour", trial, ci), eng, scan, p, cons)
		}
		pHS, predHS, okHS, err := scan.MaxAccuracy(math.Max(1, d/2), cons, 1e-3)
		if err != nil {
			t.Fatal(err)
		}
		pHI, predHI, okHI, err := eng.MaxAccuracy(math.Max(1, d/2), cons, 1e-3)
		if err != nil {
			t.Fatal(err)
		}
		if okHS != okHI || pHS != pHI || !reflect.DeepEqual(predHS, predHI) {
			t.Fatalf("trial %d: per-hour MaxAccuracy indexed (%+v, %+v, %v) != scan (%+v, %+v, %v)",
				trial, pHI, predHI, okHI, pHS, predHS, okHS)
		}
	}
}

// TestIndexEqualsScanTwoDigitCounts is the fixed-catalog trial beside
// the randomized harness. Its type limits reach 10–12 nodes, so the
// index's tie-breaks compare two-digit counts, which the random
// catalogs (1–3 nodes per type) never produce: lessDecimal's mid-tuple
// rule (2 < 10, since ',' sorts below every digit) and its last-position
// rule (10 < 2, since ']' sorts above). The aa family is linear in size
// and price — k small nodes and k/2 double-size ones sum to the same
// pair — so most pairs aggregate several configurations. Index and scan
// must agree on Analyze and both argmins at every deadline × budget
// pair, under both billings.
func TestIndexEqualsScanTwoDigitCounts(t *testing.T) {
	cat, err := ec2.NewCatalog([]ec2.InstanceType{
		{Name: "aa.0", Category: "aa", VCPUs: 1, BaseGHz: 1, Price: 0.1},
		{Name: "aa.1", Category: "aa", VCPUs: 2, BaseGHz: 1, Price: 0.2},
		{Name: "aa.2", Category: "aa", VCPUs: 4, BaseGHz: 1, Price: 0.4},
		{Name: "bb.0", Category: "bb", VCPUs: 2, BaseGHz: 1, Price: 0.25},
	})
	if err != nil {
		t.Fatal(err)
	}
	caps, err := model.New(cat, []units.Rate{units.GIPS(1), units.GIPS(1), units.GIPS(1), units.GIPS(1.3)})
	if err != nil {
		t.Fatal(err)
	}
	space, err := config.NewSpace([]int{12, 10, 11, 3})
	if err != nil {
		t.Fatal(err)
	}
	dm := demand.FromFunc("linear", func(n, a float64) float64 { return n * a })
	dom := workload.Domain{MinN: 1, MaxN: 1e18, MinA: 1, MaxA: 1e18}
	eng, err := NewEngine(caps, dm, space, dom)
	if err != nil {
		t.Fatal(err)
	}
	x, ok := eng.Frontier()
	if !ok {
		t.Fatal("fixed catalog did not index")
	}
	twoDigit := func(tp config.Tuple) bool {
		for i := 0; i < tp.Len(); i++ {
			if tp.Count(i) >= 10 {
				return true
			}
		}
		return false
	}
	// Footing: the trial only bites if aggregated pairs carry winners
	// with two-digit counts.
	type pairKey struct {
		u  units.Rate
		cu units.USDPerHour
	}
	shared := make(map[pairKey]bool)
	multi, multiTwoDigit := 0, 0
	for _, pr := range x.pairs {
		if pr.count < 2 {
			continue
		}
		shared[pairKey{pr.u, pr.cu}] = true
		multi++
		if twoDigit(pr.lessMin) {
			multiTwoDigit++
		}
	}
	if len(x.pairs) != 503 || multi != 468 || multiTwoDigit != 247 {
		t.Fatalf("%d pairs, %d aggregating several configurations, %d of those with a two-digit winner; want 503, 468, 247",
			len(x.pairs), multi, multiTwoDigit)
	}

	scan := scanTwin(t, eng)
	// Demands for a run of 1 and 2.5 hours at full capacity. Deadlines
	// scale that time; budgets scale the cheapest per-second cost, of
	// bb.0 alone at 10.4 GIPS per $/h.
	uMax := float64(caps.Capacity(config.MustTuple(12, 10, 11, 3)))
	tiedWinners := 0
	for _, hours := range []float64{1, 2.5} {
		d := uMax * 3600 * hours
		p := workload.Params{N: d, A: 1}
		cheapest := d / 3600 / 10.4e9
		for _, b := range []model.Billing{model.PerSecond, model.PerHour} {
			eng.SetBilling(b)
			scan.SetBilling(b)
			for _, dl := range []float64{0, 1.05, 1.3, 1.7, 2.2, 3.1, 6} {
				for _, bu := range []float64{0, 1.01, 1.04, 1.1, 1.5, 3} {
					cons := Constraints{Deadline: units.Seconds(3600 * hours * dl), Budget: units.USD(cheapest * bu)}
					label := fmt.Sprintf("%gh run, %s, deadline %g×, budget %g×", hours, b, dl, bu)
					for _, w := range requireIndexMatchesScan(t, label, eng, scan, p, cons) {
						if shared[pairKey{caps.Capacity(w), caps.UnitCost(w)}] && twoDigit(w) {
							tiedWinners++
						}
					}
				}
			}
		}
	}
	if tiedWinners == 0 {
		t.Fatal("no argmin winner came from an aggregated pair with a two-digit count; the trial lost its footing")
	}
}

// TestIndexPerHourPairCapFallsBack keeps the scan-fallback contract
// under per-hour billing: a catalog exceeding the pair cap must bypass
// the index with the pair-cap cause (not the billing one) and still
// answer bit-identically from the scan.
func TestIndexPerHourPairCapFallsBack(t *testing.T) {
	old := maxIndexPairs
	maxIndexPairs = 2
	defer func() { maxIndexPairs = old }()
	rng := rand.New(detSource{detrand.New(0xce11a)})
	eng := randomEngine(t, rng)
	eng.SetBilling(model.PerHour)
	maxCap := 0.0
	eng.Space().ForEach(func(tp config.Tuple) bool {
		if u := float64(eng.Capacities().Capacity(tp)); u > maxCap {
			maxCap = u
		}
		return true
	})
	deadline := units.FromHours(5)
	p := workload.Params{N: maxCap * 0.5 * float64(deadline), A: 1}
	cons := Constraints{Deadline: deadline, Budget: 50}

	scanEng := randomEngine(t, rand.New(detSource{detrand.New(0xce11a)}))
	scanEng.SetBilling(model.PerHour)
	want, err := scanEng.Analyze(p, cons, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := eng.Frontier(); ok {
		t.Fatal("index built past the pair cap")
	}
	got, err := eng.Analyze(p, cons, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if eng.FrontierBuilt() {
		t.Fatal("index published past the pair cap")
	}
	if cause, _ := eng.IndexBypass(); cause != "pair-cap" {
		t.Fatalf("bypass cause = %q, want pair-cap", cause)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("pair-cap fallback diverged: %+v != %+v", got, want)
	}
}
