package core

import (
	"bytes"
	"context"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/config"
	"repro/internal/detrand"
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
			scanAn, err := scan.Analyze(p, cons, Options{})
			if err != nil {
				t.Fatal(err)
			}
			idxAn, err := eng.Analyze(p, cons, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(idxAn, scanAn) {
				t.Fatalf("trial %d cons %d: indexed Analysis %+v != scan %+v",
					trial, ci, idxAn, scanAn)
			}

			dem, err := eng.Demand(p)
			if err != nil {
				t.Fatal(err)
			}
			idx := eng.indexFor()
			if idx == nil {
				t.Fatalf("trial %d: no index", trial)
			}
			for _, obj := range []objective{objectiveCost, objectiveTime} {
				got, okG := idx.minSearch(eng, dem, cons, obj)
				want, okW, err := eng.scanSearch(context.Background(), dem, cons, obj)
				if err != nil {
					t.Fatal(err)
				}
				if okG != okW || !reflect.DeepEqual(got, want) {
					t.Fatalf("trial %d cons %d obj %d: indexed (%+v, %v) != scan (%+v, %v)",
						trial, ci, obj, got, okG, want, okW)
				}
			}
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
		if eng.indexFor() == nil {
			t.Fatalf("trial %d: index not serving under per-hour billing", trial)
		}
		dem, err := eng.Demand(p)
		if err != nil {
			t.Fatal(err)
		}
		idx := eng.indexFor()
		for ci, cons := range conss {
			scanAn, err := scan.Analyze(p, cons, Options{})
			if err != nil {
				t.Fatal(err)
			}
			idxAn, err := eng.Analyze(p, cons, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(idxAn, scanAn) {
				t.Fatalf("trial %d cons %d: per-hour indexed Analysis %+v != scan %+v",
					trial, ci, idxAn, scanAn)
			}
			for _, obj := range []objective{objectiveCost, objectiveTime} {
				got, okG := idx.minSearch(eng, dem, cons, obj)
				want, okW, err := eng.scanSearch(context.Background(), dem, cons, obj)
				if err != nil {
					t.Fatal(err)
				}
				if okG != okW || !reflect.DeepEqual(got, want) {
					t.Fatalf("trial %d cons %d obj %d: per-hour indexed (%+v, %v) != scan (%+v, %v)",
						trial, ci, obj, got, okG, want, okW)
				}
			}
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
