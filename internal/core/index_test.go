package core

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/apps/galaxy"
	"repro/internal/apps/sand"
	"repro/internal/config"
	"repro/internal/model"
	"repro/internal/units"
	"repro/internal/workload"
)

// indexedEngine is smallEngine with its frontier index published.
func indexedEngine(t *testing.T, app workload.App, maxNodes int) *Engine {
	t.Helper()
	eng := smallEngine(t, app, maxNodes)
	if _, ok := eng.Frontier(); !ok {
		t.Fatal("small catalog did not index")
	}
	return eng
}

// paperIndexes builds one frontier index per paper application, once
// per test binary: a paper-space build takes seconds (far longer under
// -race), and an index is immutable, so tests share it.
var paperIndexes sync.Map // app name → func() *FrontierIndex

// indexedPaperEngine returns a fresh paper engine for app with the
// shared index installed; its billing policy is the caller's to set.
func indexedPaperEngine(t *testing.T, app workload.App) *Engine {
	t.Helper()
	build, _ := paperIndexes.LoadOrStore(app.Name(), sync.OnceValue(func() *FrontierIndex {
		return buildFrontierIndex(NewPaperEngine(app))
	}))
	eng := NewPaperEngine(app)
	if err := eng.InstallIndex(build.(func() *FrontierIndex)()); err != nil {
		t.Fatal(err)
	}
	return eng
}

// requireSameAnalysis asserts byte-identical Analysis values: deep
// equality of the structs and equality of their JSON encodings (the
// form the serving layer caches and returns).
func requireSameAnalysis(t *testing.T, label string, idx, scan Analysis) {
	t.Helper()
	if !reflect.DeepEqual(idx, scan) {
		t.Fatalf("%s: indexed Analysis differs from scan:\nindexed: %+v\nscan:    %+v", label, idx, scan)
	}
	bi, err := json.Marshal(idx)
	if err != nil {
		t.Fatal(err)
	}
	bs, err := json.Marshal(scan)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bi, bs) {
		t.Fatalf("%s: JSON encodings differ:\n%s\n%s", label, bi, bs)
	}
}

func TestLessTupleFastMatchesLessTuple(t *testing.T) {
	rng := rand.New(rand.NewSource(31337))
	randTuple := func() config.Tuple {
		arity := 1 + rng.Intn(12)
		counts := make([]int, arity)
		for i := range counts {
			// Bias toward multi-digit counts: the string order of
			// "[1,10]" vs "[1,2]" is where a naive numeric comparison
			// would diverge from the string order.
			counts[i] = rng.Intn(256)
		}
		tp, err := config.NewTuple(counts)
		if err != nil {
			t.Fatal(err)
		}
		return tp
	}
	for trial := 0; trial < 20000; trial++ {
		a, b := randTuple(), randTuple()
		if trial%5 == 0 {
			b = a // exercise the equal case
		}
		// The oracle is the bracket notation's byte order.
		if got, want := lessTupleFast(a, b), a.String() < b.String(); got != want {
			t.Fatalf("lessTupleFast(%v, %v) = %v, string order says %v", a, b, got, want)
		}
		if got, want := lessTupleFast(b, a), b.String() < a.String(); got != want {
			t.Fatalf("lessTupleFast(%v, %v) = %v, string order says %v", b, a, got, want)
		}
	}
	// The documented divergence trap: "[1,10,...]" sorts before
	// "[1,2,...]" because ',' < '2' byte-wise.
	a := config.MustTuple(1, 10)
	b := config.MustTuple(1, 2)
	if !lessTupleFast(a, b) || a.String() >= b.String() {
		t.Fatalf("string order of %v vs %v not preserved", a, b)
	}
}

func TestIndexedAnalyzeMatchesScanSmall(t *testing.T) {
	scanEng := smallEngine(t, galaxy.App{}, 2)
	idxEng := indexedEngine(t, galaxy.App{}, 2)
	if idxEng.indexFor() == nil {
		t.Fatal("published index not serving a per-second engine")
	}
	p := workload.Params{N: 32768, A: 2000}
	cases := []struct {
		label string
		cons  Constraints
	}{
		{"both", Constraints{Deadline: units.FromHours(24), Budget: 200}},
		{"deadline-only", Constraints{Deadline: units.FromHours(24)}},
		{"budget-only", Constraints{Budget: 150}},
		{"unconstrained", Constraints{}},
		{"infeasible", Constraints{Deadline: 1, Budget: 0.001}},
		{"tight-budget", Constraints{Deadline: units.FromHours(48), Budget: 40}},
	}
	for _, c := range cases {
		scan, err := scanEng.Analyze(p, c.cons, Options{})
		if err != nil {
			t.Fatal(err)
		}
		idx, err := idxEng.Analyze(p, c.cons, Options{})
		if err != nil {
			t.Fatal(err)
		}
		requireSameAnalysis(t, c.label, idx, scan)
	}
}

func TestIndexedArgminMatchesExhaustiveSmall(t *testing.T) {
	scanEng := smallEngine(t, galaxy.App{}, 2)
	idxEng := indexedEngine(t, galaxy.App{}, 2)
	p := workload.Params{N: 32768, A: 2000}
	d, err := scanEng.Demand(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, deadline := range []units.Seconds{units.FromHours(6), units.FromHours(24), units.FromHours(72), 0} {
		for _, budget := range []units.USD{30, 100, 500, 0} {
			label := fmt.Sprintf("deadline=%v budget=%v", deadline, budget)
			cons := Constraints{Deadline: deadline, Budget: budget}
			for _, obj := range []objective{objectiveCost, objectiveTime} {
				want, okW, err := scanEng.scanSearch(context.Background(), d, cons, obj)
				if err != nil {
					t.Fatal(err)
				}
				got, okG := idxEng.indexFor().minSearch(idxEng, d, cons, obj)
				if okW != okG {
					t.Fatalf("%s obj=%d: ok %v vs scan %v", label, obj, okG, okW)
				}
				if okW && !reflect.DeepEqual(got, want) {
					t.Fatalf("%s obj=%d: indexed %+v != scan %+v", label, obj, got, want)
				}
			}
		}
	}
	// The public entry points against the exhaustive argmin (identical
	// tuple, not just identical cost).
	for _, deadline := range []units.Seconds{units.FromHours(12), units.FromHours(24)} {
		gotP, okG, err := idxEng.MinCostForDeadline(p, deadline)
		if err != nil {
			t.Fatal(err)
		}
		wantP, okW, err := scanEng.MinCostExhaustive(p, deadline)
		if err != nil {
			t.Fatal(err)
		}
		if okG != okW || !reflect.DeepEqual(gotP, wantP) {
			t.Fatalf("MinCostForDeadline(%v): indexed %+v/%v != exhaustive %+v/%v",
				deadline, gotP, okG, wantP, okW)
		}
	}
}

func TestIndexedMaxAccuracyMatchesScanSmall(t *testing.T) {
	scanEng := smallEngine(t, galaxy.App{}, 2)
	idxEng := indexedEngine(t, galaxy.App{}, 2)
	cons := Constraints{Deadline: units.FromHours(24), Budget: 60}
	pS, predS, okS, err := scanEng.MaxAccuracy(32768, cons, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	pI, predI, okI, err := idxEng.MaxAccuracy(32768, cons, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	if okS != okI || pS != pI || !reflect.DeepEqual(predS, predI) {
		t.Fatalf("MaxAccuracy: indexed (%+v, %+v, %v) != scan (%+v, %+v, %v)",
			pI, predI, okI, pS, predS, okS)
	}
}

func TestIndexedEpsilonMatchesScanSmall(t *testing.T) {
	scanEng := smallEngine(t, galaxy.App{}, 2)
	idxEng := indexedEngine(t, galaxy.App{}, 2)
	p := workload.Params{N: 32768, A: 2000}
	cons := Constraints{Deadline: units.FromHours(48), Budget: 500}
	for _, opts := range []Options{
		{EpsTime: 3600, EpsCost: 5},
		{EpsTime: 3600},
		{EpsCost: 5},
	} {
		scan, err := scanEng.Analyze(p, cons, opts)
		if err != nil {
			t.Fatal(err)
		}
		idx, err := idxEng.Analyze(p, cons, opts)
		if err != nil {
			t.Fatal(err)
		}
		requireSameAnalysis(t, fmt.Sprintf("eps=%v/%v", opts.EpsTime, opts.EpsCost), idx, scan)
	}
}

func TestIndexedSamplingForcesScan(t *testing.T) {
	// Sampling needs the per-configuration walk, so an indexed engine
	// must produce exactly what the scan produces, sample included.
	scanEng := smallEngine(t, galaxy.App{}, 2)
	idxEng := indexedEngine(t, galaxy.App{}, 2)
	p := workload.Params{N: 32768, A: 2000}
	cons := Constraints{Deadline: units.FromHours(48), Budget: 500}
	opts := Options{Workers: 4, SampleEvery: 10, SampleCap: 50}
	scan, err := scanEng.Analyze(p, cons, opts)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := idxEng.Analyze(p, cons, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(idx.Sample) == 0 {
		t.Fatal("sampling returned nothing through an indexed engine")
	}
	requireSameAnalysis(t, "sampled", idx, scan)
}

func TestIndexPerHourBillingServes(t *testing.T) {
	// Per-hour ceil billing is jointly monotone in (time, unit cost),
	// so the same index serves it: queries stay routed, and they match
	// the exhaustive per-hour argmin exactly — tuple included.
	eng := indexedEngine(t, galaxy.App{}, 2)
	if eng.indexFor() == nil {
		t.Fatal("per-second index not serving")
	}
	eng.SetBilling(model.PerHour)
	if eng.indexFor() == nil {
		t.Fatal("index not serving under per-hour billing: ceil billing is certified index-monotone")
	}
	p := workload.Params{N: 32768, A: 2000}
	got, okG, err := eng.MinCostForDeadline(p, units.FromHours(24))
	if err != nil {
		t.Fatal(err)
	}
	scanEng := smallEngine(t, galaxy.App{}, 2)
	scanEng.SetBilling(model.PerHour)
	want, okW, err := scanEng.MinCostExhaustive(p, units.FromHours(24))
	if err != nil {
		t.Fatal(err)
	}
	if okG != okW || !reflect.DeepEqual(got, want) {
		t.Fatalf("per-hour indexed: %+v/%v != exhaustive %+v/%v", got, okG, want, okW)
	}
	// Uncertified billing policies fall back to the scan — and flip
	// back to the already-built index when billing returns to a
	// certified policy.
	eng.SetBilling(model.Billing(7))
	if eng.indexFor() != nil {
		t.Fatal("index serving an uncertified billing policy")
	}
	if cause, _ := eng.IndexBypass(); cause != "billing" {
		t.Fatalf("bypass cause = %q, want billing", cause)
	}
	eng.SetBilling(model.PerSecond)
	if eng.indexFor() == nil {
		t.Fatal("index did not serve again under per-second billing")
	}
}

func TestIndexOverflowGuardFallsBack(t *testing.T) {
	old := maxIndexPairs
	maxIndexPairs = 8
	defer func() { maxIndexPairs = old }()
	eng := smallEngine(t, galaxy.App{}, 1)
	if _, ok := eng.Frontier(); ok || eng.FrontierBuilt() {
		t.Fatal("index built past the pair cap")
	}
	// Queries still answer, via the scan.
	scanEng := smallEngine(t, galaxy.App{}, 1)
	p := workload.Params{N: 32768, A: 1000}
	cons := Constraints{Deadline: units.FromHours(24), Budget: 500}
	scan, err := scanEng.Analyze(p, cons, Options{})
	if err != nil {
		t.Fatal(err)
	}
	idx, err := eng.Analyze(p, cons, Options{})
	if err != nil {
		t.Fatal(err)
	}
	requireSameAnalysis(t, "overflow", idx, scan)
}

func TestIndexGoldenPaperSpace(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-space census in -short mode")
	}
	// The golden certification: on the paper's full 10,077,695-
	// configuration space, the indexed census must reproduce the
	// exhaustive census byte for byte, and the index's shape must match
	// the recorded compression (EXPERIMENTS.md pins the census values).
	scanEng := NewPaperEngine(galaxy.App{})
	idxEng := indexedPaperEngine(t, galaxy.App{})

	idx, ok := idxEng.Frontier()
	if !ok {
		t.Fatal("paper engine refused to build the index")
	}
	stats := idx.Stats()
	if stats.Pairs != 657394 {
		t.Errorf("galaxy distinct (U, c_u) pairs = %d, want 657394", stats.Pairs)
	}
	if stats.Staircase != 118 {
		t.Errorf("galaxy staircase = %d entries, want 118", stats.Staircase)
	}

	p := workload.Params{N: 65536, A: 8000}
	cons := Constraints{Deadline: units.FromHours(24), Budget: 350}
	scan, err := scanEng.Analyze(p, cons, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := idxEng.Analyze(p, cons, Options{})
	if err != nil {
		t.Fatal(err)
	}
	requireSameAnalysis(t, "galaxy", got, scan)
	if got.Feasible != 7916146 || len(got.Frontier) != 77 {
		t.Errorf("galaxy census = %d feasible, %d frontier; want 7916146, 77",
			got.Feasible, len(got.Frontier))
	}

	// The paper's annotated spill point via the index. The exhaustive
	// scan's winner is [5,5,5,1,1,0,0,0,0]: within the type-3/type-4
	// instance family (exact 2× vCPU/price scaling) it is the same
	// machine mix as the paper's [5,5,5,3,0,0,0,0,0], but the float
	// accumulation of the (1,1) split rounds one ulp cheaper, so it is
	// the true float argmin.
	pred, okP, err := idxEng.MinCostForDeadline(p, units.FromHours(24))
	if err != nil || !okP {
		t.Fatal(okP, err)
	}
	if pred.Config.String() != "[5,5,5,1,1,0,0,0,0]" {
		t.Errorf("indexed spill config = %s, want [5,5,5,1,1,0,0,0,0]", pred.Config)
	}
	exh, okE, err := scanEng.MinCostExhaustive(p, units.FromHours(24))
	if err != nil || !okE {
		t.Fatal(okE, err)
	}
	if !reflect.DeepEqual(pred, exh) {
		t.Errorf("indexed mincost %+v != exhaustive %+v", pred, exh)
	}
}

func TestIndexGoldenPaperSpaceSand(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-space census in -short mode")
	}
	scanEng := NewPaperEngine(sand.App{})
	idxEng := indexedPaperEngine(t, sand.App{})
	p := workload.Params{N: 8192e6, A: 0.32}
	cons := Constraints{Deadline: units.FromHours(24), Budget: 350}
	scan, err := scanEng.Analyze(p, cons, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := idxEng.Analyze(p, cons, Options{})
	if err != nil {
		t.Fatal(err)
	}
	requireSameAnalysis(t, "sand", got, scan)
	if got.Feasible != 543966 || len(got.Frontier) != 51 {
		t.Errorf("sand census = %d feasible, %d frontier; want 543966, 51",
			got.Feasible, len(got.Frontier))
	}
}

func TestIndexGoldenPaperSpacePerHour(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-space census in -short mode")
	}
	// The per-hour golden certification: on the paper's full
	// configuration space under the billing policy the paper's own era
	// used, the indexed Analyze and argmin must reproduce the exhaustive
	// scan byte for byte — this is the query mix that used to fall back
	// to the ~350ms scan.
	scanEng := NewPaperEngine(galaxy.App{})
	scanEng.SetBilling(model.PerHour)
	idxEng := indexedPaperEngine(t, galaxy.App{})
	idxEng.SetBilling(model.PerHour)
	if idxEng.indexFor() == nil {
		t.Fatal("paper index not serving under per-hour billing")
	}

	p := workload.Params{N: 65536, A: 8000}
	for _, c := range []struct {
		label string
		cons  Constraints
	}{
		{"both", Constraints{Deadline: units.FromHours(24), Budget: 350}},
		{"deadline-only", Constraints{Deadline: units.FromHours(24)}},
		{"budget-only", Constraints{Budget: 350}},
		{"unconstrained", Constraints{}},
	} {
		scan, err := scanEng.Analyze(p, c.cons, Options{})
		if err != nil {
			t.Fatal(err)
		}
		got, err := idxEng.Analyze(p, c.cons, Options{})
		if err != nil {
			t.Fatal(err)
		}
		requireSameAnalysis(t, "per-hour "+c.label, got, scan)
	}

	pred, okP, err := idxEng.MinCostForDeadline(p, units.FromHours(24))
	if err != nil {
		t.Fatal(err)
	}
	exh, okE, err := scanEng.MinCostExhaustive(p, units.FromHours(24))
	if err != nil {
		t.Fatal(err)
	}
	if okP != okE || !reflect.DeepEqual(pred, exh) {
		t.Errorf("per-hour indexed mincost %+v/%v != exhaustive %+v/%v", pred, okP, exh, okE)
	}
}

func TestFrontierCandidatesStaircase(t *testing.T) {
	eng := indexedEngine(t, galaxy.App{}, 2)
	cands, ok := eng.FrontierCandidates()
	if !ok || len(cands) == 0 {
		t.Fatalf("no candidates from an indexable catalog: ok=%v n=%d", ok, len(cands))
	}
	for i, c := range cands {
		if c.Config.IsEmpty() || c.U <= 0 || c.Cu <= 0 {
			t.Fatalf("candidate %d degenerate: %+v", i, c)
		}
		if i == 0 {
			continue
		}
		// The staircase is the lower cost envelope over capacity:
		// walking down in U must also walk down in c_u, or the
		// higher-capacity entry would dominate this one.
		if cands[i].U >= cands[i-1].U {
			t.Fatalf("candidate %d capacity %v not below %v", i, cands[i].U, cands[i-1].U)
		}
		if cands[i].Cu >= cands[i-1].Cu {
			t.Fatalf("candidate %d cost rate %v not below %v (dominated entry)", i, cands[i].Cu, cands[i-1].Cu)
		}
	}
}

func TestFrontierCandidatesIgnoreBillingAndOptIn(t *testing.T) {
	// Billing does not block the build: the staircase depends only on
	// the catalog, so horizon solvers get the same candidates the query
	// index serves, and the build publishes it for queries too.
	ref := indexedEngine(t, galaxy.App{}, 2)
	want, ok := ref.FrontierCandidates()
	if !ok {
		t.Fatal("reference engine did not index")
	}
	eng := smallEngine(t, galaxy.App{}, 2)
	eng.SetBilling(model.PerHour)
	if eng.FrontierBuilt() {
		t.Fatal("FrontierBuilt before any build was requested")
	}
	got, ok := eng.FrontierCandidates()
	if !ok {
		t.Fatal("per-hour engine refused to build the frontier")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("candidates depend on billing:\n%+v\n%+v", got, want)
	}
	if !eng.FrontierBuilt() {
		t.Fatal("FrontierBuilt false after a successful build")
	}
	if eng.indexFor() == nil {
		t.Fatal("per-hour queries ignore the index FrontierCandidates published")
	}
	if cause, reason := eng.IndexBypass(); cause != "" || reason != "" {
		t.Fatalf("bypass = %q/%q, want none", cause, reason)
	}
}

func TestIndexBypassReason(t *testing.T) {
	perHour := indexedEngine(t, galaxy.App{}, 1)
	perHour.SetBilling(model.PerHour)
	if cause, reason := perHour.IndexBypass(); cause != "" || reason != "" {
		t.Fatalf("per-hour engine reports bypass: %q/%q", cause, reason)
	}

	uncertified := indexedEngine(t, galaxy.App{}, 1)
	uncertified.SetBilling(model.Billing(7))
	if cause, reason := uncertified.IndexBypass(); cause != "billing" || !strings.Contains(reason, "not certified") {
		t.Fatalf("uncertified-billing bypass = %q/%q", cause, reason)
	}

	active := smallEngine(t, galaxy.App{}, 1)
	if cause, reason := active.IndexBypass(); cause != "" || reason != "" {
		t.Fatalf("healthy engine reports bypass before build: %q/%q", cause, reason)
	}
	if _, ok := active.FrontierCandidates(); !ok {
		t.Fatal("small catalog did not index")
	}
	if cause, reason := active.IndexBypass(); cause != "" || reason != "" {
		t.Fatalf("healthy engine reports bypass after build: %q/%q", cause, reason)
	}

	old := maxIndexPairs
	maxIndexPairs = 2
	defer func() { maxIndexPairs = old }()
	overflow := smallEngine(t, galaxy.App{}, 1)
	// Probing never builds: the overflow is invisible until a build
	// (Frontier, or a horizon solve) actually tries.
	if cause, reason := overflow.IndexBypass(); cause != "" || reason != "" {
		t.Fatalf("untried engine reports bypass: %q/%q", cause, reason)
	}
	if _, ok := overflow.FrontierCandidates(); ok {
		t.Fatal("catalog compressed under a 2-pair cap")
	}
	if cause, reason := overflow.IndexBypass(); cause != "pair-cap" || !strings.Contains(reason, "did not compress") {
		t.Fatalf("overflow bypass = %q/%q", cause, reason)
	}
}

// TestParallelDerivationMatchesSerial pins the two decode/derive code
// paths to each other: the fused single-core walk and the multi-core
// chunked parse + parallel span fill must produce identical indexes.
// GOMAXPROCS is toggled explicitly so both paths run regardless of the
// host's core count, over a synthetic pair table big enough
// (> parallelCodecMin) to clear the parallel gate, with multi-pair
// spans so the running minima actually accumulate.
func TestParallelDerivationMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(424242))
	const n = 40000
	pairs := make([]idxPair, n)
	var total uint64
	u := units.Rate(1)
	cu := units.USDPerHour(1)
	for i := range pairs {
		if rng.Intn(3) == 0 || i == 0 {
			u += units.Rate(rng.Float64() + 0.001) // new capacity span
			cu = units.USDPerHour(rng.Float64())
		} else {
			cu += units.USDPerHour(rng.Float64() + 0.001) // same span, costlier
		}
		counts := make([]int, 9)
		for k := range counts {
			counts[k] = rng.Intn(256)
		}
		pairs[i] = idxPair{
			u:       u,
			cu:      cu,
			count:   uint64(1 + rng.Intn(7)),
			minIdx:  uint64(i),
			lessMin: config.MustTuple(counts...),
		}
		total += pairs[i].count
	}
	payload := (&FrontierIndex{pairs: pairs, total: total}).EncodeBinary()

	decodeAt := func(procs int) *FrontierIndex {
		prev := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(prev)
		x, err := DecodeFrontierIndex(payload)
		if err != nil {
			t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
		}
		return x
	}
	serial := decodeAt(1)
	parallel := decodeAt(4)
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatal("parallel decode/derivation diverges from the serial path")
	}
	if !bytes.Equal(serial.EncodeBinary(), payload) || !bytes.Equal(parallel.EncodeBinary(), payload) {
		t.Fatal("round-trip is not byte-identical")
	}

	// Corruption must be rejected identically on both paths.
	for _, flip := range []int{codecHeaderLen + 17, len(payload) / 2, len(payload) - 3} {
		bad := append([]byte(nil), payload...)
		bad[flip] ^= 0x40
		prev := runtime.GOMAXPROCS(1)
		_, errSerial := DecodeFrontierIndex(bad)
		runtime.GOMAXPROCS(4)
		_, errParallel := DecodeFrontierIndex(bad)
		runtime.GOMAXPROCS(prev)
		if (errSerial == nil) != (errParallel == nil) {
			t.Fatalf("flip at %d: serial err %v, parallel err %v", flip, errSerial, errParallel)
		}
	}
}
