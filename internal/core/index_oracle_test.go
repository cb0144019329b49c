package core

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"

	"repro/internal/apps/galaxy"
	"repro/internal/apps/sand"
	"repro/internal/apps/x264"
	"repro/internal/config"
	"repro/internal/demand"
	"repro/internal/ec2"
	"repro/internal/model"
	"repro/internal/units"
	"repro/internal/workload"
)

// enumeratedPairs recounts the pair table of x, eng's level-built
// index, by exhaustive enumeration: one model.Sums per configuration,
// aggregated per worker into the slot of its exact (u, cu) key and
// merged. x supplies only the key → slot map, which keeps the paper
// spaces cheap enough under -race; a configuration whose key x lacks,
// or a pair of x that no configuration reaches, fails the test.
func enumeratedPairs(t *testing.T, label string, eng *Engine, x *FrontierIndex) []idxPair {
	t.Helper()
	type pairKey struct {
		u  units.Rate
		cu units.USDPerHour
	}
	slot := make(map[pairKey]int, len(x.pairs))
	for i, p := range x.pairs {
		slot[pairKey{p.u, p.cu}] = i
	}
	w, nodeCost := eng.caps.NodeArrays()
	shards := make([][]idxPair, runtime.GOMAXPROCS(0))
	for i := range shards {
		shards[i] = make([]idxPair, len(x.pairs))
	}
	var stray atomic.Int64
	eng.space.ForEachParallelIndexed(len(shards), func(worker int, k uint64, tp config.Tuple) {
		u, cu := model.Sums(tp, w, nodeCost)
		i, ok := slot[pairKey{u, cu}]
		if !ok {
			stray.Add(1)
			return
		}
		if agg := &shards[worker][i]; agg.count == 0 {
			// Chunks walk ascending indices, so the first sighting in a
			// shard is that shard's minimal index for the pair.
			*agg = idxPair{u: u, cu: cu, count: 1, minIdx: k, lessMin: tp}
		} else {
			agg.count++
			if lessTupleFast(tp, agg.lessMin) {
				agg.lessMin = tp
			}
		}
	})
	if n := stray.Load(); n > 0 {
		t.Fatalf("%s: %d configurations sum to a pair the level build lacks", label, n)
	}
	pairs := shards[0]
	for _, sh := range shards[1:] {
		for i := range sh {
			switch {
			case sh[i].count == 0:
			case pairs[i].count == 0:
				pairs[i] = sh[i]
			default:
				pairs[i].absorb(&sh[i])
			}
		}
	}
	for i := range pairs {
		if pairs[i].count == 0 {
			t.Fatalf("%s: no configuration sums to pair %d, %+v", label, i, x.pairs[i])
		}
	}
	return pairs
}

// requirePairsMatchEnumeration asserts that every field of every pair
// of x, eng's level-built index, equals the enumeration oracle's, and
// returns the oracle's pair table.
func requirePairsMatchEnumeration(t *testing.T, label string, eng *Engine, x *FrontierIndex) []idxPair {
	t.Helper()
	if x == nil {
		t.Fatalf("%s: level build aborted", label)
	}
	// Strictly ascending keys make x's slot order the oracle's sorted
	// order, with no key twice.
	for i := 1; i < len(x.pairs); i++ {
		if p, q := x.pairs[i-1], x.pairs[i]; !(p.u < q.u || (p.u == q.u && p.cu < q.cu)) {
			t.Fatalf("%s: pairs %d and %d out of (u, cu) order: %+v, %+v", label, i-1, i, p, q)
		}
	}
	pairs := enumeratedPairs(t, label, eng, x)
	for i := range x.pairs {
		if got, want := x.pairs[i], pairs[i]; got != want {
			t.Fatalf("%s: pair %d = %+v, enumeration has %+v", label, i, got, want)
		}
	}
	return pairs
}

// requireLevelBuildMatchesEnumeration asserts that x, eng's level-built
// index, equals the enumeration oracle's: every field of every pair,
// the finished index up to buildWall, and the snapshot payload up to
// its buildWall bytes.
func requireLevelBuildMatchesEnumeration(t *testing.T, label string, eng *Engine, x *FrontierIndex) {
	t.Helper()
	oracle := finishIndex(requirePairsMatchEnumeration(t, label, eng, x), eng.space.Size())
	// reflect.DeepEqual walks each element through reflection, which
	// under -race tripled this test's time, so the long tables compare
	// typed and DeepEqual takes the rest, any field added later included.
	built, want := *x, *oracle
	if !slices.Equal(built.spans, want.spans) || !slices.Equal(built.blocks, want.blocks) ||
		!slices.Equal(built.entries, want.entries) {
		t.Fatalf("%s: derived tables differ from the enumeration's", label)
	}
	requireBlockTable(t, label, x)
	built.pairs, built.spans, built.blocks, built.entries, built.buildWall = nil, nil, nil, nil, 0
	want.pairs, want.spans, want.blocks, want.entries, want.buildWall = nil, nil, nil, nil, 0
	if !reflect.DeepEqual(built, want) {
		t.Fatalf("%s: finished index differs from the enumeration's", label)
	}
	got, exp := x.EncodeBinary(), oracle.EncodeBinary()
	clear(got[8:16]) // buildWall
	clear(exp[8:16])
	if !bytes.Equal(got, exp) {
		t.Fatalf("%s: snapshot payload differs from the enumeration's beyond buildWall", label)
	}
}

// limitsEngine is galaxy on the paper catalog with the given per-type
// node limits.
func limitsEngine(t *testing.T, limits ...int) *Engine {
	t.Helper()
	space, err := config.NewSpace(limits)
	if err != nil {
		t.Fatal(err)
	}
	cat := ec2.Oregon()
	eng, err := NewEngine(model.FromIPC(cat, galaxy.App{}), demand.FromApp(galaxy.App{}), space, galaxy.App{}.Domain())
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// TestLevelBuildMatchesEnumeration certifies the level build against the
// enumeration oracle at one worker and at four. The paper catalog at
// two and three nodes per type is the one family here whose equal-u
// runs need the cu re-sort (distinct prefix capacities that round to one
// sum); the random catalogs exercise arbitrary shapes, the two-digit
// catalog the mid-tuple comparison, the zero-limit spaces a skipped
// level, and the 255-node type a merge of 256 copies with three-digit
// counts.
func TestLevelBuildMatchesEnumeration(t *testing.T) {
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			setProcs(t, procs)
			check := func(label string, eng *Engine) {
				t.Helper()
				requireLevelBuildMatchesEnumeration(t, label, eng, buildFrontierIndex(eng))
			}
			for _, app := range []workload.App{galaxy.App{}, sand.App{}, x264.App{}} {
				for maxNodes := 1; maxNodes <= 3; maxNodes++ {
					check(fmt.Sprintf("%s at %d per type", app.Name(), maxNodes), smallEngine(t, app, maxNodes))
				}
			}
			for i, tr := range propertyTrials(t) {
				check(fmt.Sprintf("random catalog %d", i), tr.eng)
			}
			check("two-digit catalog", twoDigitEngine(t))
			check("type 4 capped at zero", limitsEngine(t, 2, 2, 2, 2, 0, 2, 2, 2, 2))
			check("type 8 capped at zero", limitsEngine(t, 2, 2, 2, 2, 2, 2, 2, 2, 0))
			check("255 nodes of type 0", limitsEngine(t, 255, 2, 0, 0, 0, 0, 0, 0, 1))
		})
	}
}

// TestLevelBuildMatchesEnumerationPaper certifies the three full paper
// pair tables (657,394 / 671,357 / 729,883 pairs) against enumeration.
// The finished index and its payload are pure functions of the pair
// table, compared in TestLevelBuildMatchesEnumeration; here they would
// cost a third of the test's time under -race.
func TestLevelBuildMatchesEnumerationPaper(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-space enumeration in -short mode")
	}
	for _, app := range []workload.App{galaxy.App{}, sand.App{}, x264.App{}} {
		requirePairsMatchEnumeration(t, app.Name(), NewPaperEngine(app), paperIndex(app))
	}
}

// TestPaperPairTableExactSize pins the pair table's capacity to its
// length on the three paper builds: the last level's merge sizes its
// output for every shifted state (979,061 slots for galaxy's 657,394
// pairs), and an index keeps its pair table for the life of the process.
func TestPaperPairTableExactSize(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-space builds in -short mode")
	}
	for _, app := range []workload.App{galaxy.App{}, sand.App{}, x264.App{}} {
		if x := paperIndex(app); cap(x.pairs) != len(x.pairs) {
			t.Errorf("%s: pair table holds %d pairs in %d slots", app.Name(), len(x.pairs), cap(x.pairs))
		}
	}
}

// TestPairCapDecidedOnExactCount pins the pair cap to the exact distinct
// count whatever the worker count: the 2-per-type galaxy space has
// 9,324 pairs, so a cap of 9,324 builds and a cap of 9,323 aborts, at
// every GOMAXPROCS.
func TestPairCapDecidedOnExactCount(t *testing.T) {
	old := maxIndexPairs
	defer func() { maxIndexPairs = old }()
	const pairs = 9324
	for _, procs := range []int{1, 2, 4, 8} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			setProcs(t, procs)
			maxIndexPairs = pairs
			x := buildFrontierIndex(smallEngine(t, galaxy.App{}, 2))
			if x == nil {
				t.Fatalf("cap %d: build aborted on a %d-pair table", maxIndexPairs, pairs)
			}
			if n := x.Stats().Pairs; n != pairs {
				t.Fatalf("%d pairs, want %d", n, pairs)
			}
			maxIndexPairs = pairs - 1
			if x := buildFrontierIndex(smallEngine(t, galaxy.App{}, 2)); x != nil {
				t.Fatalf("cap %d: built a %d-pair index", maxIndexPairs, x.Stats().Pairs)
			}
		})
	}
}
