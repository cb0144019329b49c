package core

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"unsafe"

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

// oraclePair is one exact (u, cu) pair as the enumeration oracle
// aggregates it: its population, its least and largest configuration
// index, and its lessTupleFast-least and -greatest members. The largest
// index and the greatest member feed only the mutation controls.
type oraclePair struct {
	u               units.Rate
	cu              units.USDPerHour
	count           uint64
	minIdx, maxIdx  uint64
	least, greatest config.Tuple
}

// merge aggregates q's configurations into p, which holds the same pair.
func (p *oraclePair) merge(q *oraclePair) {
	p.count += q.count
	p.minIdx = min(p.minIdx, q.minIdx)
	p.maxIdx = max(p.maxIdx, q.maxIdx)
	if lessTupleFast(q.least, p.least) {
		p.least = q.least
	}
	if lessTupleFast(p.greatest, q.greatest) {
		p.greatest = q.greatest
	}
}

// enumeratedPairs recounts the pair table of x, eng's level-built
// index, by exhaustive enumeration: one model.Sums per configuration,
// aggregated per worker into the slot of its exact (u, cu) pair and
// merged. Members are compared with lessTupleFast, so the oracle does
// not depend on the order key. x supplies only the pair → slot map,
// which keeps the paper spaces cheap enough under -race; a
// configuration whose pair x lacks, or a pair of x that no configuration
// reaches, fails the test.
func enumeratedPairs(t *testing.T, label string, eng *Engine, x *FrontierIndex) []oraclePair {
	t.Helper()
	type pairKey struct {
		u  units.Rate
		cu units.USDPerHour
	}
	slot := make(map[pairKey]int, len(x.pairs))
	for _, sp := range x.spans {
		for i := sp.start; i < sp.end; i++ {
			slot[pairKey{sp.u, x.pairs[i].cu}] = i
		}
	}
	w, nodeCost := eng.caps.NodeArrays()
	shards := make([][]oraclePair, runtime.GOMAXPROCS(0))
	for i := range shards {
		shards[i] = make([]oraclePair, len(x.pairs))
	}
	var stray atomic.Int64
	eng.space.ForEachParallelIndexed(len(shards), func(worker int, k uint64, tp config.Tuple) {
		u, cu := model.Sums(tp, w, nodeCost)
		i, ok := slot[pairKey{u, cu}]
		if !ok {
			stray.Add(1)
			return
		}
		// Chunks walk ascending indices, so the first sighting in a shard
		// is that shard's least index for the pair, and the latest its
		// largest.
		if agg := &shards[worker][i]; agg.count == 0 {
			*agg = oraclePair{u: u, cu: cu, count: 1, minIdx: k, maxIdx: k, least: tp, greatest: tp}
		} else {
			agg.merge(&oraclePair{count: 1, minIdx: k, maxIdx: k, least: tp, greatest: tp})
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
				pairs[i].merge(&sh[i])
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

// pairsMismatch returns the first field of x's pair table that differs
// from the enumeration oracle's pairs, or nil: the spans' capacities in
// strictly ascending order and each span's unit costs too, then every
// pair's capacity, unit cost, count and least index, and its order key
// decoded against the oracle's least member.
func pairsMismatch(x *FrontierIndex, oracle []oraclePair) error {
	if len(x.pairs) != len(oracle) {
		return fmt.Errorf("%d pairs, enumeration has %d", len(x.pairs), len(oracle))
	}
	for si, sp := range x.spans {
		if si > 0 && !(x.spans[si-1].u < sp.u) {
			return fmt.Errorf("spans %d and %d out of capacity order", si-1, si)
		}
		for i := sp.start; i < sp.end; i++ {
			pr, want := x.pairs[i], oracle[i]
			if i > sp.start && !(x.pairs[i-1].cu < pr.cu) {
				return fmt.Errorf("pairs %d and %d out of unit-cost order", i-1, i)
			}
			if sp.u != want.u || pr.cu != want.cu || pr.count != want.count || pr.minIdx != want.minIdx {
				return fmt.Errorf("pair %d = (%v, %+v), enumeration has %+v", i, sp.u, pr, want)
			}
			if got := x.order.tuple(pr.key); got != want.least {
				return fmt.Errorf("pair %d's key %d names %v, enumeration's least member is %v", i, pr.key, got, want.least)
			}
		}
	}
	return nil
}

// requirePairsMatchEnumeration asserts that every field of every pair
// of x, eng's level-built index, equals the enumeration oracle's, and
// returns the oracle's pair table.
func requirePairsMatchEnumeration(t *testing.T, label string, eng *Engine, x *FrontierIndex) []oraclePair {
	t.Helper()
	if x == nil {
		t.Fatalf("%s: level build aborted", label)
	}
	oracle := enumeratedPairs(t, label, eng, x)
	if err := pairsMismatch(x, oracle); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	return oracle
}

// oracleIndex finishes the oracle's pair table into an index: the pair
// table with each least member's key, spans cut at every capacity change.
func oracleIndex(space *config.Space, oracle []oraclePair) *FrontierIndex {
	order := newTupleOrder(space)
	pairs := make([]idxPair, len(oracle))
	var spans []idxSpan
	for i, o := range oracle {
		pairs[i] = idxPair{cu: o.cu, count: o.count, minIdx: o.minIdx, key: order.key(o.least)}
		if i == 0 || o.u != oracle[i-1].u {
			spans = append(spans, idxSpan{u: o.u, start: i})
		}
		spans[len(spans)-1].end = i + 1
	}
	return finishIndex(pairs, spans, space)
}

// requireLevelBuildMatchesEnumeration asserts that x, eng's level-built
// index, equals the enumeration oracle's: every field of every pair,
// the finished index up to buildWall, and the snapshot payload up to
// its buildWall bytes.
func requireLevelBuildMatchesEnumeration(t *testing.T, label string, eng *Engine, x *FrontierIndex) {
	t.Helper()
	oracle := oracleIndex(eng.space, requirePairsMatchEnumeration(t, label, eng, x))
	// reflect.DeepEqual walks each element through reflection, which
	// under -race tripled this test's time, so the long tables compare
	// typed and DeepEqual takes the rest, any field added later included.
	built, want := *x, *oracle
	if !slices.Equal(built.pairs, want.pairs) || !slices.Equal(built.spans, want.spans) ||
		!slices.Equal(built.blocks, want.blocks) || !slices.Equal(built.entries, want.entries) {
		t.Fatalf("%s: pair, span or block tables differ from the enumeration's", label)
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

// TestIndexRecordSizes pins the layouts the index heap is made of: a
// pair is cu, count, minIdx and the order key, 32 bytes; a level-build
// state adds the capacity, 40 bytes.
func TestIndexRecordSizes(t *testing.T) {
	if n := unsafe.Sizeof(idxPair{}); n != 32 {
		t.Errorf("idxPair is %d bytes, want 32", n)
	}
	if n := unsafe.Sizeof(levelState{}); n != 40 {
		t.Errorf("levelState is %d bytes, want 40", n)
	}
}

// TestPaperPayloadLength pins the galaxy paper index's snapshot payload:
// the header with its nine limits, 12 bytes for each of 85,266 spans and
// 32 for each of 657,394 pairs.
func TestPaperPayloadLength(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-space build in -short mode")
	}
	x := paperIndex(galaxy.App{})
	if len(x.spans) != 85266 || len(x.pairs) != 657394 {
		t.Fatalf("galaxy index has %d spans and %d pairs, want 85266 and 657394", len(x.spans), len(x.pairs))
	}
	if got, want := len(x.EncodeBinary()), codecHeaderLen+9+85266*spanRecordLen+657394*pairRecordLen; got != want {
		t.Errorf("galaxy payload is %d bytes, want %d", got, want)
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
