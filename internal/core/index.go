// The demand-invariant frontier index. A configuration's predictions
// are
//
//	T = D/U               (Eq. 2)
//	C = billCost(T, c_u)  (Eq. 5/6, or its per-hour ceil variant)
//
// so for two configurations p, q with U_p ≥ U_q and c_u,p ≤ c_u,q,
// monotonicity of IEEE-754 correctly-rounded division gives
// fl(D/U_p) ≤ fl(D/U_q) for every demand D, and joint monotonicity of
// billCost in (T, c_u) — certified per policy by
// model.Billing.Indexable — carries that through to C_p ≤ C_q:
// domination in the (capacity ↑, unit cost ↓) plane implies
// floating-point (time, cost) domination for every query. The Pareto
// staircase of the distinct (U, c_u) pairs is therefore a
// demand-invariant candidate superset of every per-query frontier, and
// one scan of the space answers all of them. Crucially the argument
// never needs billCost to be linear: per-hour ceil billing flattens
// distinct times onto the same started-hour count but never reorders
// them (fl(T/3600), math.Ceil, the max(1, ·) clamp, and fl(c_u·h) are
// each monotone), so pairs the staircase drops as (u, cu)-dominated
// are (T, C)-dominated under per-hour billing too, for every demand.
// Pairs the staircase keeps — incomparable in the (u, cu) plane — are
// resolved per query by the same billing-aware billCost the scan uses,
// which is how hour-boundary reorderings between demands are handled
// exactly rather than precomputed away (see DESIGN.md §9). Billing
// policies not certified by Indexable are answered by the exhaustive
// scan.
package core

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/config"
	"repro/internal/model"
	"repro/internal/pareto"
	"repro/internal/units"
)

// maxIndexPairs caps the distinct (U, c_u) pair table. A catalog whose
// capacities and prices never collide would make the "index" as large
// as the space itself; past this cap the build aborts and every query
// is answered by the scan. The paper's catalog compresses 10,077,695
// configurations to 657,394 pairs (15×) and a 118-entry staircase.
// A variable only so the overflow path is testable without a
// multi-million-configuration catalog.
var maxIndexPairs = int64(4 << 20)

// idxPair aggregates every configuration sharing one exact
// (capacity, unit cost) value pair. Exact duplicates are common in real
// catalogs — within a family, k small nodes and k/2 double-size nodes
// produce bit-identical sums — so each pair carries everything the tie
// breaks need: the population count, the smallest configuration index
// (Stream2D keeps the first-inserted point on exact frontier ties, and
// the scan inserts in ascending index order), and the lessTupleFast-
// minimal member (the argmin queries break value ties lexicographically).
type idxPair struct {
	u       units.Rate
	cu      units.USDPerHour
	count   uint64
	minIdx  uint64
	lessMin config.Tuple
}

// idxSpan is one run of pairs sharing an exact capacity U, as
// [start, end) offsets into the (U asc, c_u asc)-sorted pair table.
// Within a span every pair predicts the same time, so feasibility and
// cost ordering reduce to a binary search on c_u.
type idxSpan struct {
	u          units.Rate
	start, end int
}

// stairStep is one staircase entry: the span's cheapest pair, kept only
// when its unit cost undercuts every higher-capacity span.
type stairStep struct {
	pairIdx    int
	start, end int // owning span bounds, for in-span tie resolution
}

// FrontierIndex is the precomputed demand-invariant view of one
// engine's configuration space. Build once with the engine's exact
// per-configuration arithmetic, then answer any query under an
// Indexable billing policy in O(|staircase| + spans·log) instead of
// O(S) model evaluations. Immutable after construction; safe for
// concurrent use.
type FrontierIndex struct {
	pairs []idxPair
	spans []idxSpan
	// prefix[i] is the configuration count of pairs[:i], so a
	// cost-feasible prefix of a span counts in O(1) after the search.
	prefix []uint64
	// spanLess[i] is the lessTupleFast-minimal member of pairs[start..i]
	// within i's span (running minimum, reset at each span start), and
	// spanMinIdx[i] the minimal configuration index over the same
	// prefix. Both resolve value ties, whose achievers are always a
	// cost-ordered prefix of one or more capacity spans: distinct exact
	// (U, c_u) pairs — typically ULP-apart accumulations of a
	// mathematically identical configuration family — can round to
	// bit-equal (time, cost) under a particular demand, and the scan
	// breaks such ties by configuration order, so the index must
	// aggregate over the whole rounding-collapse class, not just the
	// staircase pair that represents it.
	spanLess   []config.Tuple
	spanMinIdx []uint64
	// stair is the (capacity ↑, unit cost ↓) Pareto staircase in
	// descending-capacity order.
	stair     []stairStep
	total     uint64
	buildWall time.Duration
}

// IndexStats summarizes a built index for telemetry and logs.
type IndexStats struct {
	Pairs     int   // distinct exact (U, c_u) pairs
	Spans     int   // distinct exact capacities
	Staircase int   // demand-invariant frontier candidates
	BuildMS   int64 // wall-clock build time
}

// Stats reports the index's shape.
func (x *FrontierIndex) Stats() IndexStats {
	return IndexStats{
		Pairs:     len(x.pairs),
		Spans:     len(x.spans),
		Staircase: len(x.stair),
		BuildMS:   x.buildWall.Milliseconds(),
	}
}

// decTab holds the decimal rendering of every possible count byte so
// the tuple comparator never divides.
var decTab = func() (tab [256]struct {
	d [3]byte
	n uint8
}) {
	for c := 0; c < 256; c++ {
		e := &tab[c]
		switch {
		case c >= 100:
			e.d = [3]byte{byte('0' + c/100), byte('0' + c/10%10), byte('0' + c%10)}
			e.n = 3
		case c >= 10:
			e.d = [3]byte{byte('0' + c/10), byte('0' + c%10)}
			e.n = 2
		default:
			e.d = [3]byte{byte('0' + c)}
			e.n = 1
		}
	}
	return tab
}()

// lessDecimal orders two unequal count bytes the way their decimal
// renderings sort inside a tuple string. When one rendering is a proper
// prefix of the other, the next byte on the short side is that tuple's
// separator: ',' (below every digit) mid-tuple, ']' (above every digit)
// at the end — so 2 < 10 mid-tuple but 10 < 2 in the last position.
func lessDecimal(ca, cb uint8, lastA, lastB bool) bool {
	da, db := &decTab[ca], &decTab[cb]
	n := da.n
	if db.n < n {
		n = db.n
	}
	for k := uint8(0); k < n; k++ {
		if da.d[k] != db.d[k] {
			return da.d[k] < db.d[k]
		}
	}
	if da.n < db.n {
		return !lastA // a's ',' sorts below b's digit; its ']' above
	}
	return lastB // b's ',' sorts below a's digit; its ']' above
}

// lessTupleFast is the deterministic tie-break on equal objective
// values: a sorts before b exactly when a.String() < b.String() (the
// bracket notation's byte order), decided without building the strings.
// The scans call it on every value tie, the index build once per
// duplicate-pair configuration (~10M times on the paper space), and the
// snapshot decoder once per restored pair. The string order is its
// property-tested oracle (index_test.go).
func lessTupleFast(a, b config.Tuple) bool {
	ma, mb := a.Len(), b.Len()
	m := ma
	if mb < m {
		m = mb
	}
	for i := 0; i < m; i++ {
		if ca, cb := a.Count(i), b.Count(i); ca != cb {
			return lessDecimal(uint8(ca), uint8(cb), i == ma-1, i == mb-1)
		}
	}
	// The common prefix matches element-wise; the shorter tuple's ']'
	// sorts above the longer one's next ',', so the longer sorts first.
	return ma > mb
}

// buildFrontierIndex scans the whole space once, aggregating exact
// (U, c_u) pairs, and derives the span table, prefix counts, running
// tie-break minima, and the staircase. Returns nil when the pair table
// exceeds maxIndexPairs (the catalog does not compress).
func buildFrontierIndex(e *Engine) *FrontierIndex {
	start := time.Now()
	w, nodeCost := e.caps.NodeArrays()
	workers := runtime.GOMAXPROCS(0)

	type pairKey struct {
		u  units.Rate
		cu units.USDPerHour
	}
	shards := make([]map[pairKey]*idxPair, workers)
	for i := range shards {
		shards[i] = make(map[pairKey]*idxPair, 1<<12)
	}
	var distinct atomic.Int64
	var aborted atomic.Bool
	e.space.ForEachParallelIndexed(workers, func(worker int, k uint64, t config.Tuple) {
		if aborted.Load() {
			return
		}
		u, cu := accumulate(t, w, nodeCost)
		sh := shards[worker]
		key := pairKey{u, cu}
		if agg, ok := sh[key]; ok {
			agg.count++
			if lessTupleFast(t, agg.lessMin) {
				agg.lessMin = t
			}
			return
		}
		// Chunks walk ascending indices, so the first sighting in a
		// shard is that shard's minimal index for the pair.
		sh[key] = &idxPair{u: u, cu: cu, count: 1, minIdx: k, lessMin: t}
		if distinct.Add(1) > maxIndexPairs {
			aborted.Store(true)
		}
	})
	if aborted.Load() {
		return nil
	}

	merged := shards[0]
	for _, sh := range shards[1:] {
		for key, agg := range sh {
			if cur, ok := merged[key]; ok {
				cur.count += agg.count
				if agg.minIdx < cur.minIdx {
					cur.minIdx = agg.minIdx
				}
				if lessTupleFast(agg.lessMin, cur.lessMin) {
					cur.lessMin = agg.lessMin
				}
			} else {
				merged[key] = agg
			}
		}
	}
	pairs := make([]idxPair, 0, len(merged))
	// Map order is fine here: pairs are fully sorted below by their
	// unique (u, cu) key, so output order is total.
	for _, agg := range merged {
		pairs = append(pairs, *agg)
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].u != pairs[j].u {
			return pairs[i].u < pairs[j].u
		}
		return pairs[i].cu < pairs[j].cu
	})
	x := finishIndex(pairs, e.space.Size())
	x.buildWall = time.Since(start)
	return x
}

// finishIndex derives every secondary table — spans, prefix counts,
// running tie-break minima, and the staircase — from a (u asc, cu asc)-
// sorted pair table. Shared by the scan build above and the snapshot
// decoder (index_codec.go): both produce the derived state through this
// one code path, so a decoded index is structurally identical to the
// freshly built one it was encoded from.
func finishIndex(pairs []idxPair, total uint64) *FrontierIndex {
	x := &FrontierIndex{pairs: pairs, total: total}

	x.prefix = make([]uint64, len(x.pairs)+1)
	x.spanLess = make([]config.Tuple, len(x.pairs))
	x.spanMinIdx = make([]uint64, len(x.pairs))
	workers := runtime.GOMAXPROCS(0)
	if most := 1 + len(x.pairs)/parallelCodecMin; workers > most {
		workers = most
	}
	if workers == 1 {
		// One fused walk fills the prefix sums, the span table, and the
		// running tie-break minima, touching the pair table exactly
		// once; on snapshot restore this walk runs right after the
		// decoder's parse pass, so a second full traversal is
		// measurable.
		for i := 0; i < len(x.pairs); {
			run := x.pairs[i].lessMin
			runIdx := x.pairs[i].minIdx
			x.prefix[i+1] = x.prefix[i] + x.pairs[i].count
			x.spanLess[i] = run
			x.spanMinIdx[i] = runIdx
			j := i + 1
			//lint:allow floateq span grouping needs exact capacity identity: equal floats predict bit-equal times
			for ; j < len(x.pairs) && x.pairs[j].u == x.pairs[i].u; j++ {
				x.prefix[j+1] = x.prefix[j] + x.pairs[j].count
				if lessTupleFast(x.pairs[j].lessMin, run) {
					run = x.pairs[j].lessMin
				}
				if x.pairs[j].minIdx < runIdx {
					runIdx = x.pairs[j].minIdx
				}
				x.spanLess[j] = run
				x.spanMinIdx[j] = runIdx
			}
			x.spans = append(x.spans, idxSpan{u: x.pairs[i].u, start: i, end: j})
			i = j
		}
	} else {
		// Multi-core: a cheap serial pass finds the span boundaries and
		// prefix sums, then the running-minima fill — the expensive part
		// — proceeds per span in parallel. Spans are independent, so the
		// result is identical to the fused walk (property-tested in
		// index_test.go); keeping the derivation parallel matters
		// because the build it is measured against parallelizes too.
		for i := 0; i < len(x.pairs); {
			x.prefix[i+1] = x.prefix[i] + x.pairs[i].count
			j := i + 1
			//lint:allow floateq span grouping needs exact capacity identity: equal floats predict bit-equal times
			for ; j < len(x.pairs) && x.pairs[j].u == x.pairs[i].u; j++ {
				x.prefix[j+1] = x.prefix[j] + x.pairs[j].count
			}
			x.spans = append(x.spans, idxSpan{u: x.pairs[i].u, start: i, end: j})
			i = j
		}
		chunk := (len(x.spans) + workers - 1) / workers
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			lo, hi := w*chunk, (w+1)*chunk
			if hi > len(x.spans) {
				hi = len(x.spans)
			}
			if lo >= hi {
				break
			}
			wg.Add(1)
			go func(lo, hi int) {
				defer wg.Done()
				x.fillSpanMinima(lo, hi)
			}(lo, hi)
		}
		wg.Wait()
	}

	// Staircase: walk spans from the highest capacity down; a span's
	// cheapest pair survives only when it strictly undercuts every
	// higher-capacity span (otherwise some pair with no less capacity
	// and no more cost dominates the whole span).
	bestCu := units.USDPerHour(0)
	haveBest := false
	for si := len(x.spans) - 1; si >= 0; si-- {
		sp := x.spans[si]
		if cheapest := x.pairs[sp.start].cu; !haveBest || cheapest < bestCu {
			x.stair = append(x.stair, stairStep{pairIdx: sp.start, start: sp.start, end: sp.end})
			bestCu, haveBest = cheapest, true
		}
	}
	return x
}

// fillSpanMinima computes the running lessTupleFast / minimal-index minima
// for every pair inside spans [lo, hi); spans touch disjoint pair
// ranges, so concurrent calls over distinct span ranges never overlap.
func (x *FrontierIndex) fillSpanMinima(lo, hi int) {
	for si := lo; si < hi; si++ {
		sp := x.spans[si]
		run := x.pairs[sp.start].lessMin
		runIdx := x.pairs[sp.start].minIdx
		x.spanLess[sp.start] = run
		x.spanMinIdx[sp.start] = runIdx
		for k := sp.start + 1; k < sp.end; k++ {
			if lessTupleFast(x.pairs[k].lessMin, run) {
				run = x.pairs[k].lessMin
			}
			if x.pairs[k].minIdx < runIdx {
				runIdx = x.pairs[k].minIdx
			}
			x.spanLess[k] = run
			x.spanMinIdx[k] = runIdx
		}
	}
}

// spanRange returns the half-open range of span indices whose exact
// capacity predicts exactly T under demand d: predicted time is
// non-increasing in capacity (IEEE division is monotone), so the range
// is contiguous in the capacity-sorted span table. Distinct exact
// capacities ULP apart can round to the same T — the rounding-collapse
// class the scan's ties run over — so the range may hold several spans.
func (x *FrontierIndex) spanRange(d units.Instructions, T units.Seconds) (lo, hi int) {
	lo = sort.Search(len(x.spans), func(i int) bool {
		return units.Time(d, x.spans[i].u) <= T
	})
	hi = sort.Search(len(x.spans), func(i int) bool {
		return units.Time(d, x.spans[i].u) < T
	})
	return lo, hi
}

// census answers Analyze's aggregate questions from the index: the
// exact feasible count and the streaming frontier, both produced with
// the same float operations and the same insertion order as the scan.
func (x *FrontierIndex) census(e *Engine, d units.Instructions, cons Constraints) (uint64, []pareto.Point) {
	deadline, budget := cons.deadlineOrInf(), cons.budgetOrInf()

	// Predicted time is non-increasing in capacity (IEEE division is
	// monotone), so the time-feasible spans are a suffix of the
	// capacity-sorted span table; within a span cost is non-decreasing
	// in c_u, so the budget-feasible pairs are a prefix of the span.
	lo := sort.Search(len(x.spans), func(i int) bool {
		return units.Time(d, x.spans[i].u) < deadline
	})
	var feasible uint64
	for si := lo; si < len(x.spans); si++ {
		sp := x.spans[si]
		T := units.Time(d, sp.u)
		n := sp.end - sp.start
		b := sort.Search(n, func(i int) bool {
			return e.billCost(T, x.pairs[sp.start+i].cu) >= budget
		})
		feasible += x.prefix[sp.start+b] - x.prefix[sp.start]
	}

	// The staircase is a superset of every per-query frontier's
	// (time, cost) values (see the package comment's monotonicity
	// argument), so streaming it reproduces the scan's frontier values.
	var stream pareto.Stream2D
	for _, st := range x.stair {
		pr := &x.pairs[st.pairIdx]
		T := units.Time(d, pr.u)
		C := e.billCost(T, pr.cu)
		if T >= deadline || C >= budget {
			continue
		}
		//lint:allow unitsafe pareto.Point is the unit-agnostic frontier kernel; axes are re-typed on rebuild by the caller
		stream.Add(pareto.Point{X: float64(T), Y: float64(C), ID: pr.minIdx})
	}
	front := stream.Frontier()

	// The scan's frontier IDs are the minimal configuration index over
	// every configuration that rounds to exactly the point's (T, C) —
	// its Stream2D sees configurations in ascending-index order and
	// keeps the first on exact value ties — so each staircase
	// representative's ID is widened to its rounding-collapse class:
	// every span predicting exactly T, restricted to the pairs costing
	// exactly C. Those pairs are a prefix of each such span (cost is
	// non-decreasing in c_u, and a cheaper pair in an equal-T span would
	// have knocked the point off the frontier), so the precomputed
	// prefix minima answer each span in one search.
	for fi := range front {
		T, C := units.Seconds(front[fi].X), units.USD(front[fi].Y)
		lo, hi := x.spanRange(d, T)
		best := front[fi].ID
		for si := lo; si < hi; si++ {
			sp := x.spans[si]
			ub := sort.Search(sp.end-sp.start, func(i int) bool {
				return e.billCost(T, x.pairs[sp.start+i].cu) > C
			})
			if ub > 0 && x.spanMinIdx[sp.start+ub-1] < best {
				best = x.spanMinIdx[sp.start+ub-1]
			}
		}
		front[fi].ID = best
	}
	return feasible, front
}

// minSearch answers the argmin queries from the index with the scan's
// exact semantics: minimal objective under both constraints, ties
// broken by the lexicographically least tuple.
func (x *FrontierIndex) minSearch(e *Engine, d units.Instructions, cons Constraints, obj objective) (model.Prediction, bool) {
	deadline, budget := cons.deadlineOrInf(), cons.budgetOrInf()
	if obj == objectiveTime {
		// Minimal time = maximal capacity: walk the staircase from the
		// top. The first feasible step carries the optimal time — any
		// skipped pair with more capacity is dominated by an already-
		// rejected step whose time and cost it can only match or
		// exceed. The scan breaks time ties by the lexicographically
		// least tuple over every feasible achiever, so the winner is
		// gathered from the budget-feasible prefix of every span that
		// predicts exactly the winning time (the collapse class), not
		// just the step's own span.
		for _, st := range x.stair {
			pr := &x.pairs[st.pairIdx]
			T := units.Time(d, pr.u)
			C := e.billCost(T, pr.cu)
			if T >= deadline || C >= budget {
				continue
			}
			lo, hi := x.spanRange(d, T)
			var bestTuple config.Tuple
			have := false
			for si := lo; si < hi; si++ {
				sp := x.spans[si]
				b := sort.Search(sp.end-sp.start, func(i int) bool {
					return e.billCost(T, x.pairs[sp.start+i].cu) >= budget
				})
				if b == 0 {
					continue
				}
				if cand := x.spanLess[sp.start+b-1]; !have || lessTupleFast(cand, bestTuple) {
					bestTuple, have = cand, true
				}
			}
			return e.caps.PredictBilled(d, bestTuple, e.billing), true
		}
		return model.Prediction{}, false
	}
	// Minimal cost: the staircase holds the optimal value — every
	// time-feasible pair is weakly dominated by a time-feasible step
	// costing no more — but the scan's tie-break runs over every
	// achiever, so a second pass gathers the lexicographically least
	// tuple from the exact-cost prefix of every time-feasible span
	// (no time-feasible pair costs less than the optimum, so the
	// achievers are exactly each span's cost-ordered prefix at it).
	bestC := units.USD(0)
	found := false
	for _, st := range x.stair {
		pr := &x.pairs[st.pairIdx]
		T := units.Time(d, pr.u)
		C := e.billCost(T, pr.cu)
		if T >= deadline || C >= budget {
			continue
		}
		if !found || C < bestC {
			bestC, found = C, true
		}
	}
	if !found {
		return model.Prediction{}, false
	}
	lo := sort.Search(len(x.spans), func(i int) bool {
		return units.Time(d, x.spans[i].u) < deadline
	})
	var bestTuple config.Tuple
	have := false
	for si := lo; si < len(x.spans); si++ {
		sp := x.spans[si]
		T := units.Time(d, sp.u)
		ub := sort.Search(sp.end-sp.start, func(i int) bool {
			return e.billCost(T, x.pairs[sp.start+i].cu) > bestC
		})
		if ub == 0 {
			continue
		}
		if cand := x.spanLess[sp.start+ub-1]; !have || lessTupleFast(cand, bestTuple) {
			bestTuple, have = cand, true
		}
	}
	return e.caps.PredictBilled(d, bestTuple, e.billing), true
}

// Candidate is one staircase step of the demand-invariant frontier:
// an exact (capacity, unit cost) value pair together with a
// deterministic representative configuration (the lessTupleFast-
// minimal member of the step's cheapest pair). Under any Indexable billing
// policy every per-query optimum takes its (time, cost) values from
// some candidate, whatever the demand — the property the schedule
// solver builds on: one candidate table prices every timestep of a
// trace.
type Candidate struct {
	Config config.Tuple
	U      units.Rate
	Cu     units.USDPerHour
}

// Candidates returns the staircase in descending-capacity order. The
// slice is freshly allocated; the index itself stays immutable.
func (x *FrontierIndex) Candidates() []Candidate {
	out := make([]Candidate, len(x.stair))
	for i, st := range x.stair {
		pr := &x.pairs[st.pairIdx]
		out[i] = Candidate{Config: pr.lessMin, U: pr.u, Cu: pr.cu}
	}
	return out
}

// FrontierCandidates returns the staircase candidates of the engine's
// frontier index, building and publishing it first if needed (the same
// at-most-once build as Frontier). The (U, c_u) pair table and its
// staircase depend only on the catalog — billing enters at query-time
// pricing — so horizon solvers reuse one build whatever the engine
// bills. ok is false when the catalog does not compress under the pair
// cap.
func (e *Engine) FrontierCandidates() ([]Candidate, bool) {
	idx := e.ensureIndex()
	if idx == nil {
		return nil, false
	}
	return idx.Candidates(), true
}

// Frontier returns the engine's billing-independent frontier index,
// building and publishing it on first use: the lazy at-most-once build.
// Queries never build, so a caller about to issue many queries (a
// sweep, a MaxAccuracy bisection, a server's first request) calls this
// once to move them off the scan. The snapshot layer persists exactly
// this object. ok is false when the catalog does not compress under the
// pair cap.
func (e *Engine) Frontier() (*FrontierIndex, bool) {
	x := e.ensureIndex()
	return x, x != nil
}

// ensureIndex performs the lazy at-most-once build: the first caller
// builds under idxMu, later callers read the published pointer. An
// install (snapshot restore) that happened first counts as the build.
func (e *Engine) ensureIndex() *FrontierIndex {
	if e.idxTried.Load() {
		return e.idx.Load()
	}
	e.idxMu.Lock()
	defer e.idxMu.Unlock()
	if e.idxTried.Load() {
		return e.idx.Load()
	}
	// The build's worker join runs under idxMu on purpose: the lock is
	// exactly what makes the build at-most-once, the fan-out is a static
	// chunking over GOMAXPROCS workers that touches no other locks, and
	// every later caller takes the fast path above without locking.
	//lint:allow lockdisciplineip deliberate build-under-lock: bounded internal worker join, no other locks involved
	x := buildFrontierIndex(e)
	if x != nil {
		e.idx.Store(x)
	}
	e.idxTried.Store(true)
	return x
}

// InstallIndex atomically publishes a prebuilt index — typically one
// decoded from an on-disk snapshot — as this engine's frontier index.
// In-flight queries keep the pointer they already loaded; new queries
// under a certified billing policy answer from the installed index
// immediately. The index must cover exactly this engine's configuration
// space; callers are responsible for matching the catalog itself
// (internal/snapshot pins it with a fingerprint).
func (e *Engine) InstallIndex(x *FrontierIndex) error {
	if x == nil {
		return fmt.Errorf("core: install of nil index")
	}
	if x.total != e.space.Size() {
		return fmt.Errorf("core: index covers %d configurations, space has %d", x.total, e.space.Size())
	}
	e.idxMu.Lock()
	defer e.idxMu.Unlock()
	e.idx.Store(x)
	e.idxTried.Store(true)
	return nil
}

// RebuildIndex rebuilds the frontier index from the engine's current
// catalog and atomically swaps it in, leaving the previously published
// index serving until the very last store — queries never observe a
// half-built index. A panic inside the build is contained and returned
// as an error with the old index (if any) still in place, so a
// background rebuild can never take the serving path down. Returns the
// new index's stats on success.
func (e *Engine) RebuildIndex() (st IndexStats, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("core: index rebuild panic: %v", r)
		}
	}()
	x := buildFrontierIndex(e)
	if x == nil {
		e.idxTried.Store(true)
		return IndexStats{}, fmt.Errorf("core: catalog did not compress under the pair cap")
	}
	e.idxMu.Lock()
	e.idx.Store(x)
	e.idxTried.Store(true)
	e.idxMu.Unlock()
	return x.Stats(), nil
}

// indexFor returns the published index when this query may be answered
// from it: the billing policy is certified index-monotone
// (model.Billing.Indexable — per-second and per-hour both are) and an
// index has been built, rebuilt, or installed. It never builds one.
func (e *Engine) indexFor() *FrontierIndex {
	if !e.billing.Indexable() {
		return nil
	}
	return e.idx.Load()
}

// FrontierBuilt reports whether a frontier index is published (built,
// rebuilt, or installed), without triggering a build. Queries answer
// from it exactly when this holds and the billing policy is certified
// (model.Billing.Indexable); a horizon solve uses it whatever the
// billing.
func (e *Engine) FrontierBuilt() bool { return e.idx.Load() != nil }

// IndexBypass reports why analytic queries on this engine are (or would
// be) answered by the exhaustive scan instead of the frontier index,
// without triggering a build. cause is the wire label: "billing" when
// the billing policy is not certified index-monotone
// (model.Billing.Indexable; per-second and per-hour both are), or
// "pair-cap" when the catalog did not compress under maxIndexPairs and
// the build aborted. reason is the operator-facing explanation. Both
// are "" when the index serves, or will once published.
func (e *Engine) IndexBypass() (cause, reason string) {
	switch {
	case !e.billing.Indexable():
		return "billing", fmt.Sprintf("billing policy %s is not certified index-monotone; every query falls back to the exhaustive scan", e.billing)
	case e.idxTried.Load() && e.idx.Load() == nil:
		return "pair-cap", "catalog did not compress under the pair cap; queries fall back to the exhaustive scan"
	}
	return "", ""
}
