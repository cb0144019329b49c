// The demand-invariant frontier index. A configuration's predictions
// are
//
//	T = D/U                   (Eq. 2)
//	C = model.Bill(T, c_u, b) (Eq. 5/6, or its per-hour ceil variant)
//
// so for two configurations p, q with U_p ≥ U_q and c_u,p ≤ c_u,q,
// monotonicity of IEEE-754 correctly-rounded division gives
// fl(D/U_p) ≤ fl(D/U_q) for every demand D, and joint monotonicity of
// model.Bill in (T, c_u) — certified per policy by
// model.Billing.Indexable — carries that through to C_p ≤ C_q:
// domination in the (capacity ↑, unit cost ↓) plane implies
// floating-point (time, cost) domination for every query. The Pareto
// staircase of the distinct (U, c_u) pairs is therefore a
// demand-invariant candidate superset of every per-query frontier, and
// one build answers all of them. Crucially the argument never needs
// model.Bill to be linear: per-hour ceil billing flattens distinct
// times onto the same started-hour count but never reorders them
// (fl(T/3600), math.Ceil, the max(1, ·) clamp, and fl(c_u·h) are
// each monotone), so pairs the staircase drops as (u, cu)-dominated
// are (T, C)-dominated under per-hour billing too, for every demand.
// Pairs the staircase keeps — incomparable in the (u, cu) plane — are
// resolved per query by the same billing-aware model.Bill the scan uses,
// which is how hour-boundary reorderings between demands are handled
// exactly rather than precomputed away (see DESIGN.md §9). Billing
// policies not certified by Indexable are answered by the exhaustive
// scan.
package core

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
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
// The build decides on the exact distinct count and gives up at the
// first level that passes the cap (buildPairs).
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

// FrontierIndex is the precomputed demand-invariant view of one
// engine's configuration space. Built once per catalog from model.Sums'
// own per-type step (buildPairs), it answers any query under an
// Indexable billing policy in O(|staircase| + spans·log) instead of a
// scan of all S configurations. Immutable after construction; safe for
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
	// descending-capacity order, as pair indexes: each step is a span's
	// cheapest pair, kept only when its unit cost undercuts every
	// higher-capacity span.
	stair     []int
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
// at the end — so 1 < 10 mid-tuple but 10 < 1 in the last position.
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
// The scans call it on every value tie, the index build once per state
// it merges into another, and finishIndex once per pair. The string
// order is its property-tested oracle (index_test.go).
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

// buildFrontierIndex builds the exact (U, c_u) pair table level by
// level (buildPairs) and derives the span table, prefix counts, running
// tie-break minima, and the staircase. Returns nil when the pair table
// exceeds maxIndexPairs (the catalog does not compress).
func buildFrontierIndex(e *Engine) *FrontierIndex {
	start := time.Now()
	pairs := buildPairs(e)
	if pairs == nil {
		return nil
	}
	x := finishIndex(pairs, e.space.Size())
	x.buildWall = time.Since(start)
	return x
}

// buildPairs computes the (u asc, cu asc) pair table without evaluating
// every configuration. model.Sums adds each type's contribution in
// catalog order (model.AddNodes), so the partial sums over the first k
// types depend only on those k counts, and two configurations that
// share a level-k state (u, cu) and their remaining counts share their
// final pair. Level k+1 is therefore level k extended by every count of
// type k, deduplicated again, and the last level is the pair table.
//
// The tie metadata composes. Counts add. The configuration index is
// linear in the counts, so a state's minIdx (kept as the mixed-radix
// value Σ m_i·radix_i during the build, one more than the index) is the
// minimum over its members plus the extension's term. Members are kept
// as full-arity tuples, zero past the level; two completions with one
// suffix first differ inside the prefix, at a position a ',' follows,
// where lessTupleFast orders the zero-padded tuples as it orders the
// completions.
//
// The empty configuration is the (0, 0) state, alone there at every
// level (capacities and prices are positive), and is dropped at the
// end. Every other level-k state is itself a final pair (zero nodes of
// the later types), so a level past maxIndexPairs + 1 states aborts the
// build on the exact distinct count. Returns nil on abort.
func buildPairs(e *Engine) []idxPair {
	w, nodeCost := e.caps.NodeArrays()
	limit := maxIndexPairs + 1 // the empty state rides along
	// The empty configuration; NewSpace bounds the arity, so no error.
	zero, _ := config.TupleFromBytes(make([]byte, e.space.Types()))
	level := []idxPair{{count: 1, lessMin: zero}}
	radix := uint64(1)
	for k := 0; k < e.space.Types(); k++ {
		if m := e.space.Max(k); m > 0 {
			level = extendLevel(level, levelStep{k: k, maxNodes: m, w: w[k], c: nodeCost[k], radix: radix}, limit)
			if level == nil {
				return nil
			}
		}
		radix *= uint64(e.space.Max(k) + 1)
	}
	pairs := level[1:]
	for i := range pairs {
		pairs[i].minIdx-- // mixed-radix value → AtIndex's index
	}
	return pairs
}

// levelStep is one catalog type's extension of a level: counts 0 to
// maxNodes of type k, of per-node capacity w and cost c, each adding
// m·radix to the mixed-radix value.
type levelStep struct {
	k, maxNodes int
	w           units.Rate
	c           units.USDPerHour
	radix       uint64
}

// key is the level-k state at in[i] extended by m nodes of the step's
// type: model.AddNodes, the very step model.Sums takes.
func (s levelStep) key(in []idxPair, i, m int) (units.Rate, units.USDPerHour) {
	return model.AddNodes(in[i].u, in[i].cu, m, s.w, s.c)
}

// extendLevel returns the deduplicated, (u asc, cu asc)-sorted level
// after in, or nil once it holds more than limit states. The copy of in
// shifted by m nodes is sorted by u, since fl(x + a) is monotone in x,
// so the maxNodes+1 copies merge in u order through a heap (O(log
// copies) per state), and each finished equal-u run goes through
// finishRun.
func extendLevel(in []idxPair, s levelStep, limit int64) []idxPair {
	h := make(mergeHeap, 0, s.maxNodes+1)
	for m := 0; m <= s.maxNodes; m++ {
		u, cu := s.key(in, 0, m)
		h = append(h, mergeHead{u: u, cu: cu, m: m})
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
	out := make([]idxPair, 0, min(int64(len(in)*len(h)), limit+1))
	runStart := 0
	for len(h) > 0 {
		hd := &h[0]
		src := &in[hd.i]
		st := idxPair{u: hd.u, cu: hd.cu, count: src.count, minIdx: src.minIdx + uint64(hd.m)*s.radix, lessMin: src.lessMin.WithCount(s.k, uint8(hd.m))}
		if hd.i++; hd.i < len(in) {
			hd.u, hd.cu = s.key(in, hd.i, hd.m)
		} else {
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
		}
		h.down(0)

		//lint:allow floateq a run is keyed by exact capacity identity: equal floats are one run
		if len(out) > runStart && st.u != out[runStart].u {
			if out = finishRun(out, runStart); int64(len(out)) > limit {
				return nil
			}
			runStart = len(out)
		}
		out = append(out, st)
	}
	if out = finishRun(out, runStart); int64(len(out)) > limit {
		return nil
	}
	return out
}

// mergeHead is one shifted copy's cursor in extendLevel's merge: the
// key of the copy's next state in[i].
type mergeHead struct {
	u    units.Rate
	cu   units.USDPerHour
	i, m int
}

func headLess(a, b *mergeHead) bool {
	//lint:allow floateq the merge is keyed by exact float identity: equal capacities order by unit cost
	return a.u < b.u || (a.u == b.u && a.cu < b.cu)
}

// mergeHeap is a binary min-heap of cursors.
type mergeHeap []mergeHead

func (h mergeHeap) down(i int) {
	for {
		j := 2*i + 1
		if j >= len(h) {
			return
		}
		if r := j + 1; r < len(h) && headLess(&h[r], &h[j]) {
			j = r
		}
		if !headLess(&h[j], &h[i]) {
			return
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
}

// finishRun puts the equal-u run out[start:] in cu order and aggregates
// equal keys. The heap pops each copy's states in (u, cu) order, so the
// run is sorted unless distinct input capacities rounded to one sum:
// then one copy's cu order can break, and the run is sorted by cu.
func finishRun(out []idxPair, start int) []idxPair {
	run := out[start:]
	if len(run) < 2 {
		return out
	}
	for i := 1; i < len(run); i++ {
		if run[i].cu < run[i-1].cu {
			slices.SortFunc(run, func(a, b idxPair) int { return cmp.Compare(a.cu, b.cu) })
			break
		}
	}
	w := 0
	for i := 1; i < len(run); i++ {
		//lint:allow floateq aggregation is keyed by exact float identity: equal floats are one pair
		if run[i].cu == run[w].cu {
			run[w].absorb(&run[i])
			continue
		}
		w++
		run[w] = run[i]
	}
	return out[:start+w+1]
}

// absorb aggregates q's configurations into p, which holds the same
// (u, cu) key.
func (p *idxPair) absorb(q *idxPair) {
	p.count += q.count
	if q.minIdx < p.minIdx {
		p.minIdx = q.minIdx
	}
	if lessTupleFast(q.lessMin, p.lessMin) {
		p.lessMin = q.lessMin
	}
}

// finishIndex derives every secondary table — spans, prefix counts,
// running tie-break minima, and the staircase — from a (u asc, cu asc)-
// sorted pair table. Shared by the level build above and the snapshot
// decoder (index_codec.go): both produce the derived state through this
// one code path, so a decoded index is structurally identical to the
// freshly built one it was encoded from.
func finishIndex(pairs []idxPair, total uint64) *FrontierIndex {
	x := &FrontierIndex{pairs: pairs, total: total}

	// One pass per chunk of about equal pair count derives the chunk's
	// spans, prefix counts (relative to the chunk) and running minima.
	// Each chunk boundary moves forward to the next span start, so no
	// span straddles two chunks and the result does not depend on the
	// chunk count (property-tested in index_test.go). A restore pays this
	// pass like the build does, so it runs on every core.
	x.prefix = make([]uint64, len(x.pairs)+1)
	x.spanLess = make([]config.Tuple, len(x.pairs))
	x.spanMinIdx = make([]uint64, len(x.pairs))
	workers := chunkWorkers(len(x.pairs))
	bounds := make([]int, workers+1)
	for w := 1; w < workers; w++ {
		b := max(w*len(x.pairs)/workers, bounds[w-1])
		//lint:allow floateq span grouping needs exact capacity identity: equal floats predict bit-equal times
		for b > 0 && b < len(x.pairs) && x.pairs[b].u == x.pairs[b-1].u {
			b++
		}
		bounds[w] = b
	}
	bounds[workers] = len(x.pairs)
	spans := make([][]idxSpan, workers)
	forChunks(workers, workers, func(_, lo, hi int) {
		for w := lo; w < hi; w++ {
			spans[w] = x.deriveChunk(bounds[w], bounds[w+1])
		}
	})
	for w := 1; w < workers; w++ {
		off := x.prefix[bounds[w]]
		for i := bounds[w] + 1; i <= bounds[w+1]; i++ {
			x.prefix[i] += off
		}
	}
	x.spans = slices.Concat(spans...)

	// Staircase: walk spans from the highest capacity down; a span's
	// cheapest pair survives only when it strictly undercuts every
	// higher-capacity span (otherwise some pair with no less capacity
	// and no more cost dominates the whole span).
	bestCu := units.USDPerHour(0)
	haveBest := false
	for si := len(x.spans) - 1; si >= 0; si-- {
		sp := x.spans[si]
		if cheapest := x.pairs[sp.start].cu; !haveBest || cheapest < bestCu {
			x.stair = append(x.stair, sp.start)
			bestCu, haveBest = cheapest, true
		}
	}
	return x
}

// deriveChunk fills prefix (counting from lo), spanLess and spanMinIdx
// for pairs[lo:hi], which starts at a span start and ends at a span end,
// and returns the chunk's spans. Chunks touch disjoint ranges, so
// concurrent calls over distinct chunks never overlap.
func (x *FrontierIndex) deriveChunk(lo, hi int) []idxSpan {
	var spans []idxSpan
	var sum uint64
	for i := lo; i < hi; {
		run, runIdx := x.pairs[i].lessMin, x.pairs[i].minIdx
		j := i
		//lint:allow floateq span grouping needs exact capacity identity: equal floats predict bit-equal times
		for ; j < hi && x.pairs[j].u == x.pairs[i].u; j++ {
			pr := &x.pairs[j]
			if lessTupleFast(pr.lessMin, run) {
				run = pr.lessMin
			}
			if pr.minIdx < runIdx {
				runIdx = pr.minIdx
			}
			x.spanLess[j], x.spanMinIdx[j] = run, runIdx
			sum += pr.count
			x.prefix[j+1] = sum
		}
		spans = append(spans, idxSpan{u: x.pairs[i].u, start: i, end: j})
		i = j
	}
	return spans
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
			return model.Bill(T, x.pairs[sp.start+i].cu, e.billing) >= budget
		})
		feasible += x.prefix[sp.start+b] - x.prefix[sp.start]
	}

	// The staircase is a superset of every per-query frontier's
	// (time, cost) values (see the package comment's monotonicity
	// argument), so streaming it reproduces the scan's frontier values.
	var stream pareto.Stream2D
	for _, pi := range x.stair {
		pr := &x.pairs[pi]
		T := units.Time(d, pr.u)
		C := model.Bill(T, pr.cu, e.billing)
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
				return model.Bill(T, x.pairs[sp.start+i].cu, e.billing) > C
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
		for _, pi := range x.stair {
			pr := &x.pairs[pi]
			T := units.Time(d, pr.u)
			C := model.Bill(T, pr.cu, e.billing)
			if T >= deadline || C >= budget {
				continue
			}
			lo, hi := x.spanRange(d, T)
			var bestTuple config.Tuple
			have := false
			for si := lo; si < hi; si++ {
				sp := x.spans[si]
				b := sort.Search(sp.end-sp.start, func(i int) bool {
					return model.Bill(T, x.pairs[sp.start+i].cu, e.billing) >= budget
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
	for _, pi := range x.stair {
		pr := &x.pairs[pi]
		T := units.Time(d, pr.u)
		C := model.Bill(T, pr.cu, e.billing)
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
			return model.Bill(T, x.pairs[sp.start+i].cu, e.billing) > bestC
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
	for i, pi := range x.stair {
		pr := &x.pairs[pi]
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
	// exactly what makes the build at-most-once, finishIndex fans out to
	// at most GOMAXPROCS derivation workers that touch no other locks,
	// and every later caller takes the fast path above without locking.
	//lint:allow lockdiscipline deliberate build-under-lock: one bounded derivation worker join, no other locks involved
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
