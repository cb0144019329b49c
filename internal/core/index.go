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
// cost ordering reduce to a walk up c_u from the span's start.
type idxSpan struct {
	u          units.Rate
	start, end int
}

// blockSpans caps the spans in one block, and blockGrowth closes a
// block before a span whose capacity exceeds the block's first by more
// than 0.3%. A census pays one binary search per block and an exact
// walk of each span the block's corners leave open, and the corners
// spread with the block's capacity range, so the caps trade block count
// against open spans. On the paper catalogs the growth cut sets every
// block (839 per catalog, of 1 to 381 spans); the span cap bounds
// blocks on denser catalogs. Over 2,000 fresh-mix-shaped queries per
// paper engine and billing, a census plus a min-cost tie pass averaged
// ~97 µs at 0.3%, 89–108 µs at 1%, 115–150 µs at 0.1% and ~290 µs at
// 0.03%, and moving the span cap between 256 and 1,024 changed it by
// under 10% (2-vCPU host). blockSpans is a variable only so tests can
// force tiny blocks.
var blockSpans = 512

const blockGrowth = 1.003

// blockEntry is one span of a block, placed in the block's (hi, span)
// order. hi and lo are the unit costs of the span's dearest and
// cheapest pairs, sufLo is the least lo from this entry to the block's
// end, and cum counts the configurations of the block's entries up to
// and including this one.
type blockEntry struct {
	span   int
	hi, lo units.USDPerHour
	sufLo  units.USDPerHour
	cum    uint64
}

// FrontierIndex is the precomputed demand-invariant view of one
// engine's configuration space. Built once per catalog from model.Sums'
// own per-type step (buildPairs), it answers any query under an
// Indexable billing policy by walking the staircase and deciding whole
// blocks of spans at their corners: O(|staircase| + blocks·log), plus
// an exact walk of the few spans a block's corners leave open, instead
// of a scan of all S configurations. Immutable after construction; safe
// for concurrent use.
type FrontierIndex struct {
	pairs []idxPair
	spans []idxSpan
	// blocks[b] is the first span of block b, a run of consecutive
	// spans, and the last element is len(spans). entries holds every
	// block's spans in the block's own (hi, span) order, at the block's
	// span positions: block b's are entries[blocks[b]:blocks[b+1]].
	// Every span of a block predicts a time between the block's corners,
	// the times of its first and last spans, so each pair of a span costs
	// between Bill(last time, lo) and Bill(first time, hi) (see census).
	blocks  []int
	entries []blockEntry
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
// level (buildPairs) and derives the span table, the block table and
// the staircase. Returns nil when the pair table exceeds maxIndexPairs
// (the catalog does not compress).
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
	// The last merge sized its output for every shifted state; an
	// exact-length copy drops that dead capacity for the index's life.
	pairs := make([]idxPair, len(level)-1)
	copy(pairs, level[1:])
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

// finishIndex derives every secondary table — spans, blocks and the
// staircase — from a (u asc, cu asc)-sorted pair table. Shared by the
// level build above and the snapshot decoder (index_codec.go): both
// produce the derived state through this one code path, so a decoded
// index is structurally identical to the freshly built one it was
// encoded from.
func finishIndex(pairs []idxPair, total uint64) *FrontierIndex {
	x := &FrontierIndex{pairs: pairs, total: total}

	// One pass per chunk of about equal pair count derives the chunk's
	// spans. Each chunk boundary moves forward to the next span start, so
	// no span straddles two chunks and the result does not depend on the
	// chunk count (property-tested in index_test.go). A restore pays this
	// pass like the build does, so it runs on every core.
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
			spans[w] = x.spanChunk(bounds[w], bounds[w+1])
		}
	})
	x.spans = slices.Concat(spans...)

	// Blocks are cut in one serial pass over the spans, so they too do
	// not depend on the chunk count; each block's entries then derive on
	// their own, on every core.
	x.blocks = blockRuns(x.spans)
	x.entries = make([]blockEntry, len(x.spans))
	forChunks(len(x.blocks)-1, workers, func(_, lo, hi int) {
		for b := lo; b < hi; b++ {
			x.deriveBlock(x.blocks[b], x.blocks[b+1])
		}
	})

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

// spanChunk returns the spans of pairs[lo:hi], which starts at a span
// start and ends at a span end.
func (x *FrontierIndex) spanChunk(lo, hi int) []idxSpan {
	var spans []idxSpan
	for i := lo; i < hi; {
		j := i
		//lint:allow floateq span grouping needs exact capacity identity: equal floats predict bit-equal times
		for j < hi && x.pairs[j].u == x.pairs[i].u {
			j++
		}
		spans = append(spans, idxSpan{u: x.pairs[i].u, start: i, end: j})
		i = j
	}
	return spans
}

// blockRuns cuts the capacity-sorted spans into blocks and returns each
// block's first span, then len(spans): a block closes after blockSpans
// spans, or before a span whose capacity exceeds the block's first by
// more than blockGrowth.
func blockRuns(spans []idxSpan) []int {
	blocks := []int{}
	for si := range spans {
		if n := len(blocks); n == 0 || si-blocks[n-1] == blockSpans ||
			spans[si].u > spans[blocks[n-1]].u*blockGrowth {
			blocks = append(blocks, si)
		}
	}
	return append(blocks, len(spans))
}

// deriveBlock fills the entries of the block of spans [lo, hi): one per
// span, sorted by (hi, span), with the running count and the suffix
// minimum of lo. Blocks touch disjoint ranges, so concurrent calls over
// distinct blocks never overlap.
func (x *FrontierIndex) deriveBlock(lo, hi int) {
	blk := x.entries[lo:hi]
	for k := range blk {
		// cum holds the span's own count until the sort has placed it.
		sp := x.spans[lo+k]
		var n uint64
		for i := sp.start; i < sp.end; i++ {
			n += x.pairs[i].count
		}
		blk[k] = blockEntry{span: lo + k, hi: x.pairs[sp.end-1].cu, lo: x.pairs[sp.start].cu, cum: n}
	}
	slices.SortFunc(blk, func(a, b blockEntry) int {
		switch {
		case a.hi < b.hi:
			return -1
		case a.hi > b.hi:
			return 1
		}
		return a.span - b.span
	})
	for k := 1; k < len(blk); k++ {
		blk[k].cum += blk[k-1].cum
	}
	for k := len(blk) - 1; k >= 0; k-- {
		blk[k].sufLo = blk[k].lo
		if k+1 < len(blk) {
			blk[k].sufLo = min(blk[k].sufLo, blk[k+1].sufLo)
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

// timeCut splits the time-feasible spans, a suffix of the capacity-
// sorted span table (predicted time is non-increasing in capacity, as
// IEEE division is monotone), at the first block they wholly contain:
// spans [lo, x.blocks[b]) are the tail of the block the deadline cuts,
// and blocks b onward are time-feasible throughout.
func (x *FrontierIndex) timeCut(d units.Instructions, deadline units.Seconds) (lo, b int) {
	lo = sort.Search(len(x.spans), func(i int) bool {
		return units.Time(d, x.spans[i].u) < deadline
	})
	b = sort.Search(len(x.blocks)-1, func(b int) bool { return x.blocks[b] >= lo })
	return lo, b
}

// block returns block b's corner times — ta of its first (slowest) span,
// tb of its last (fastest) — and its entries. Every span of the block
// predicts a time in [tb, ta], and model.Bill is jointly monotone in
// (T, c_u) as computed floats under every Indexable policy, so every
// pair of an entry costs at least Bill(tb, lo) and at most Bill(ta, hi).
func (x *FrontierIndex) block(d units.Instructions, b int) (ta, tb units.Seconds, blk []blockEntry) {
	lo, hi := x.blocks[b], x.blocks[b+1]
	return units.Time(d, x.spans[lo].u), units.Time(d, x.spans[hi-1].u), x.entries[lo:hi]
}

// countBelow counts the configurations of span si that cost less than
// budget at the span's own time: a prefix of its cost-ordered pairs.
func (x *FrontierIndex) countBelow(e *Engine, d units.Instructions, si int, budget units.USD) uint64 {
	sp := x.spans[si]
	T := units.Time(d, sp.u)
	var n uint64
	for i := sp.start; i < sp.end && model.Bill(T, x.pairs[i].cu, e.billing) < budget; i++ {
		n += x.pairs[i].count
	}
	return n
}

// census answers Analyze's aggregate questions from the index: the
// exact feasible count and the streaming frontier, both produced with
// the same float operations and the same insertion order as the scan.
func (x *FrontierIndex) census(e *Engine, d units.Instructions, cons Constraints) (uint64, []pareto.Point) {
	deadline, budget := cons.deadlineOrInf(), cons.budgetOrInf()

	// Within a span cost is non-decreasing in c_u, so the budget-feasible
	// pairs are a prefix of the span. The block the deadline cuts is
	// counted span by span; every later block is time-feasible, and its
	// corners decide most of its spans at once. Entries are in hi order,
	// so those billed below budget at ta form a prefix, and each of their
	// pairs is feasible; from there on the walk stops where even the
	// cheapest remaining pair at tb reaches the budget, skips each span
	// whose own cheapest pair does, and counts the rest exactly.
	lo, b0 := x.timeCut(d, deadline)
	var feasible uint64
	for si := lo; si < x.blocks[b0]; si++ {
		feasible += x.countBelow(e, d, si, budget)
	}
	for b := b0; b+1 < len(x.blocks); b++ {
		ta, tb, blk := x.block(d, b)
		k := sort.Search(len(blk), func(i int) bool {
			return model.Bill(ta, blk[i].hi, e.billing) >= budget
		})
		if k > 0 {
			feasible += blk[k-1].cum
		}
		for ; k < len(blk) && model.Bill(tb, blk[k].sufLo, e.billing) < budget; k++ {
			if model.Bill(tb, blk[k].lo, e.billing) < budget {
				feasible += x.countBelow(e, d, blk[k].span, budget)
			}
		}
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
	// have knocked the point off the frontier), so each span's walk
	// stops at its first pair costing more.
	for fi := range front {
		T, C := units.Seconds(front[fi].X), units.USD(front[fi].Y)
		lo, hi := x.spanRange(d, T)
		best := front[fi].ID
		for si := lo; si < hi; si++ {
			sp := x.spans[si]
			for i := sp.start; i < sp.end && model.Bill(T, x.pairs[i].cu, e.billing) <= C; i++ {
				best = min(best, x.pairs[i].minIdx)
			}
		}
		front[fi].ID = best
	}
	return feasible, front
}

// leastTuple is a running lessTupleFast minimum over the argmin's
// achievers.
type leastTuple struct {
	t    config.Tuple
	have bool
}

func (m *leastTuple) take(t config.Tuple) {
	if !m.have || lessTupleFast(t, m.t) {
		m.t, m.have = t, true
	}
}

// takeAtMost folds into m the lessTupleFast-minimal members of span
// si's pairs billed at most limit at the span's own time: a prefix of
// its cost-ordered pairs.
func (m *leastTuple) takeAtMost(x *FrontierIndex, e *Engine, d units.Instructions, si int, limit units.USD) {
	sp := x.spans[si]
	T := units.Time(d, sp.u)
	for i := sp.start; i < sp.end && model.Bill(T, x.pairs[i].cu, e.billing) <= limit; i++ {
		m.take(x.pairs[i].lessMin)
	}
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
			var best leastTuple
			for si := lo; si < hi; si++ {
				sp := x.spans[si]
				for i := sp.start; i < sp.end && model.Bill(T, x.pairs[i].cu, e.billing) < budget; i++ {
					best.take(x.pairs[i].lessMin)
				}
			}
			return e.caps.PredictBilled(d, best.t, e.billing), true
		}
		return model.Prediction{}, false
	}
	// Minimal cost: the staircase holds the optimal value — every
	// time-feasible pair is weakly dominated by a time-feasible step
	// costing no more — but the scan's tie-break runs over every
	// achiever, so a second pass gathers the lexicographically least
	// tuple from the pairs costing exactly the optimum in every
	// time-feasible span. No time-feasible pair costs less, so those are
	// the pairs costing at most bestC.
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
	// The block the deadline cuts is walked span by span. In a wholly
	// time-feasible block no span has every pair below bestC, so the
	// walk starts at the block's first entry; it stops where the cheapest
	// remaining pair at tb costs more than bestC and skips each span whose
	// own cheapest pair does.
	lo, b0 := x.timeCut(d, deadline)
	var best leastTuple
	for si := lo; si < x.blocks[b0]; si++ {
		best.takeAtMost(x, e, d, si, bestC)
	}
	for b := b0; b+1 < len(x.blocks); b++ {
		_, tb, blk := x.block(d, b)
		for k := 0; k < len(blk) && model.Bill(tb, blk[k].sufLo, e.billing) <= bestC; k++ {
			if model.Bill(tb, blk[k].lo, e.billing) <= bestC {
				best.takeAtMost(x, e, d, blk[k].span, bestC)
			}
		}
	}
	return e.caps.PredictBilled(d, best.t, e.billing), true
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

// ensureIndex performs the at-most-once build behind Frontier,
// FrontierCandidates and RebuildIndex: the first caller builds under
// idxMu, later callers read the published pointer. An install (snapshot
// restore) that happened first counts as the build.
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

// RebuildIndex publishes the engine's frontier index through the same
// at-most-once build as Frontier and returns its stats: when an index
// is already published (built, installed, or published by a concurrent
// caller) it is kept and its stats are returned. A panic inside the
// build is contained and returned as an error, so a background rebuild
// can never take the serving path down.
func (e *Engine) RebuildIndex() (st IndexStats, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("core: index rebuild panic: %v", r)
		}
	}()
	x := e.ensureIndex()
	if x == nil {
		return IndexStats{}, fmt.Errorf("core: catalog did not compress under the pair cap")
	}
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
