package core

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"repro/internal/apps/galaxy"
	"repro/internal/apps/sand"
	"repro/internal/apps/x264"
	"repro/internal/config"
	"repro/internal/detrand"
	"repro/internal/model"
	"repro/internal/units"
	"repro/internal/workload"
)

// withBlockSpans forces blocks of at most n spans on every index the
// test builds or decodes, restoring the default when it ends.
func withBlockSpans(t *testing.T, n int) {
	t.Helper()
	old := blockSpans
	blockSpans = n
	t.Cleanup(func() { blockSpans = old })
}

// forBlockSizes runs body at the default block cap and with blocks
// forced to one and to three spans, where small catalogs would
// otherwise sit in a few blocks and never cut one mid-walk.
func forBlockSizes(t *testing.T, body func(t *testing.T)) {
	for _, n := range []int{blockSpans, 1, 3} {
		t.Run(fmt.Sprintf("blockSpans=%d", n), func(t *testing.T) {
			withBlockSpans(t, n)
			body(t)
		})
	}
}

// requireBlockTable asserts the block table's invariants against x's
// spans and pairs: blocks partition the spans into maximal runs under
// blockSpans and blockGrowth, and each block's entries are its spans in
// (hi, span) order with their dearest and cheapest unit costs, running
// configuration counts and suffix minima of the cheapest unit cost.
func requireBlockTable(t *testing.T, label string, x *FrontierIndex) {
	t.Helper()
	if len(x.entries) != len(x.spans) || x.blocks[0] != 0 || x.blocks[len(x.blocks)-1] != len(x.spans) {
		t.Fatalf("%s: %d entries, blocks %d..%d, over %d spans", label,
			len(x.entries), x.blocks[0], x.blocks[len(x.blocks)-1], len(x.spans))
	}
	for b := 0; b+1 < len(x.blocks); b++ {
		lo, hi := x.blocks[b], x.blocks[b+1]
		if hi <= lo || hi-lo > blockSpans {
			t.Fatalf("%s: block %d holds spans [%d, %d), cap %d", label, b, lo, hi, blockSpans)
		}
		for si := lo + 1; si < hi; si++ {
			if x.spans[si].u > x.spans[lo].u*blockGrowth {
				t.Fatalf("%s: block %d grows past its first capacity at span %d", label, b, si)
			}
		}
		if hi < len(x.spans) && hi-lo < blockSpans && x.spans[hi].u <= x.spans[lo].u*blockGrowth {
			t.Fatalf("%s: block %d closed early, before span %d", label, b, hi)
		}
		seen := make(map[int]bool, hi-lo)
		var cum uint64
		for k, en := range x.entries[lo:hi] {
			if en.span < lo || en.span >= hi || seen[en.span] {
				t.Fatalf("%s: block %d entry %d names span %d", label, b, k, en.span)
			}
			seen[en.span] = true
			sp := x.spans[en.span]
			if en.hi != x.pairs[sp.end-1].cu || en.lo != x.pairs[sp.start].cu {
				t.Fatalf("%s: block %d entry %d unit costs %v..%v, span has %v..%v", label, b, k,
					en.lo, en.hi, x.pairs[sp.start].cu, x.pairs[sp.end-1].cu)
			}
			if k > 0 {
				if prev := x.entries[lo+k-1]; prev.hi > en.hi || (prev.hi == en.hi && prev.span > en.span) {
					t.Fatalf("%s: block %d entries %d and %d out of (hi, span) order", label, b, k-1, k)
				}
			}
			for i := sp.start; i < sp.end; i++ {
				cum += x.pairs[i].count
			}
			sufLo := en.lo
			for _, later := range x.entries[lo+k : hi] {
				sufLo = min(sufLo, later.lo)
			}
			if en.cum != cum || en.sufLo != sufLo {
				t.Fatalf("%s: block %d entry %d cum %d sufLo %v, want %d, %v", label, b, k, en.cum, en.sufLo, cum, sufLo)
			}
		}
	}
}

// spanWalkCount is the feasible count the index took before the block
// table, kept as the test oracle: every time-feasible span, searched for
// its budget-feasible prefix, its pair counts summed.
func spanWalkCount(x *FrontierIndex, e *Engine, d units.Instructions, cons Constraints) uint64 {
	deadline, budget := cons.deadlineOrInf(), cons.budgetOrInf()
	lo := sort.Search(len(x.spans), func(i int) bool { return units.Time(d, x.spans[i].u) < deadline })
	var n uint64
	for si := lo; si < len(x.spans); si++ {
		sp := x.spans[si]
		T := units.Time(d, sp.u)
		b := sort.Search(sp.end-sp.start, func(i int) bool {
			return model.Bill(T, x.pairs[sp.start+i].cu, e.billing) >= budget
		})
		for i := sp.start; i < sp.start+b; i++ {
			n += x.pairs[i].count
		}
	}
	return n
}

// spanWalkMinCost is the min-cost argmin by the same walk: the least
// cost over every time- and budget-feasible span's cheapest pair, and the
// member with the least order key over every time-feasible pair costing
// at most that.
func spanWalkMinCost(x *FrontierIndex, e *Engine, d units.Instructions, cons Constraints) (config.Tuple, units.USD, bool) {
	deadline, budget := cons.deadlineOrInf(), cons.budgetOrInf()
	lo := sort.Search(len(x.spans), func(i int) bool { return units.Time(d, x.spans[i].u) < deadline })
	bestC, found := budget, false
	for si := lo; si < len(x.spans); si++ {
		sp := x.spans[si]
		if c := model.Bill(units.Time(d, sp.u), x.pairs[sp.start].cu, e.billing); c < bestC {
			bestC, found = c, true
		}
	}
	if !found {
		return config.Tuple{}, 0, false
	}
	best := noKey
	for si := lo; si < len(x.spans); si++ {
		sp := x.spans[si]
		T := units.Time(d, sp.u)
		ub := sort.Search(sp.end-sp.start, func(i int) bool {
			return model.Bill(T, x.pairs[sp.start+i].cu, e.billing) > bestC
		})
		for i := sp.start; i < sp.start+ub; i++ {
			best = min(best, x.pairs[i].key)
		}
	}
	return x.order.tuple(best), bestC, true
}

// requireBlocksMatchSpanWalk asserts that eng's index answers d under
// cons with the span walk's census count and min-cost winner.
func requireBlocksMatchSpanWalk(t *testing.T, label string, eng *Engine, d units.Instructions, cons Constraints) {
	t.Helper()
	x := eng.indexFor()
	if got, _ := x.census(eng, d, cons); got != spanWalkCount(x, eng, d, cons) {
		t.Fatalf("%s: census counts %d feasible, span walk %d", label, got, spanWalkCount(x, eng, d, cons))
	}
	pred, ok := x.minSearch(eng, d, cons, objectiveCost)
	want, wantC, wantOK := spanWalkMinCost(x, eng, d, cons)
	if ok != wantOK || (ok && (pred.Config != want || pred.Cost != wantC)) {
		t.Fatalf("%s: min cost %v at %v (ok %v), span walk %v at %v (ok %v)",
			label, pred.Config, pred.Cost, ok, want, wantC, wantOK)
	}
}

// freshMixDraw draws one fresh-mix-shaped query: (n, a) log-uniform over
// the app's domain, a deadline 1.2–40× the fastest configuration's time,
// and a budget 1.05–3× the cheapest node's per-second cost of the demand.
func freshMixDraw(rng *detrand.Source, eng *Engine, app workload.App) (units.Instructions, Constraints) {
	logUniform := func(lo, hi float64) float64 {
		return math.Min(hi, math.Max(lo, math.Exp(math.Log(lo)+rng.Float64()*(math.Log(hi)-math.Log(lo)))))
	}
	w, cost := eng.Capacities().NodeArrays()
	uMax, usdPerInstr := 0.0, math.Inf(1)
	for i := range w {
		uMax += float64(eng.Space().Max(i)) * float64(w[i])
		usdPerInstr = math.Min(usdPerInstr, float64(cost[i])/3600/float64(w[i]))
	}
	dom := app.Domain()
	d := eng.DemandModel().Demand(workload.Params{N: logUniform(dom.MinN, dom.MaxN), A: logUniform(dom.MinA, dom.MaxA)})
	return d, Constraints{
		Deadline: units.Seconds(float64(d) / uMax * logUniform(1.2, 40)),
		Budget:   units.USD(float64(d) * usdPerInstr * logUniform(1.05, 3)),
	}
}

// TestBlocksMatchSpanWalkPaper certifies the block table's census count
// and min-cost winner against the span walk on the three paper indexes,
// under both billings: a seeded sweep of fresh-mix-shaped queries, and
// edge rows at each query's demand — a budget equal to some pair's exact
// bill at its span's time, deadlines equal to the exact time of a
// block's first, middle and last span and of a single-span block's span
// (the capacity-growth cut makes such blocks where spans are sparse), an
// unconstrained query, an unmeetable deadline and an unmeetable budget.
func TestBlocksMatchSpanWalkPaper(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-space indexes in -short mode")
	}
	draws := 8
	for _, app := range []workload.App{galaxy.App{}, sand.App{}, x264.App{}} {
		x := paperIndex(app)
		var single []int // the span of each single-span block
		for b := 0; b+1 < len(x.blocks); b++ {
			if x.blocks[b+1]-x.blocks[b] == 1 {
				single = append(single, x.blocks[b])
			}
		}
		if len(single) == 0 {
			t.Fatalf("%s: no single-span block; the edge rows lost their footing", app.Name())
		}
		for _, billing := range []model.Billing{model.PerSecond, model.PerHour} {
			eng := indexedPaperEngine(t, app)
			eng.SetBilling(billing)
			rng := detrand.New(detrand.Mix(0xb10c5, int(billing)))
			for q := 0; q < draws; q++ {
				d, cons := freshMixDraw(rng, eng, app)
				label := fmt.Sprintf("%s %s query %d", app.Name(), billing, q)
				requireBlocksMatchSpanWalk(t, label, eng, d, cons)

				si := int(rng.Uint64() % uint64(len(x.spans)))
				sp := x.spans[si]
				pi := sp.start + int(rng.Uint64()%uint64(sp.end-sp.start))
				atPair := model.Bill(units.Time(d, sp.u), x.pairs[pi].cu, billing)
				requireBlocksMatchSpanWalk(t, label+", budget at a pair's bill", eng, d, Constraints{Budget: atPair})
				requireBlocksMatchSpanWalk(t, label+", deadline and budget at a pair's bill", eng, d,
					Constraints{Deadline: cons.Deadline, Budget: atPair})

				b := int(rng.Uint64() % uint64(len(x.blocks)-1))
				lone := single[rng.Uint64()%uint64(len(single))]
				for _, si := range []int{x.blocks[b], (x.blocks[b] + x.blocks[b+1]) / 2, x.blocks[b+1] - 1, lone} {
					at := units.Time(d, x.spans[si].u)
					requireBlocksMatchSpanWalk(t, fmt.Sprintf("%s, deadline at span %d's time", label, si), eng, d,
						Constraints{Deadline: at, Budget: cons.Budget})
				}
				if q%8 == 0 {
					requireBlocksMatchSpanWalk(t, label+", unconstrained", eng, d, Constraints{})
					requireBlocksMatchSpanWalk(t, label+", unmeetable deadline", eng, d, Constraints{Deadline: 1e-9})
					requireBlocksMatchSpanWalk(t, label+", unmeetable budget", eng, d, Constraints{Budget: 1e-12})
				}
			}
		}
	}
}
