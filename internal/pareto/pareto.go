// Package pareto implements the nondomination filters CELIA uses to
// extract cost-time optimal configurations from the feasible set. The
// paper passes its configuration list through the ε-nondomination
// sorting routine of Woodruff and Herman's pareto.py [27]; this package
// ports those semantics for the two-objective (time, cost) case and
// adds an exact 2-D frontier and a streaming 2-D frontier that never
// stores the full feasible set (the paper's feasible sets run to
// millions of points).
//
// All objectives are minimized.
package pareto

import (
	"math"
	"sort"
)

// Point is one candidate in two-objective space, with an opaque ID
// (CELIA stores the configuration index).
type Point struct {
	X, Y float64
	ID   uint64
}

// Dominates reports whether p dominates q under minimization: no worse
// in both objectives and strictly better in at least one.
func (p Point) Dominates(q Point) bool {
	return p.X <= q.X && p.Y <= q.Y && (p.X < q.X || p.Y < q.Y)
}

// Frontier2D returns the exact Pareto frontier of pts, sorted by
// ascending X. Duplicate objective vectors keep their first occurrence.
// The input is not modified.
func Frontier2D(pts []Point) []Point {
	if len(pts) == 0 {
		return nil
	}
	sorted := append([]Point(nil), pts...)
	sort.SliceStable(sorted, func(i, j int) bool {
		if sorted[i].X != sorted[j].X {
			return sorted[i].X < sorted[j].X
		}
		return sorted[i].Y < sorted[j].Y
	})
	out := sorted[:0]
	bestY := math.Inf(1)
	lastX := math.Inf(-1)
	for _, p := range sorted {
		if p.Y < bestY {
			// Equal-X points are sorted by Y, so only the first
			// (lowest-Y) survives for each X.
			//lint:allow floateq exact dedup of equal-X points produced by one computation; no cross-run drift possible
			if p.X == lastX && len(out) > 0 && out[len(out)-1].X == p.X {
				continue
			}
			out = append(out, p)
			bestY = p.Y
			lastX = p.X
		}
	}
	return append([]Point(nil), out...)
}

// EpsilonFrontier2D applies pareto.py's ε-nondomination sort: the
// objective space is gridded into ε-boxes; a box dominates another box
// exactly when its coordinates dominate, and within a surviving box the
// point nearest the box's lower-left corner is kept.
//
// Each ε is per-axis: a zero ε leaves that axis ungridded (box
// coordinate = exact objective value, contributing nothing to the
// corner distance), so callers can coarsen one objective while staying
// exact on the other. Both zero degrades to the exact frontier; a
// negative ε panics.
func EpsilonFrontier2D(pts []Point, epsX, epsY float64) []Point {
	if len(pts) == 0 {
		return nil
	}
	if epsX < 0 || epsY < 0 {
		panic("pareto: epsilon values must be non-negative")
	}
	if epsX == 0 && epsY == 0 {
		return Frontier2D(pts)
	}
	// Box coordinates are kept as floats so an ungridded axis can use
	// the raw objective value; a gridded axis uses whole box numbers,
	// so the two never mix on one axis and comparisons stay exact.
	box := func(v, eps float64) (coord, dist float64) {
		if eps == 0 {
			return v, 0
		}
		b := math.Floor(v / eps)
		return b, v - b*eps
	}
	type boxed struct {
		bx, by float64
		p      Point
		dist   float64 // squared distance to box corner
	}
	best := make(map[[2]float64]boxed)
	for _, p := range pts {
		bx, dx := box(p.X, epsX)
		by, dy := box(p.Y, epsY)
		b := boxed{bx, by, p, dx*dx + dy*dy}
		key := [2]float64{bx, by}
		if cur, ok := best[key]; !ok || b.dist < cur.dist {
			best[key] = b
		}
	}
	boxes := make([]boxed, 0, len(best))
	for _, b := range best {
		//lint:allow nodeterm boxes are fully sorted below by their unique (bx, by) map key, so output order is total
		boxes = append(boxes, b)
	}
	sort.Slice(boxes, func(i, j int) bool {
		if boxes[i].bx != boxes[j].bx {
			return boxes[i].bx < boxes[j].bx
		}
		return boxes[i].by < boxes[j].by
	})
	var out []Point
	bestBY := math.Inf(1)
	for _, b := range boxes {
		if b.by < bestBY {
			out = append(out, b.p)
			bestBY = b.by
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].X < out[j].X })
	return out
}

// Stream2D maintains a 2-D Pareto frontier under incremental inserts.
// It stores only the current frontier, so filtering a multi-million
// point feasible set needs memory proportional to the frontier size.
// The zero value is ready to use. Not safe for concurrent use; shard
// per worker and Merge.
type Stream2D struct {
	// frontier is kept sorted by ascending X with strictly descending
	// Y (the canonical staircase).
	frontier []Point
	seen     uint64
}

// Add offers a point to the frontier.
func (s *Stream2D) Add(p Point) {
	s.seen++
	// Find the first frontier point with X >= p.X.
	i := sort.Search(len(s.frontier), func(i int) bool { return s.frontier[i].X >= p.X })
	// A predecessor with Y <= p.Y dominates p (its X is <= p.X).
	if i > 0 && s.frontier[i-1].Y <= p.Y {
		return
	}
	// An equal-X point with Y <= p.Y dominates p too.
	//lint:allow floateq exact equal-X dominance test within one frontier; matches Frontier's dedup semantics
	if i < len(s.frontier) && s.frontier[i].X == p.X && s.frontier[i].Y <= p.Y {
		return
	}
	// p survives: remove now-dominated successors (X >= p.X, Y >= p.Y).
	j := i
	for j < len(s.frontier) && s.frontier[j].Y >= p.Y {
		j++
	}
	if j == i {
		s.frontier = append(s.frontier, Point{})
		copy(s.frontier[i+1:], s.frontier[i:])
		s.frontier[i] = p
		return
	}
	s.frontier[i] = p
	s.frontier = append(s.frontier[:i+1], s.frontier[j:]...)
}

// Seen reports how many points were offered.
func (s *Stream2D) Seen() uint64 { return s.seen }

// Frontier returns a copy of the current frontier, ascending in X.
func (s *Stream2D) Frontier() []Point {
	return append([]Point(nil), s.frontier...)
}

// Merge folds another stream's frontier into s (used to combine
// per-worker shards after a parallel scan).
func (s *Stream2D) Merge(other *Stream2D) {
	for _, p := range other.frontier {
		s.Add(p)
	}
	s.seen += other.seen - uint64(len(other.frontier))
}
