package pareto

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func TestDominates(t *testing.T) {
	cases := []struct {
		p, q Point
		want bool
	}{
		{Point{1, 1, 0}, Point{2, 2, 0}, true},
		{Point{1, 2, 0}, Point{2, 1, 0}, false},
		{Point{1, 1, 0}, Point{1, 1, 0}, false}, // equal: no strict improvement
		{Point{1, 2, 0}, Point{1, 3, 0}, true},
		{Point{2, 2, 0}, Point{1, 1, 0}, false},
	}
	for _, c := range cases {
		if got := c.p.Dominates(c.q); got != c.want {
			t.Errorf("%v dominates %v = %v, want %v", c.p, c.q, got, c.want)
		}
	}
}

func TestFrontier2DSimple(t *testing.T) {
	pts := []Point{
		{10, 1, 1}, {9, 2, 2}, {8, 3, 3}, // frontier staircase
		{10, 2, 4}, {9, 3, 5}, {10, 10, 6}, // dominated
	}
	f := Frontier2D(pts)
	if len(f) != 3 {
		t.Fatalf("frontier size = %d (%v), want 3", len(f), f)
	}
	ids := map[uint64]bool{}
	for _, p := range f {
		ids[p.ID] = true
	}
	for _, want := range []uint64{1, 2, 3} {
		if !ids[want] {
			t.Errorf("frontier missing point %d", want)
		}
	}
	// Ascending X.
	if !sort.SliceIsSorted(f, func(i, j int) bool { return f[i].X < f[j].X }) {
		t.Fatalf("frontier not sorted by X: %v", f)
	}
}

func TestFrontier2DEmptyAndSingle(t *testing.T) {
	if got := Frontier2D(nil); got != nil {
		t.Fatalf("Frontier2D(nil) = %v", got)
	}
	f := Frontier2D([]Point{{5, 5, 1}})
	if len(f) != 1 || f[0].ID != 1 {
		t.Fatalf("single-point frontier = %v", f)
	}
}

func TestFrontier2DDuplicates(t *testing.T) {
	f := Frontier2D([]Point{{1, 1, 1}, {1, 1, 2}, {1, 1, 3}})
	if len(f) != 1 {
		t.Fatalf("duplicate points frontier = %v, want 1 survivor", f)
	}
}

func TestFrontier2DEqualX(t *testing.T) {
	f := Frontier2D([]Point{{1, 5, 1}, {1, 3, 2}, {2, 2, 3}})
	// (1,5) is dominated by (1,3).
	if len(f) != 2 {
		t.Fatalf("frontier = %v, want 2 points", f)
	}
	for _, p := range f {
		if p.ID == 1 {
			t.Fatal("dominated equal-X point survived")
		}
	}
}

func bruteFrontier(pts []Point) map[uint64]bool {
	out := map[uint64]bool{}
	for i, p := range pts {
		dominated := false
		for j, q := range pts {
			if i == j {
				continue
			}
			if q.Dominates(p) {
				dominated = true
				break
			}
			// Duplicates: keep the first.
			if j < i && q.X == p.X && q.Y == p.Y {
				dominated = true
				break
			}
		}
		if !dominated {
			out[p.ID] = true
		}
	}
	return out
}

func TestFrontier2DAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(60)
		pts := make([]Point, n)
		for i := range pts {
			pts[i] = Point{float64(rng.Intn(10)), float64(rng.Intn(10)), uint64(i)}
		}
		want := bruteFrontier(pts)
		got := Frontier2D(pts)
		if len(got) != len(want) {
			t.Fatalf("trial %d: frontier size %d, brute force %d\npts=%v\ngot=%v",
				trial, len(got), len(want), pts, got)
		}
		for _, p := range got {
			if !want[p.ID] {
				t.Fatalf("trial %d: point %v not in brute-force frontier", trial, p)
			}
		}
	}
}

func TestStream2DMatchesBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.Intn(200)
		pts := make([]Point, n)
		for i := range pts {
			pts[i] = Point{rng.Float64() * 100, rng.Float64() * 100, uint64(i)}
		}
		var s Stream2D
		for _, p := range pts {
			s.Add(p)
		}
		want := Frontier2D(pts)
		got := s.Frontier()
		if len(got) != len(want) {
			t.Fatalf("trial %d: stream frontier %d points, batch %d", trial, len(got), len(want))
		}
		for i := range got {
			if got[i].X != want[i].X || got[i].Y != want[i].Y {
				t.Fatalf("trial %d: stream[%d] = %v, batch %v", trial, i, got[i], want[i])
			}
		}
		if s.Seen() != uint64(n) {
			t.Fatalf("Seen = %d, want %d", s.Seen(), n)
		}
	}
}

func TestStream2DMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	pts := make([]Point, 500)
	for i := range pts {
		pts[i] = Point{rng.Float64(), rng.Float64(), uint64(i)}
	}
	var a, b, whole Stream2D
	for i, p := range pts {
		if i%2 == 0 {
			a.Add(p)
		} else {
			b.Add(p)
		}
		whole.Add(p)
	}
	a.Merge(&b)
	got, want := a.Frontier(), whole.Frontier()
	if len(got) != len(want) {
		t.Fatalf("merged frontier %d points, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("merged[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	if a.Seen() != 500 {
		t.Fatalf("merged Seen = %d, want 500", a.Seen())
	}
}

func TestStream2DStaircaseInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	var s Stream2D
	for i := 0; i < 2000; i++ {
		s.Add(Point{rng.Float64() * 10, rng.Float64() * 10, uint64(i)})
		f := s.frontier
		for j := 1; j < len(f); j++ {
			if !(f[j].X > f[j-1].X && f[j].Y < f[j-1].Y) {
				t.Fatalf("staircase violated after %d adds: %v then %v", i+1, f[j-1], f[j])
			}
		}
	}
}

func TestEpsilonFrontierCoarsens(t *testing.T) {
	// A dense exact frontier should shrink under a coarse epsilon.
	var pts []Point
	for i := 0; i < 100; i++ {
		x := float64(i)
		pts = append(pts, Point{x, 100 - x, uint64(i)})
	}
	exact := Frontier2D(pts)
	if len(exact) != 100 {
		t.Fatalf("exact frontier = %d, want 100", len(exact))
	}
	eps := EpsilonFrontier2D(pts, 10, 10)
	if len(eps) >= len(exact) || len(eps) < 5 {
		t.Fatalf("epsilon frontier = %d points, want a ~10-point coarsening", len(eps))
	}
}

func TestEpsilonFrontierNoFalseDominance(t *testing.T) {
	// Every ε-frontier point must be exactly nondominated among the
	// ε-frontier itself.
	rng := rand.New(rand.NewSource(3))
	pts := make([]Point, 300)
	for i := range pts {
		pts[i] = Point{rng.Float64() * 50, rng.Float64() * 50, uint64(i)}
	}
	eps := EpsilonFrontier2D(pts, 5, 5)
	for i, p := range eps {
		for j, q := range eps {
			if i != j && q.Dominates(p) {
				t.Fatalf("ε-frontier point %v dominated by %v", p, q)
			}
		}
	}
}

func TestEpsilonFrontierPanicsOnBadEps(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for eps < 0")
		}
	}()
	EpsilonFrontier2D([]Point{{1, 1, 0}}, -1, 1)
}

func TestEpsilonFrontierBothZeroIsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	pts := make([]Point, 200)
	for i := range pts {
		pts[i] = Point{rng.Float64() * 50, rng.Float64() * 50, uint64(i)}
	}
	got := EpsilonFrontier2D(pts, 0, 0)
	if !reflect.DeepEqual(got, Frontier2D(pts)) {
		t.Fatalf("zero-ε frontier diverges from the exact frontier:\n%v\nvs\n%v",
			got, Frontier2D(pts))
	}
}

func TestEpsilonFrontierSingleAxisX(t *testing.T) {
	// ε on X only: (1.0,10) and (1.9,9) land in X-box 1 with exact Y,
	// so box domination removes the costlier of the two while the Y
	// axis stays exact.
	pts := []Point{{1.0, 10, 0}, {1.9, 9, 1}, {2.0, 8, 2}, {3.0, 7, 3}}
	if exact := Frontier2D(pts); len(exact) != 4 {
		t.Fatalf("exact frontier = %d points, want 4", len(exact))
	}
	got := EpsilonFrontier2D(pts, 1, 0)
	want := []Point{{1.9, 9, 1}, {2.0, 8, 2}, {3.0, 7, 3}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("X-only ε frontier = %v, want %v", got, want)
	}
}

func TestEpsilonFrontierSingleAxisY(t *testing.T) {
	// ε on Y only: (1.0,9.9) and (1.5,9.1) share Y-box 9, so the later
	// (slower) of the two is box-dominated away despite being exactly
	// nondominated.
	pts := []Point{{1.0, 9.9, 0}, {1.5, 9.1, 1}, {2.0, 7.0, 2}}
	if exact := Frontier2D(pts); len(exact) != 3 {
		t.Fatalf("exact frontier = %d points, want 3", len(exact))
	}
	got := EpsilonFrontier2D(pts, 0, 1)
	want := []Point{{1.0, 9.9, 0}, {2.0, 7.0, 2}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Y-only ε frontier = %v, want %v", got, want)
	}
}

func TestEpsilonFrontierEmpty(t *testing.T) {
	if got := EpsilonFrontier2D(nil, 1, 1); got != nil {
		t.Fatalf("EpsilonFrontier2D(nil) = %v", got)
	}
}

// Property: the streaming frontier is always mutually nondominated and
// contains the global minimum of each objective.
func TestStreamNondominationProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) < 2 {
			return true
		}
		var s Stream2D
		minX, minY := Point{1 << 30, 1 << 30, 0}, Point{1 << 30, 1 << 30, 0}
		for i := 0; i+1 < len(raw); i += 2 {
			p := Point{float64(raw[i] % 100), float64(raw[i+1] % 100), uint64(i)}
			s.Add(p)
			if p.X < minX.X || (p.X == minX.X && p.Y < minX.Y) {
				minX = p
			}
			if p.Y < minY.Y || (p.Y == minY.Y && p.X < minY.X) {
				minY = p
			}
		}
		fr := s.Frontier()
		if len(fr) == 0 {
			return false
		}
		for i := range fr {
			for j := range fr {
				if i != j && fr[i].Dominates(fr[j]) {
					return false
				}
			}
		}
		// Extremes must be present.
		if fr[0].X != minX.X || fr[len(fr)-1].Y != minY.Y {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
