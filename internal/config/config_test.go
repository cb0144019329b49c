package config

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func paperSpace(t *testing.T) *Space {
	t.Helper()
	s, err := Uniform(9, 5)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestEq1PaperSize(t *testing.T) {
	// Eq. 1 with M=9, m_i,max=5: S = 6⁹ − 1 = 10,077,695 ("more than
	// ten million configurations").
	if got := paperSpace(t).Size(); got != 10077695 {
		t.Fatalf("Size = %d, want 10077695", got)
	}
}

func TestSizeSmallSpaces(t *testing.T) {
	cases := []struct {
		limits []int
		want   uint64
	}{
		{[]int{1}, 1},
		{[]int{2, 3}, 11},
		{[]int{5, 5, 5}, 215},
		{[]int{0, 0, 1}, 1},
	}
	for _, c := range cases {
		s, err := NewSpace(c.limits)
		if err != nil {
			t.Fatal(err)
		}
		if got := s.Size(); got != c.want {
			t.Errorf("Size(%v) = %d, want %d", c.limits, got, c.want)
		}
	}
}

func TestTupleBasics(t *testing.T) {
	tp := MustTuple(5, 5, 5, 3, 0, 0, 0, 0, 0)
	if tp.Len() != 9 || tp.Count(3) != 3 || tp.TotalNodes() != 18 {
		t.Fatalf("tuple basics wrong: %v", tp)
	}
	if tp.String() != "[5,5,5,3,0,0,0,0,0]" {
		t.Fatalf("String = %q (paper's Figure 6a annotation format)", tp.String())
	}
	if tp.IsEmpty() {
		t.Fatal("non-empty tuple reported empty")
	}
	if !MustTuple(0, 0).IsEmpty() {
		t.Fatal("empty tuple not reported empty")
	}
}

func TestNewTupleValidation(t *testing.T) {
	if _, err := NewTuple(nil); err == nil {
		t.Fatal("empty tuple accepted")
	}
	if _, err := NewTuple(make([]int, MaxTypes+1)); err == nil {
		t.Fatal("oversized tuple accepted")
	}
	if _, err := NewTuple([]int{-1}); err == nil {
		t.Fatal("negative count accepted")
	}
	if _, err := NewTuple([]int{300}); err == nil {
		t.Fatal("count > 255 accepted")
	}
}

func TestWithCount(t *testing.T) {
	tp := MustTuple(1, 2, 3)
	if got := tp.WithCount(1, 10); got != MustTuple(1, 10, 3) || tp != MustTuple(1, 2, 3) {
		t.Fatalf("WithCount(1, 10) of %v = %v", tp, got)
	}
	// Past the arity the count would hide in the backing array, where
	// == and the index would see it but Len and String would not.
	defer func() {
		if recover() == nil {
			t.Fatal("WithCount past the arity did not panic")
		}
	}()
	tp.WithCount(3, 1)
}

func TestCountsCopy(t *testing.T) {
	tp := MustTuple(1, 2, 3)
	c := tp.Counts()
	c[0] = 99
	if tp.Count(0) != 1 {
		t.Fatal("Counts() exposed internal storage")
	}
}

func TestIndexRoundTrip(t *testing.T) {
	s, err := NewSpace([]int{2, 3, 1})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for k := uint64(0); k < s.Size(); k++ {
		tp, err := s.AtIndex(k)
		if err != nil {
			t.Fatal(err)
		}
		if tp.IsEmpty() {
			t.Fatalf("index %d decoded to the empty tuple", k)
		}
		if !s.Contains(tp) {
			t.Fatalf("index %d decoded outside the space: %v", k, tp)
		}
		back, err := s.IndexOf(tp)
		if err != nil {
			t.Fatal(err)
		}
		if back != k {
			t.Fatalf("round trip %d -> %v -> %d", k, tp, back)
		}
		if seen[tp.String()] {
			t.Fatalf("duplicate tuple %v", tp)
		}
		seen[tp.String()] = true
	}
	if uint64(len(seen)) != s.Size() {
		t.Fatalf("enumerated %d distinct tuples, want %d", len(seen), s.Size())
	}
}

func TestAtIndexOutOfRange(t *testing.T) {
	s := paperSpace(t)
	if _, err := s.AtIndex(s.Size()); err == nil {
		t.Fatal("AtIndex(Size) accepted")
	}
}

func TestIndexOfRejectsForeignTuples(t *testing.T) {
	s := paperSpace(t)
	if _, err := s.IndexOf(MustTuple(1, 2)); err == nil {
		t.Fatal("wrong-arity tuple accepted")
	}
	if _, err := s.IndexOf(MustTuple(6, 0, 0, 0, 0, 0, 0, 0, 0)); err == nil {
		t.Fatal("over-limit tuple accepted")
	}
	if _, err := s.IndexOf(MustTuple(0, 0, 0, 0, 0, 0, 0, 0, 0)); err == nil {
		t.Fatal("empty tuple accepted")
	}
}

func TestForEachVisitsAllOnce(t *testing.T) {
	s, err := NewSpace([]int{3, 2, 4})
	if err != nil {
		t.Fatal(err)
	}
	var count uint64
	seen := map[string]bool{}
	done := s.ForEach(func(tp Tuple) bool {
		count++
		key := tp.String()
		if seen[key] {
			t.Fatalf("tuple %v visited twice", tp)
		}
		seen[key] = true
		return true
	})
	if !done {
		t.Fatal("ForEach reported early stop")
	}
	if count != s.Size() {
		t.Fatalf("visited %d, want %d", count, s.Size())
	}
}

func TestForEachMatchesIndexOrder(t *testing.T) {
	s, err := NewSpace([]int{2, 2})
	if err != nil {
		t.Fatal(err)
	}
	k := uint64(0)
	s.ForEach(func(tp Tuple) bool {
		want, err := s.AtIndex(k)
		if err != nil {
			t.Fatal(err)
		}
		if tp != want {
			t.Fatalf("position %d: ForEach gave %v, AtIndex gives %v", k, tp, want)
		}
		k++
		return true
	})
}

func TestForEachEarlyStop(t *testing.T) {
	s := paperSpace(t)
	var count int
	done := s.ForEach(func(Tuple) bool {
		count++
		return count < 10
	})
	if done || count != 10 {
		t.Fatalf("early stop: done=%v count=%d", done, count)
	}
}

func TestForEachParallelCoversSpace(t *testing.T) {
	s, err := NewSpace([]int{3, 4, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	var total atomic.Uint64
	var nodeSum atomic.Uint64
	s.ForEachParallel(4, func(_ int, tp Tuple) {
		total.Add(1)
		nodeSum.Add(uint64(tp.TotalNodes()))
	})
	if total.Load() != s.Size() {
		t.Fatalf("parallel visited %d, want %d", total.Load(), s.Size())
	}
	// Cross-check an order-independent aggregate against sequential.
	var seqSum uint64
	s.ForEach(func(tp Tuple) bool {
		seqSum += uint64(tp.TotalNodes())
		return true
	})
	if nodeSum.Load() != seqSum {
		t.Fatalf("parallel node sum %d != sequential %d", nodeSum.Load(), seqSum)
	}
}

func TestForEachParallelMoreWorkersThanConfigs(t *testing.T) {
	s, err := NewSpace([]int{1})
	if err != nil {
		t.Fatal(err)
	}
	var total atomic.Uint64
	s.ForEachParallel(8, func(_ int, Tuple Tuple) { total.Add(1) })
	if total.Load() != 1 {
		t.Fatalf("visited %d, want 1", total.Load())
	}
}

func TestForEachParallelDefaultWorkers(t *testing.T) {
	s, err := NewSpace([]int{5, 5})
	if err != nil {
		t.Fatal(err)
	}
	workerIDs := make([]atomic.Uint64, runtime.GOMAXPROCS(0))
	var total atomic.Uint64
	s.ForEachParallel(0, func(w int, _ Tuple) {
		workerIDs[w].Add(1)
		total.Add(1)
	})
	if total.Load() != s.Size() {
		t.Fatalf("visited %d, want %d", total.Load(), s.Size())
	}
}

func TestSpaceValidation(t *testing.T) {
	if _, err := NewSpace(nil); err == nil {
		t.Fatal("empty space accepted")
	}
	if _, err := NewSpace([]int{-1}); err == nil {
		t.Fatal("negative limit accepted")
	}
	if _, err := NewSpace(make([]int, MaxTypes+1)); err == nil {
		t.Fatal("too many types accepted")
	}
}

// TestSpaceWithNoConfigurationRejected: with every type capped at zero
// nodes the space is empty (S = 0), and the parallel walk every scan and
// index build runs on would divide by its zero worker count. Such a
// space must be refused where it is built, by NewSpace and Uniform alike.
func TestSpaceWithNoConfigurationRejected(t *testing.T) {
	if s, err := NewSpace([]int{0, 0}); err == nil {
		t.Fatalf("all-zero limits accepted: Size() = %d", s.Size())
	}
	if s, err := Uniform(9, 0); err == nil {
		t.Fatalf("Uniform(9, 0) accepted: Size() = %d", s.Size())
	}
	s, err := NewSpace([]int{0, 1})
	if err != nil {
		t.Fatalf("one positive limit rejected: %v", err)
	}
	if s.Size() != 1 {
		t.Fatalf("Size() = %d, want 1", s.Size())
	}
}

// TestSpaceSizeMustFitUint64: Size and every mixed-radix number over a
// space (AtIndex's index, the frontier index's order key) assume
// Π(m_i,max + 1) fits in a uint64, so a space past that is refused where
// it is built instead of wrapping. 256⁹ = 2⁷² and 21¹⁶ ≈ 1.4e21 do not
// fit; 15¹⁶ ≈ 6.6e18 does, and so does the paper's 6⁹.
func TestSpaceSizeMustFitUint64(t *testing.T) {
	for _, c := range []struct{ types, maxNodes int }{{9, 255}, {16, 20}, {8, 255}} {
		if s, err := Uniform(c.types, c.maxNodes); err == nil {
			t.Errorf("Uniform(%d, %d) accepted: Size() = %d", c.types, c.maxNodes, s.Size())
		}
	}
	for _, c := range []struct {
		types, maxNodes int
		size            uint64
	}{{16, 14, 6568408355712890624}, {9, 5, 10077695}, {7, 255, 1<<56 - 1}} {
		s, err := Uniform(c.types, c.maxNodes)
		if err != nil {
			t.Fatalf("Uniform(%d, %d) rejected: %v", c.types, c.maxNodes, err)
		}
		if s.Size() != c.size {
			t.Errorf("Uniform(%d, %d).Size() = %d, want %d", c.types, c.maxNodes, s.Size(), c.size)
		}
	}
}

// Property: index round trip holds for random small spaces.
func TestIndexRoundTripProperty(t *testing.T) {
	f := func(a, b, c uint8, pick uint16) bool {
		limits := []int{int(a%4) + 1, int(b%4) + 1, int(c%4) + 1}
		s, err := NewSpace(limits)
		if err != nil {
			return false
		}
		k := uint64(pick) % s.Size()
		tp, err := s.AtIndex(k)
		if err != nil {
			return false
		}
		back, err := s.IndexOf(tp)
		return err == nil && back == k
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestForEachWithZeroLimitType(t *testing.T) {
	s, err := NewSpace([]int{0, 2, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	var count uint64
	s.ForEach(func(tp Tuple) bool {
		if tp.Count(0) != 0 || tp.Count(2) != 0 {
			t.Fatalf("tuple %v uses a zero-limit type", tp)
		}
		count++
		return true
	})
	if count != s.Size() {
		t.Fatalf("visited %d, want %d", count, s.Size())
	}
}

func TestForEachParallelIndexed(t *testing.T) {
	s, err := NewSpace([]int{3, 2, 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 3, 7, 64} {
		var mu sync.Mutex
		seen := make(map[uint64]Tuple)
		s.ForEachParallelIndexed(workers, func(worker int, k uint64, tp Tuple) {
			mu.Lock()
			defer mu.Unlock()
			if _, dup := seen[k]; dup {
				t.Errorf("workers=%d: index %d visited twice", workers, k)
			}
			seen[k] = tp
		})
		if uint64(len(seen)) != s.Size() {
			t.Fatalf("workers=%d: visited %d, want %d", workers, len(seen), s.Size())
		}
		for k, tp := range seen {
			want, err := s.AtIndex(k)
			if err != nil {
				t.Fatal(err)
			}
			if tp != want {
				t.Fatalf("workers=%d: index %d yielded %v, want %v", workers, k, tp, want)
			}
		}
	}
}
