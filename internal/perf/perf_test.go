package perf

import (
	"sync"
	"testing"
	"testing/quick"
)

func TestAccountBasic(t *testing.T) {
	a := NewAccount()
	a.Add(FloatOps, 100)
	a.Add(IntOps, 50)
	a.Add(FloatOps, 25)
	if got := a.Count(FloatOps); got != 125 {
		t.Fatalf("Count(fp) = %d, want 125", got)
	}
	if got := a.Count(IntOps); got != 50 {
		t.Fatalf("Count(int) = %d, want 50", got)
	}
	if got := a.Count(BranchOps); got != 0 {
		t.Fatalf("Count(branch) = %d, want 0", got)
	}
	if got := float64(a.Total()); got != 175 {
		t.Fatalf("Total = %v, want 175", got)
	}
}

func TestAccountNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Add(-1) did not panic")
		}
	}()
	NewAccount().Add(IntOps, -1)
}

func TestAccountConcurrent(t *testing.T) {
	a := NewAccount()
	cell := a.Class(FloatOps) // create before spawning, per contract
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				cell.Add(3)
			}
		}()
	}
	wg.Wait()
	if got := a.Count(FloatOps); got != 24000 {
		t.Fatalf("concurrent Count = %d, want 24000", got)
	}
}

func TestBreakdownSorted(t *testing.T) {
	a := NewAccount()
	a.Add(MemOps, 1)
	a.Add(BranchOps, 2)
	a.Add(FloatOps, 3)
	bd := a.Breakdown()
	if len(bd) != 3 {
		t.Fatalf("Breakdown len = %d, want 3", len(bd))
	}
	for i := 1; i < len(bd); i++ {
		if bd[i].Class < bd[i-1].Class {
			t.Fatalf("Breakdown not sorted: %v", bd)
		}
	}
}

// Property: Total equals the sum of per-class counts for any sequence of
// additions.
func TestTotalIsSumProperty(t *testing.T) {
	f := func(fp, in, mem uint16) bool {
		a := NewAccount()
		a.Add(FloatOps, int64(fp))
		a.Add(IntOps, int64(in))
		a.Add(MemOps, int64(mem))
		return float64(a.Total()) == float64(int64(fp)+int64(in)+int64(mem))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
