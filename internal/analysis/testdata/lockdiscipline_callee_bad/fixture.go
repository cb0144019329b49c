// Package lintfixture is a known-bad fixture for lockdiscipline's
// callee check: while holding a lock, one method calls a helper that
// re-acquires the same (non-reentrant) lock, and another calls a
// helper that blocks on a channel. Both are invisible to the
// frame-local checks — the offending operation is one frame down.
//
//celialint:as repro/internal/serving/lintfixture_lockdiscipline_callee
package lintfixture

import "sync"

type Box struct {
	mu sync.Mutex
	n  int
}

// bump acquires the receiver's lock: fine on its own.
func (b *Box) bump() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.n++
}

// drain blocks on a channel: fine on its own.
func (b *Box) drain(ch chan int) int {
	total := 0
	for v := range ch {
		total += v
	}
	return total
}

// Deadlock calls bump while already holding b.mu: self-deadlock.
func (b *Box) Deadlock() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.bump()
}

// HeldAcross blocks on other goroutines, one frame down, while
// holding the lock.
func (b *Box) HeldAcross(ch chan int) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.drain(ch)
}
