// Package lintfixture is the known-good counterpart of
// lockdiscipline_callee_bad: the lock is released before calling the
// re-acquiring or blocking helper, also inside a range body, and
// shared-mode read locks may nest through a call (RLock under RLock
// does not deadlock).
//
//celialint:as repro/internal/serving/lintfixture_lockdiscipline_callee_good
package lintfixture

import "sync"

type Box struct {
	mu sync.Mutex
	n  int
}

func (b *Box) bump() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.n++
}

func (b *Box) drain(ch chan int) int {
	total := 0
	for v := range ch {
		total += v
	}
	return total
}

// SafeBump releases before re-entering the lock through the helper.
func (b *Box) SafeBump() {
	b.mu.Lock()
	b.n++
	b.mu.Unlock()
	b.bump()
}

// SafeDrain releases before blocking one frame down.
func (b *Box) SafeDrain(ch chan int) int {
	b.mu.Lock()
	b.n++
	b.mu.Unlock()
	return b.drain(ch)
}

// DrainEach reads the range subject under the lock and releases it
// around each blocking drain in the body.
func (b *Box) DrainEach(chs []chan int) {
	b.mu.Lock()
	for _, ch := range chs {
		b.mu.Unlock()
		n := b.drain(ch)
		b.mu.Lock()
		b.n += n
	}
	b.mu.Unlock()
}

type RBox struct {
	mu sync.RWMutex
	n  int
}

func (r *RBox) read() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.n
}

// Sum holds the read lock and calls a helper that takes it again in
// shared mode: allowed.
func (r *RBox) Sum() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.n + r.read()
}
