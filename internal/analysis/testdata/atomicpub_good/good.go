// Package lintfixture is the known-good twin of atomicpub_bad: the
// copy-on-write discipline done right (clone, mutate the clone,
// publish, never touch it again), so the rule must stay silent.
//
//celialint:as repro/internal/workqueue/lintfixture
package lintfixture

import "sync/atomic"

// Registry publishes a lookup map through an atomic pointer.
type Registry struct {
	m atomic.Pointer[map[string]int]
}

// Get reads through a snapshot — always fine.
func (r *Registry) Get(k string) (int, bool) {
	m := *r.m.Load()
	v, ok := m[k]
	return v, ok
}

// Put is the copy-on-write idiom: clone the snapshot, mutate the
// clone, publish the clone, never write to it again.
func (r *Registry) Put(k string, v int) {
	old := *r.m.Load()
	next := make(map[string]int, len(old)+1)
	for kk, vv := range old {
		next[kk] = vv
	}
	next[k] = v
	r.m.Store(&next)
}

// Drop clones before deleting.
func (r *Registry) Drop(k string) {
	old := *r.m.Load()
	next := make(map[string]int, len(old))
	for kk, vv := range old {
		if kk == k {
			continue
		}
		next[kk] = vv
	}
	r.m.Store(&next)
}

// Rebuild mutates freely before publication — the value is private
// until Store.
func (r *Registry) Rebuild(items []string) {
	next := make(map[string]int, len(items))
	for i, it := range items {
		next[it] = i
	}
	r.m.Store(&next)
}

// Box is a published struct.
type Box struct {
	N []int
}

// Holder publishes *Box values.
type Holder struct {
	p atomic.Pointer[Box]
}

// Replace builds a fresh Box instead of mutating the published one.
func (h *Holder) Replace(n []int) {
	b := &Box{N: n}
	h.p.Store(b)
}

// Peek reads fields through the snapshot — fine.
func (h *Holder) Peek() int {
	b := h.p.Load()
	if b == nil {
		return 0
	}
	return len(b.N)
}
