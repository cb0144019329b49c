// Package des is a minimal discrete-event simulation core: a virtual
// clock and an event calendar. The cloud simulator schedules task
// completions, barrier releases, and dispatch events on it; events at
// equal timestamps fire in scheduling order, which keeps runs exactly
// reproducible. An event is never taken back: work that a failure
// voids still fires, and its owner's generation or epoch counter turns
// it into a no-op.
package des

import (
	"container/heap"
	"fmt"

	"repro/internal/units"
)

// Sim is one simulation run. The zero value is ready to use, starting
// at time 0.
type Sim struct {
	now    units.Seconds
	seq    uint64
	queue  eventQueue
	events uint64
}

type event struct {
	at  units.Seconds
	seq uint64 // FIFO tie-break for simultaneous events
	fn  func()
}

type eventQueue []event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *eventQueue) Push(x interface{}) { *q = append(*q, x.(event)) }
func (q *eventQueue) Pop() interface{} {
	old := *q
	n := len(old)
	e := old[n-1]
	*q = old[:n-1]
	return e
}

// Now reports the current simulation time.
func (s *Sim) Now() units.Seconds { return s.now }

// Events reports how many events have fired.
func (s *Sim) Events() uint64 { return s.events }

// Schedule arranges for fn to run delay after the current time.
// Negative delays are rejected: simulated time only advances.
func (s *Sim) Schedule(delay units.Seconds, fn func()) {
	if delay < 0 {
		panic(fmt.Sprintf("des: negative delay %v", delay))
	}
	s.At(s.now+delay, fn)
}

// At arranges for fn to run at absolute time t, which must not precede
// the current time.
func (s *Sim) At(t units.Seconds, fn func()) {
	if t < s.now {
		panic(fmt.Sprintf("des: event at %v scheduled from %v (past)", t, s.now))
	}
	heap.Push(&s.queue, event{at: t, seq: s.seq, fn: fn})
	s.seq++
}

// Run fires events in timestamp order until the calendar is empty and
// returns the final time.
func (s *Sim) Run() units.Seconds {
	for s.queue.Len() > 0 {
		e := heap.Pop(&s.queue).(event)
		s.now = e.at
		s.events++
		e.fn()
	}
	return s.now
}
