// Package des is a minimal discrete-event simulation core: a virtual
// clock and an event calendar. The cloud simulator schedules task
// completions, barrier releases, and dispatch events on it; events at
// equal timestamps fire in scheduling order, which keeps runs exactly
// reproducible. An event is never taken back: work that a failure
// voids still fires, and its owner's generation or epoch counter turns
// it into a no-op.
//
// An event is a closure (Schedule, At) or a record (Post): a Handler
// and two integers, which schedules without allocating. The calendar
// is a binary heap of typed events, so neither form is boxed.
package des

import (
	"fmt"

	"repro/internal/units"
)

// Sim is one simulation run. The zero value is ready to use, starting
// at time 0.
type Sim struct {
	now    units.Seconds
	seq    uint64
	queue  []event // binary min-heap in Less order
	events uint64
}

// A Handler takes the record events scheduled with Post.
type Handler interface {
	Fire(a, b int)
}

// event is one calendar entry: the closure fn, or, when fn is nil, the
// record h.Fire(a, b).
type event struct {
	at   units.Seconds
	seq  uint64 // FIFO tie-break for simultaneous events
	fn   func()
	h    Handler
	a, b int
}

// Less orders events by time, then by scheduling order. No two events
// share a seq, so the order is total and any correct heap pops the same
// sequence.
func (e *event) Less(f *event) bool {
	if e.at != f.at {
		return e.at < f.at
	}
	return e.seq < f.seq
}

// Now reports the current simulation time.
func (s *Sim) Now() units.Seconds { return s.now }

// Events reports how many events have fired.
func (s *Sim) Events() uint64 { return s.events }

// Schedule arranges for fn to run delay after the current time.
// Negative delays are rejected: simulated time only advances.
func (s *Sim) Schedule(delay units.Seconds, fn func()) {
	checkDelay(delay)
	s.At(s.now+delay, fn)
}

// At arranges for fn to run at absolute time t, which must not precede
// the current time.
func (s *Sim) At(t units.Seconds, fn func()) {
	s.push(event{at: t, fn: fn})
}

// Post arranges for h.Fire(a, b) to run delay after the current time.
// Negative delays are rejected, as for Schedule.
func (s *Sim) Post(delay units.Seconds, h Handler, a, b int) {
	checkDelay(delay)
	s.push(event{at: s.now + delay, h: h, a: a, b: b})
}

func checkDelay(delay units.Seconds) {
	if delay < 0 {
		panic(fmt.Sprintf("des: negative delay %v", delay))
	}
}

// push stamps e with the next seq and sifts it up from the end of the
// heap.
func (s *Sim) push(e event) {
	if e.at < s.now {
		panic(fmt.Sprintf("des: event at %v scheduled from %v (past)", e.at, s.now))
	}
	e.seq = s.seq
	s.seq++
	q := append(s.queue, e)
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !e.Less(&q[parent]) {
			break
		}
		q[i] = q[parent]
		i = parent
	}
	q[i] = e
	s.queue = q
}

// pop removes the least event and sifts the last one down into the
// hole it leaves.
func (s *Sim) pop() event {
	q := s.queue
	top := q[0]
	n := len(q) - 1
	last := q[n]
	q = q[:n]
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && q[r].Less(&q[c]) {
			c = r
		}
		if !q[c].Less(&last) {
			break
		}
		q[i] = q[c]
		i = c
	}
	if n > 0 {
		q[i] = last
	}
	s.queue = q
	return top
}

// Run fires events in timestamp order until the calendar is empty and
// returns the final time.
func (s *Sim) Run() units.Seconds {
	for len(s.queue) > 0 {
		e := s.pop()
		s.now = e.at
		s.events++
		if e.fn != nil {
			e.fn()
		} else {
			e.h.Fire(e.a, e.b)
		}
	}
	return s.now
}
