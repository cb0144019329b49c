package des

import (
	"sort"
	"testing"

	"repro/internal/detrand"
	"repro/internal/units"
)

func TestEventsFireInTimeOrder(t *testing.T) {
	var s Sim
	var order []int
	s.Schedule(30, func() { order = append(order, 3) })
	s.Schedule(10, func() { order = append(order, 1) })
	s.Schedule(20, func() { order = append(order, 2) })
	end := s.Run()
	if end != 30 {
		t.Fatalf("final time = %v, want 30", end)
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
}

func TestSimultaneousEventsFIFO(t *testing.T) {
	var s Sim
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		s.Schedule(10, func() { order = append(order, i) })
	}
	s.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("simultaneous events out of scheduling order: %v", order)
		}
	}
}

func TestNestedScheduling(t *testing.T) {
	var s Sim
	var times []units.Seconds
	s.Schedule(5, func() {
		times = append(times, s.Now())
		s.Schedule(7, func() {
			times = append(times, s.Now())
		})
	})
	end := s.Run()
	if end != 12 || len(times) != 2 || times[0] != 5 || times[1] != 12 {
		t.Fatalf("end=%v times=%v", end, times)
	}
}

func TestNegativeDelayPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative delay did not panic")
		}
	}()
	var s Sim
	s.Schedule(-1, func() {})
}

func TestAtPastPanics(t *testing.T) {
	var s Sim
	s.Schedule(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("past event did not panic")
			}
		}()
		s.At(5, func() {})
	})
	s.Run()
}

func TestEventCount(t *testing.T) {
	var s Sim
	for i := 0; i < 100; i++ {
		s.Schedule(units.Seconds(i), func() {})
	}
	s.Run()
	if s.Events() != 100 {
		t.Fatalf("Events = %d, want 100", s.Events())
	}
}

func TestManyEventsStress(t *testing.T) {
	// A chain of 100k self-scheduling events exercises the heap.
	var s Sim
	count := 0
	var tick func()
	tick = func() {
		count++
		if count < 100000 {
			s.Schedule(1, tick)
		}
	}
	s.Schedule(1, tick)
	end := s.Run()
	if count != 100000 || end != 100000 {
		t.Fatalf("count=%d end=%v", count, end)
	}
}

// firing is one fired event: its index in scheduling order and the
// clock when it fired.
type firing struct {
	id  int
	now units.Seconds
}

// recordForm is the record form of the property test's events, posted
// as (id, -id).
type recordForm struct {
	t    *testing.T
	fire func(id int)
}

func (r recordForm) Fire(id, neg int) {
	if neg != -id {
		r.t.Errorf("record (%d, %d) fired, want (%d, %d)", id, neg, id, -id)
	}
	r.fire(id)
}

func TestCalendarOrderProperty(t *testing.T) {
	// Delays come from a small set, so many events tie, and fired events
	// schedule more: closures by delay or by time, and records. Every
	// event must fire once, at its time, in (at, seq) order, which is
	// the scheduling log stably sorted by time: a child fires no earlier
	// than its parent, and on a tie it holds the later seq.
	delays := []units.Seconds{0, 0.25, 1, 1, 2, 7}
	for seed := uint64(1); seed <= 40; seed++ {
		rng := detrand.New(seed)
		pick := func(n int) int { return int(rng.Uint64() % uint64(n)) }
		var s Sim
		var at []units.Seconds // every event's time, in scheduling order
		var fired []firing
		var schedule func()
		fire := func(id int) {
			fired = append(fired, firing{id, s.Now()})
			for k := pick(3); k > 0 && len(at) < 3000; k-- {
				schedule()
			}
		}
		rec := recordForm{t, fire}
		schedule = func() {
			id := len(at)
			d := delays[pick(len(delays))]
			at = append(at, s.Now()+d)
			switch pick(3) {
			case 0:
				s.Schedule(d, func() { fire(id) })
			case 1:
				s.At(s.Now()+d, func() { fire(id) })
			default:
				s.Post(d, rec, id, -id)
			}
		}
		for i := 0; i < 60; i++ {
			schedule()
		}
		s.Run()

		want := make([]int, len(at))
		for i := range want {
			want[i] = i
		}
		sort.SliceStable(want, func(i, j int) bool { return at[want[i]] < at[want[j]] })
		if len(fired) != len(at) || s.Events() != uint64(len(at)) {
			t.Fatalf("seed %d: %d events scheduled, %d fired, Events() = %d", seed, len(at), len(fired), s.Events())
		}
		for k, f := range fired {
			if f.id != want[k] || f.now != at[f.id] {
				t.Fatalf("seed %d: firing %d was event %d at %v, want event %d at %v",
					seed, k, f.id, f.now, want[k], at[want[k]])
			}
		}
	}
}
