package des

import (
	"testing"

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
