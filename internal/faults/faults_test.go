package faults

import (
	"math"
	"testing"

	"repro/internal/units"
)

func TestNewTraceSortsEvents(t *testing.T) {
	tr := NewTrace(Event{Instance: 2, At: 30}, Event{Instance: 0, At: 10}, Event{Instance: 1, At: 10})
	ev := tr.Events()
	if len(ev) != 3 || tr.Len() != 3 {
		t.Fatalf("trace has %d events, want 3", len(ev))
	}
	if ev[0].At != 10 || ev[0].Instance != 0 {
		t.Fatalf("first event %v, want instance 0 @ 10", ev[0])
	}
	if ev[1].Instance != 1 || ev[2].Instance != 2 {
		t.Fatalf("tie-break or order wrong: %v", ev)
	}
	if tr.Empty() {
		t.Fatal("non-empty trace reports empty")
	}
	if !(Trace{}).Empty() {
		t.Fatal("zero trace not empty")
	}
}

func TestTraceValidate(t *testing.T) {
	good := NewTrace(Event{Instance: 0, At: 5}, Event{Instance: 1, At: 8})
	if err := good.Validate(2); err != nil {
		t.Fatal(err)
	}
	if err := good.Validate(1); err == nil {
		t.Fatal("out-of-cluster instance accepted")
	}
	if err := NewTrace(Event{Instance: 0, At: -1}).Validate(1); err == nil {
		t.Fatal("negative time accepted")
	}
	if err := NewTrace(Event{Instance: 0, At: 1}, Event{Instance: 0, At: 2}).Validate(1); err == nil {
		t.Fatal("double failure of one instance accepted")
	}
}

func TestPoissonTraceDeterministic(t *testing.T) {
	a := PoissonTrace(7, 0.5, 10, units.FromHours(4))
	b := PoissonTrace(7, 0.5, 10, units.FromHours(4))
	if a.Len() != b.Len() {
		t.Fatalf("same seed, different event counts: %d vs %d", a.Len(), b.Len())
	}
	for i := range a.Events() {
		if a.Events()[i] != b.Events()[i] {
			t.Fatalf("same seed, different event %d: %v vs %v", i, a.Events()[i], b.Events()[i])
		}
	}
	c := PoissonTrace(8, 0.5, 10, units.FromHours(4))
	same := a.Len() == c.Len()
	if same {
		for i := range a.Events() {
			if a.Events()[i] != c.Events()[i] {
				same = false
				break
			}
		}
	}
	if same && a.Len() > 0 {
		t.Fatal("different seeds produced identical non-empty traces")
	}
}

func TestPoissonTraceRateMatchesHazard(t *testing.T) {
	// Over many instances, the fraction failing within one hour at
	// hazard λ must approach 1 − e^{−λ}.
	const hazard = 0.5
	const n = 20000
	tr := PoissonTrace(42, hazard, n, units.FromHours(1))
	if err := tr.Validate(n); err != nil {
		t.Fatal(err)
	}
	got := float64(tr.Len()) / n
	want := 1 - math.Exp(-hazard)
	if math.Abs(got-want) > 0.01 {
		t.Fatalf("failure fraction %.4f, want ≈ %.4f", got, want)
	}
}

func TestPoissonTraceDegenerateInputs(t *testing.T) {
	if !PoissonTrace(1, 0, 10, 3600).Empty() {
		t.Fatal("zero hazard produced events")
	}
	if !PoissonTrace(1, 1, 0, 3600).Empty() {
		t.Fatal("zero instances produced events")
	}
	if !PoissonTrace(1, 1, 10, 0).Empty() {
		t.Fatal("zero horizon produced events")
	}
}

func TestRecoveryValidate(t *testing.T) {
	if err := (Recovery{}).Validate(); err != nil {
		t.Fatalf("zero recovery invalid: %v", err)
	}
	if err := DefaultRecovery().Validate(); err != nil {
		t.Fatalf("default recovery invalid: %v", err)
	}
	if err := (Recovery{CheckpointEverySteps: -1}).Validate(); err == nil {
		t.Fatal("negative checkpoint interval accepted")
	}
	if err := (Recovery{CheckpointCost: -1}).Validate(); err == nil {
		t.Fatal("negative checkpoint cost accepted")
	}
	if err := (Recovery{FailoverDetection: -1}).Validate(); err == nil {
		t.Fatal("negative failover detection accepted")
	}
}

func TestModeAndEventStrings(t *testing.T) {
	if s := (Event{Instance: 3, At: 10}).String(); s == "" {
		t.Fatal("empty event string")
	}
	if (Trace{}).String() != "trace{}" {
		t.Fatal("empty trace string")
	}
}
