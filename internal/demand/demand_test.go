package demand

import (
	"math"
	"strings"
	"testing"

	"repro/internal/apps/galaxy"
	"repro/internal/units"
	"repro/internal/workload"
)

func TestBasisEvaluation(t *testing.T) {
	cases := []struct {
		b    Basis
		n, a float64
		want float64
	}{
		{N(), 3, 5, 3},
		{N2(), 3, 5, 9},
		{NA(), 3, 5, 15},
		{N2A(), 3, 5, 45},
		{NA2(), 3, 5, 75},
		{Const(), 3, 5, 1},
		{NLog(1), 2, math.E - 1, 2},
	}
	for _, c := range cases {
		if got := c.b.Eval(c.n, c.a); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("%s(%g,%g) = %v, want %v", c.b.Name, c.n, c.a, got, c.want)
		}
	}
}

func TestFromFitEvaluates(t *testing.T) {
	m, err := FromFit("syn", []Basis{N(), NA()}, []float64{10, 2}, 0.99)
	if err != nil {
		t.Fatal(err)
	}
	got := float64(m.Demand(workload.Params{N: 3, A: 4}))
	if got != 10*3+2*12 {
		t.Fatalf("Demand = %v, want 54", got)
	}
}

func TestFromFitValidation(t *testing.T) {
	if _, err := FromFit("syn", []Basis{N()}, []float64{1, 2}, 0); err == nil {
		t.Fatal("mismatched bases/coeffs accepted")
	}
	if _, err := FromFit("syn", nil, nil, 0); err == nil {
		t.Fatal("empty model accepted")
	}
}

func TestNegativeClamped(t *testing.T) {
	m, err := FromFit("syn", []Basis{N()}, []float64{-5}, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if got := float64(m.Demand(workload.Params{N: 10, A: 1})); got != 0 {
		t.Fatalf("negative demand = %v, want clamp to 0", got)
	}
}

func TestFromApp(t *testing.T) {
	m := FromApp(galaxy.App{})
	p := workload.Params{N: 1000, A: 10}
	if m.Demand(p) != (galaxy.App{}).Demand(p) {
		t.Fatal("FromApp does not match the app's demand law")
	}
	if m.R2 != 1 {
		t.Fatalf("analytic model R2 = %v, want 1", m.R2)
	}
	if !strings.Contains(m.Form(), "analytic") {
		t.Fatalf("Form() = %q", m.Form())
	}
}

func TestFormRendersTerms(t *testing.T) {
	m, err := FromFit("syn", []Basis{NA(), N2A()}, []float64{5000, 262}, 1)
	if err != nil {
		t.Fatal(err)
	}
	form := m.Form()
	if !strings.Contains(form, "n*a") || !strings.Contains(form, "n^2*a") || !strings.Contains(form, "262") {
		t.Fatalf("Form() = %q", form)
	}
	if !strings.Contains(m.String(), "R²") {
		t.Fatalf("String() = %q", m.String())
	}
}

func TestParseBasisRoundTrip(t *testing.T) {
	for _, b := range []Basis{Const(), N(), N2(), NA(), N2A(), NA2(), NLog(99), NLog(10), NLog(1)} {
		got, err := ParseBasis(b.Name)
		if err != nil {
			t.Fatalf("ParseBasis(%q): %v", b.Name, err)
		}
		if got.Name != b.Name {
			t.Fatalf("round trip %q -> %q", b.Name, got.Name)
		}
		// Same function values.
		for _, p := range [][2]float64{{3, 5}, {1024, 0.32}} {
			if math.Abs(got.Eval(p[0], p[1])-b.Eval(p[0], p[1])) > 1e-12 {
				t.Fatalf("%q evaluates differently after parsing", b.Name)
			}
		}
	}
}

func TestParseBasisRejectsUnknown(t *testing.T) {
	for _, name := range []string{"", "n^3", "exp(a)", "n*ln(1+-5*a)", "n*ln(1+0*a)"} {
		if _, err := ParseBasis(name); err == nil {
			t.Errorf("ParseBasis(%q) accepted", name)
		}
	}
}

// TestTraceHashSeparatesAdjacentSteps: Hash keys the /v1/schedule
// cache, so step lengths one ULP apart must hash apart. Hashing the step
// through Hours() (a division by 3600) mapped about four in ten
// adjacent doubles onto the same value.
func TestTraceHashSeparatesAdjacentSteps(t *testing.T) {
	for _, start := range []units.Seconds{480, 500, 1000, 1800, 7200} {
		tr := Trace{Version: TraceVersion, Step: start, A: 50, N: []float64{6000, 12000}}
		prev := tr.Hash()
		for k := 0; k < 64; k++ {
			below := tr.Step
			tr.Step = units.Seconds(math.Nextafter(float64(below), math.Inf(1)))
			h := tr.Hash()
			if h == prev {
				t.Fatalf("steps %v and %v (one ULP apart) share hash %s", float64(below), float64(tr.Step), h)
			}
			prev = h
		}
	}
}
