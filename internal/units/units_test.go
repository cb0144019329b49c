package units

import (
	"math"
	"testing"
	"testing/quick"
)

func TestInstructionsBillions(t *testing.T) {
	if got := GI(2.5).Billions(); got != 2.5 {
		t.Fatalf("GI(2.5).Billions() = %v, want 2.5", got)
	}
	if got := Instructions(3e9).Billions(); got != 3 {
		t.Fatalf("Instructions(3e9).Billions() = %v, want 3", got)
	}
}

func TestRateRoundTrip(t *testing.T) {
	if got := GIPS(1.5).GIPSValue(); got != 1.5 {
		t.Fatalf("GIPS round trip = %v, want 1.5", got)
	}
}

func TestSecondsHours(t *testing.T) {
	if got := FromHours(24).Hours(); got != 24 {
		t.Fatalf("FromHours(24).Hours() = %v, want 24", got)
	}
	if got := Seconds(7200).Hours(); got != 2 {
		t.Fatalf("Seconds(7200).Hours() = %v, want 2", got)
	}
}

func TestHoursRoundTrip(t *testing.T) {
	// FromHours ∘ Hours and Seconds ∘ InHours are exact inverses for
	// representative values (×3600 and ÷3600 on the same bits).
	for _, h := range []float64{0, 1, 24, 48, 72, 0.5} {
		if got := FromHours(h).Hours(); got != h {
			t.Errorf("FromHours(%v).Hours() = %v", h, got)
		}
		if got := Hours(h).Seconds().InHours(); got != Hours(h) {
			t.Errorf("Hours(%v).Seconds().InHours() = %v", h, got)
		}
	}
	if got := Seconds(5400).InHours(); got != 1.5 {
		t.Fatalf("Seconds(5400).InHours() = %v, want 1.5", got)
	}
}

func TestGIRoundTrip(t *testing.T) {
	for _, b := range []float64{0, 1, 2.5, 8192} {
		if got := GI(b).Billions(); got != b {
			t.Errorf("GI(%v).Billions() = %v", b, got)
		}
	}
}

func TestTimeModel(t *testing.T) {
	// 100 Ginstr at 10 GIPS takes 10 seconds (Eq. 2).
	got := Time(GI(100), GIPS(10))
	if math.Abs(float64(got)-10) > 1e-9 {
		t.Fatalf("Time = %v, want 10s", got)
	}
}

func TestTimeZeroCapacity(t *testing.T) {
	if got := Time(GI(1), 0); !math.IsInf(float64(got), 1) {
		t.Fatalf("Time with zero capacity = %v, want +Inf", got)
	}
	if got := Time(GI(1), GIPS(-1)); !math.IsInf(float64(got), 1) {
		t.Fatalf("Time with negative capacity = %v, want +Inf", got)
	}
}

func TestSecondsIsInf(t *testing.T) {
	if !Time(GI(1), 0).IsInf() {
		t.Fatal("Time(GI(1), 0).IsInf() = false, want true")
	}
	if Seconds(math.Inf(-1)).IsInf() {
		t.Fatal("-Inf reported as the +Inf infeasibility sentinel")
	}
	if Seconds(1).IsInf() {
		t.Fatal("finite duration reported as +Inf")
	}
}

func TestOverInfinities(t *testing.T) {
	// A positive price rate held for the +Inf infeasibility sentinel
	// costs +Inf; the Rate integral behaves the same.
	if got := USDPerHour(1).Over(Seconds(math.Inf(1))); !math.IsInf(float64(got), 1) {
		t.Fatalf("USDPerHour.Over(+Inf) = %v, want +Inf", got)
	}
	if got := USDPerSecond(1).Over(Seconds(math.Inf(1))); !math.IsInf(float64(got), 1) {
		t.Fatalf("USDPerSecond.Over(+Inf) = %v, want +Inf", got)
	}
	if got := GIPS(1).Over(Seconds(math.Inf(1))); !math.IsInf(float64(got), 1) {
		t.Fatalf("Rate.Over(+Inf) = %v, want +Inf", got)
	}
	if got := USDPerHour(1).Over(Seconds(math.Inf(-1))); !math.IsInf(float64(got), -1) {
		t.Fatalf("USDPerHour.Over(-Inf) = %v, want -Inf", got)
	}
	// IEEE: 0 × Inf is NaN, not 0 — a free resource held forever is
	// indeterminate, and the model must not mask that.
	if got := USDPerHour(0).Over(Seconds(math.Inf(1))); !math.IsNaN(float64(got)) {
		t.Fatalf("USDPerHour(0).Over(+Inf) = %v, want NaN", got)
	}
}

func TestNaNPropagation(t *testing.T) {
	nan := math.NaN()
	if got := Hours(nan).Seconds(); !math.IsNaN(float64(got)) {
		t.Fatalf("Hours(NaN).Seconds() = %v, want NaN", got)
	}
	if got := Seconds(nan).InHours(); !math.IsNaN(float64(got)) {
		t.Fatalf("Seconds(NaN).InHours() = %v, want NaN", got)
	}
	if got := USDPerHour(nan).PerSecond(); !math.IsNaN(float64(got)) {
		t.Fatalf("USDPerHour(NaN).PerSecond() = %v, want NaN", got)
	}
	if got := USDPerSecond(nan).Over(1); !math.IsNaN(float64(got)) {
		t.Fatalf("USDPerSecond(NaN).Over(1) = %v, want NaN", got)
	}
	if got := USDPerHour(1).ForHours(Hours(nan)); !math.IsNaN(float64(got)) {
		t.Fatalf("ForHours(NaN) = %v, want NaN", got)
	}
}

func TestUSDPerSecondConsistency(t *testing.T) {
	// PerSecond().Over(d) must equal Over(d) bit for bit: Over is
	// defined through PerSecond.
	p := USDPerHour(0.105)
	d := FromHours(10)
	if a, b := p.Over(d), p.PerSecond().Over(d); a != b {
		t.Fatalf("Over(%v) = %v but PerSecond().Over = %v", d, a, b)
	}
}

func TestCostModel(t *testing.T) {
	// $1/h held for 2 hours costs $2 (Eq. 5).
	got := USDPerHour(1).Over(FromHours(2))
	if math.Abs(float64(got)-2) > 1e-9 {
		t.Fatalf("Cost = %v, want $2", got)
	}
}

func TestPerDollar(t *testing.T) {
	// Figure 3 normalization: 26.2e9 instr/s at $1/h reads 26.2e9.
	if got := PerDollar(GIPS(26.2), 1); math.Abs(got-26.2e9) > 1 {
		t.Fatalf("PerDollar = %v, want 26.2e9", got)
	}
	if got := PerDollar(GIPS(1), 0); !math.IsInf(got, 1) {
		t.Fatalf("PerDollar free resource = %v, want +Inf", got)
	}
	if got := PerDollar(0, 0); got != 0 {
		t.Fatalf("PerDollar zero/zero = %v, want 0", got)
	}
}

func TestUSDPerHourOver(t *testing.T) {
	got := USDPerHour(0.105).Over(FromHours(10))
	if math.Abs(float64(got)-1.05) > 1e-9 {
		t.Fatalf("Over = %v, want $1.05", got)
	}
}

func TestStringFormats(t *testing.T) {
	cases := []struct{ got, want string }{
		{GI(1.5).String(), "1.5 Ginstr"},
		{GIPS(2).String(), "2.00 GIPS"},
		{Seconds(30).String(), "30 s"},
		{FromHours(2).String(), "2.00 h"},
		{USD(3.5).String(), "$3.50"},
		{USDPerHour(0.105).String(), "$0.105/h"},
	}
	for _, c := range cases {
		if c.got != c.want {
			t.Errorf("String() = %q, want %q", c.got, c.want)
		}
	}
}

// Property: time model is inversely proportional to capacity — doubling
// capacity halves time for any positive demand.
func TestTimeInverseProperty(t *testing.T) {
	f := func(d, w float64) bool {
		if math.IsNaN(d) || math.IsNaN(w) {
			return true
		}
		demand := Instructions(math.Abs(math.Mod(d, 1e15)) + 1)
		cap1 := Rate(math.Abs(math.Mod(w, 1e12)) + 1)
		t1 := Time(demand, cap1)
		t2 := Time(demand, cap1*2)
		return math.Abs(float64(t1)/float64(t2)-2) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: cost model is linear in both time and price.
func TestCostLinearityProperty(t *testing.T) {
	f := func(h, p float64) bool {
		if math.IsNaN(h) || math.IsNaN(p) {
			return true
		}
		d := FromHours(math.Abs(math.Mod(h, 1e6)))
		price := USDPerHour(math.Abs(math.Mod(p, 1e6)))
		c1 := price.Over(d)
		c2 := price.Over(d * 2)
		c3 := (price * 2).Over(d)
		return floatsClose(float64(c2), 2*float64(c1)) && floatsClose(float64(c3), 2*float64(c1))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func floatsClose(a, b float64) bool {
	if a == b {
		return true
	}
	diff := math.Abs(a - b)
	scale := math.Max(math.Abs(a), math.Abs(b))
	return diff <= 1e-9*scale
}
