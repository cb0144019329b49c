// Package units defines the typed physical quantities CELIA's models are
// expressed in: instruction counts, instruction-execution rates, durations,
// and money. The paper matches application resource demand (instructions)
// against cloud resource capacity (instructions per second), and prices
// capacity in dollars per hour; keeping these as distinct types prevents
// the unit mix-ups that plain float64 arithmetic invites.
package units

import (
	"fmt"
	"math"
)

// Instructions is a count of retired machine instructions. The paper uses
// it as the proxy for application resource demand (D in Table I).
type Instructions float64

// Billions of instructions, the unit Figure 2's axes use.
func (i Instructions) Billions() float64 { return float64(i) / 1e9 }

// GI constructs an instruction count from billions ("giga-instructions").
func GI(b float64) Instructions { return Instructions(b * 1e9) }

func (i Instructions) String() string {
	return fmt.Sprintf("%.1f Ginstr", i.Billions())
}

// Rate is an instruction-execution rate in instructions per second, the
// paper's proxy for resource capacity (W in Table I).
type Rate float64

// GIPS constructs a rate from giga-instructions per second.
func GIPS(g float64) Rate { return Rate(g * 1e9) }

// GIPSValue reports the rate in giga-instructions per second.
func (r Rate) GIPSValue() float64 { return float64(r) / 1e9 }

func (r Rate) String() string {
	return fmt.Sprintf("%.2f GIPS", r.GIPSValue())
}

// Seconds is a duration in seconds. CELIA predicts execution times of
// hours to days, so a float64 second count loses no useful precision.
type Seconds float64

// Hours converts to hours, the unit Table IV and Figures 4-6 use.
func (s Seconds) Hours() float64 { return float64(s) / 3600 }

// InHours converts the duration to the typed hour unit.
func (s Seconds) InHours() Hours { return Hours(float64(s) / 3600) }

// IsInf reports whether the duration is +Inf, the sentinel Time returns
// for an infeasible (zero-capacity) configuration.
func (s Seconds) IsInf() bool { return math.IsInf(float64(s), 1) }

// FromHours constructs a duration from hours.
func FromHours(h float64) Seconds { return Seconds(h * 3600) }

// Hours is a duration in hours, the unit deadlines are quoted in at the
// API boundary (Table IV's deadline column). It deliberately has no
// String method: request/response structs print it as a bare number.
type Hours float64

// Seconds converts the typed hour count to seconds.
func (h Hours) Seconds() Seconds { return Seconds(float64(h) * 3600) }

// Over returns the work completed by sustaining this rate for the
// duration (Eq. 3's capacity integrated over time).
func (r Rate) Over(d Seconds) Instructions { return Instructions(float64(r) * float64(d)) }

func (s Seconds) String() string {
	if s < 3600 {
		return fmt.Sprintf("%.0f s", float64(s))
	}
	return fmt.Sprintf("%.2f h", s.Hours())
}

// USD is an amount of money in United States dollars.
type USD float64

func (u USD) String() string { return fmt.Sprintf("$%.2f", float64(u)) }

// USDPerHour is a price rate, the unit Amazon quotes on-demand prices in
// (c_i in Table I).
type USDPerHour float64

// PerSecond converts the hourly price to a per-second price rate.
func (p USDPerHour) PerSecond() USDPerSecond { return USDPerSecond(float64(p) / 3600) }

// Over returns the cost of holding this price rate for the duration.
func (p USDPerHour) Over(d Seconds) USD { return p.PerSecond().Over(d) }

// ForHours returns the cost of holding this price rate for a whole
// number of billed hours (the 2017-era per-hour billing granularity).
func (p USDPerHour) ForHours(h Hours) USD { return USD(float64(p) * float64(h)) }

func (p USDPerHour) String() string { return fmt.Sprintf("$%.3f/h", float64(p)) }

// USDPerSecond is a price rate per second, the granularity per-second
// billing models (and Eq. 5 applied to second-typed durations) use.
type USDPerSecond float64

// Over returns the cost of holding this price rate for the duration.
func (p USDPerSecond) Over(d Seconds) USD { return USD(float64(p) * float64(d)) }

// Time applies the paper's time model (Eq. 2): execution time is demand
// divided by capacity. A zero capacity yields +Inf (the configuration can
// never finish), which the feasibility filter naturally rejects.
func Time(demand Instructions, capacity Rate) Seconds {
	if capacity <= 0 {
		return Seconds(math.Inf(1))
	}
	return Seconds(float64(demand) / float64(capacity))
}

// PerDollar reports a capacity's cost-efficiency in instructions per
// second per dollar per hour — the y-axis of Figure 3 ("normalized
// performance"). Returns +Inf for a free resource and 0 for zero capacity.
func PerDollar(w Rate, price USDPerHour) float64 {
	if price <= 0 {
		if w <= 0 {
			return 0
		}
		return math.Inf(1)
	}
	return float64(w) / float64(price)
}
