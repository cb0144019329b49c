// Demand traces: demand that varies over time. The paper's queries are
// one-shot — a single (n, a) point against a deadline or budget — but
// the elasticity setting it positions itself in is continuous: an
// application whose problem size changes from timestep to timestep and
// whose configuration must follow. A Trace is the versioned on-disk
// form of that setting, and the seeded generators below synthesize the
// three canonical shapes of the elasticity literature (diurnal cycle,
// flash crowd, capacity ramp) deterministically from a seed.
package demand

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math"

	"repro/internal/detrand"
	"repro/internal/units"
	"repro/internal/workload"
)

// TraceVersion is the demand-trace format version this build writes,
// and the only one it accepts.
const TraceVersion = 1

// MaxTraceSteps bounds the horizon a single trace may carry. The
// schedule solver keeps a steps × candidates parent table and, at worst,
// compares every candidate pair per step; 100k five-minute steps is
// most of a year, far past where a static plan stays credible.
const MaxTraceSteps = 100_000

// Trace is a fixed-interval demand trace: every Step seconds the
// application is handed a new problem of size N[t] at the shared
// accuracy A, and must finish it within the step. Carrying problem
// sizes rather than raw instruction counts keeps the trace independent
// of any one demand model — the engine's fitted model converts (n, a)
// to instructions, and the Monte-Carlo risk estimator can replay the
// same (n, a) against the real application.
type Trace struct {
	Version int           `json:"version"`
	App     string        `json:"app,omitempty"`  // intended application, advisory
	Name    string        `json:"name,omitempty"` // human label for reports
	Step    units.Seconds `json:"step_seconds"`
	A       float64       `json:"a"`       // shared accuracy parameter
	N       []float64     `json:"steps_n"` // problem size per step; 0 = idle step
}

// Validate checks the trace is well-formed: the supported version, a
// positive step length, 1..MaxTraceSteps steps, and finite,
// non-negative problem sizes. Whether each (n, a) lies inside an
// application's domain is the engine's concern, not the format's.
func (tr Trace) Validate() error {
	if tr.Version != TraceVersion {
		return fmt.Errorf("demand: trace version %d, want %d", tr.Version, TraceVersion)
	}
	if !(tr.Step > 0) || tr.Step.IsInf() {
		return fmt.Errorf("demand: trace step %v, want a positive finite duration", tr.Step)
	}
	if len(tr.N) == 0 {
		return fmt.Errorf("demand: trace has no steps")
	}
	if len(tr.N) > MaxTraceSteps {
		return fmt.Errorf("demand: trace has %d steps, cap is %d", len(tr.N), MaxTraceSteps)
	}
	if math.IsNaN(tr.A) || math.IsInf(tr.A, 0) {
		return fmt.Errorf("demand: trace accuracy %v is not finite", tr.A)
	}
	for t, n := range tr.N {
		if math.IsNaN(n) || math.IsInf(n, 0) || n < 0 {
			return fmt.Errorf("demand: step %d problem size %v, want finite and >= 0", t, n)
		}
	}
	return nil
}

// Steps reports the number of timesteps.
func (tr Trace) Steps() int { return len(tr.N) }

// Horizon reports the total covered duration.
func (tr Trace) Horizon() units.Seconds {
	return units.Seconds(float64(len(tr.N))) * tr.Step
}

// Params returns step t's workload parameters.
func (tr Trace) Params(t int) workload.Params {
	return workload.Params{N: tr.N[t], A: tr.A}
}

// Hash fingerprints the demand-relevant content of the trace (version,
// and the exact bit patterns of the step length, the accuracy and every
// problem size — not the advisory name fields) as 16 hex digits.
// POST /v1/schedule reports it as the response's trace_hash.
func (tr Trace) Hash() string {
	h := fnv.New64a()
	var buf [8]byte
	word := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	word(uint64(tr.Version))
	//lint:allow unitsafe fingerprinting hashes the exact IEEE bit pattern; no arithmetic happens on the raw value
	word(math.Float64bits(float64(tr.Step)))
	word(math.Float64bits(tr.A))
	word(uint64(len(tr.N)))
	for _, n := range tr.N {
		word(math.Float64bits(n))
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// Encode writes the trace as indented JSON.
func (tr Trace) Encode(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(tr)
}

// DecodeTrace reads one JSON trace, rejecting unknown fields and
// validating the result, so a schema typo fails loudly instead of
// silently zeroing a field.
func DecodeTrace(r io.Reader) (Trace, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var tr Trace
	if err := dec.Decode(&tr); err != nil {
		return Trace{}, fmt.Errorf("demand: decoding trace: %w", err)
	}
	if err := tr.Validate(); err != nil {
		return Trace{}, err
	}
	return tr, nil
}

// DiurnalSpec parameterizes a day/night demand cycle: problem size
// swings sinusoidally between BaseN (trough) and PeakN (peak) with
// period Period steps, plus multiplicative Gaussian jitter.
type DiurnalSpec struct {
	Steps  int
	Step   units.Seconds
	A      float64
	BaseN  float64
	PeakN  float64
	Period int     // steps per cycle; 0 means one cycle over the whole trace
	Jitter float64 // multiplicative noise: n ·= 1 + Jitter·Normal()
	Seed   uint64
}

// Diurnal synthesizes a diurnal trace. Deterministic for a fixed spec.
func Diurnal(spec DiurnalSpec) Trace {
	period := spec.Period
	if period <= 0 {
		period = spec.Steps
	}
	rng := detrand.New(detrand.Mix(spec.Seed, 0))
	tr := Trace{
		Version: TraceVersion,
		Name:    "diurnal",
		Step:    spec.Step,
		A:       spec.A,
		N:       make([]float64, spec.Steps),
	}
	for t := range tr.N {
		// Trough at t=0: phase rises from 0 to 1 and back each period.
		phase := 0.5 - 0.5*math.Cos(2*math.Pi*float64(t%period)/float64(period))
		n := spec.BaseN + (spec.PeakN-spec.BaseN)*phase
		tr.N[t] = jitter(n, spec.Jitter, rng)
	}
	return tr
}

// BurstySpec parameterizes a flash-crowd trace: a flat baseline with
// randomly arriving bursts that decay geometrically — the shape
// reactive scaling handles worst, since capacity lags the onset.
type BurstySpec struct {
	Steps  int
	Step   units.Seconds
	A      float64
	BaseN  float64
	BurstN float64 // size added to the burst level at each onset
	Onset  float64 // per-step probability of a new burst
	Decay  int     // steps for a burst to halve; <=0 means 1
	Jitter float64
	Seed   uint64
}

// Bursty synthesizes a flash-crowd trace. Deterministic for a fixed
// spec.
func Bursty(spec BurstySpec) Trace {
	decaySteps := spec.Decay
	if decaySteps <= 0 {
		decaySteps = 1
	}
	decay := math.Exp2(-1 / float64(decaySteps))
	rng := detrand.New(detrand.Mix(spec.Seed, 1))
	tr := Trace{
		Version: TraceVersion,
		Name:    "bursty",
		Step:    spec.Step,
		A:       spec.A,
		N:       make([]float64, spec.Steps),
	}
	level := 0.0
	for t := range tr.N {
		level *= decay
		if rng.Float64() < spec.Onset {
			level += spec.BurstN
		}
		tr.N[t] = jitter(spec.BaseN+level, spec.Jitter, rng)
	}
	return tr
}

// RampSpec parameterizes a linear growth (or drain) trace from FromN
// to ToN across the horizon.
type RampSpec struct {
	Steps  int
	Step   units.Seconds
	A      float64
	FromN  float64
	ToN    float64
	Jitter float64
	Seed   uint64
}

// Ramp synthesizes a linear-ramp trace. Deterministic for a fixed spec.
func Ramp(spec RampSpec) Trace {
	rng := detrand.New(detrand.Mix(spec.Seed, 2))
	tr := Trace{
		Version: TraceVersion,
		Name:    "ramp",
		Step:    spec.Step,
		A:       spec.A,
		N:       make([]float64, spec.Steps),
	}
	den := float64(spec.Steps - 1)
	for t := range tr.N {
		frac := 0.0
		if den > 0 {
			frac = float64(t) / den
		}
		tr.N[t] = jitter(spec.FromN+(spec.ToN-spec.FromN)*frac, spec.Jitter, rng)
	}
	return tr
}

// jitter applies multiplicative Gaussian noise and clamps at zero. It
// always consumes one deviate so a step's value depends only on its
// index, not on earlier steps' jitter settings.
func jitter(n, frac float64, rng *detrand.Source) float64 {
	g := rng.NormFloat64()
	if frac == 0 {
		return n
	}
	n *= 1 + frac*g
	if n < 0 {
		return 0
	}
	return n
}

// GoldenDiurnal is the pinned 1,000-step diurnal trace shared by the
// schedule golden tests and cmd/celia-bench's schedule-solve rung:
// 3½ simulated days of five-minute steps of the galaxy application,
// swinging between a trough one cheap node covers and a peak that
// needs a large slice of the paper catalog. Regenerating it with the
// same spec is bit-identical; the golden tests pin its Hash.
func GoldenDiurnal() Trace {
	tr := Diurnal(DiurnalSpec{
		Steps:  1000,
		Step:   300,
		A:      50,
		BaseN:  6_000,
		PeakN:  60_000,
		Period: 288, // 24 h of 5-minute steps
		Jitter: 0.04,
		Seed:   0x20170417, // the paper's ICPP-2017 vintage
	})
	tr.App = "galaxy"
	tr.Name = "golden-diurnal"
	return tr
}
