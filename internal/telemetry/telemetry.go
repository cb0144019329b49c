// Package telemetry is a small dependency-free metrics core for the
// serving stack: named atomic counters, gauges, and log-linear latency
// histograms collected in a Registry and exported as expvar-style JSON
// (mounted by internal/api at GET /debug/metrics).
//
// All operations are safe for concurrent use and allocation-free on the
// hot path: a metric is looked up (or created) once and then updated
// with plain atomic instructions. Histograms use log-linear bucketing —
// power-of-two decades split into 8 linear sub-buckets — giving ≤ 12.5 %
// relative error on quantile estimates over a 2⁻²⁰..2⁴⁰ range, the same
// scheme HDR-style histograms use.
package telemetry

import (
	"encoding/json"
	"math"
	"net/http"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by d (d must be ≥ 0 for the value to stay
// monotone; this is not enforced).
func (c *Counter) Add(d int64) { c.v.Add(d) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value reports the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an instantaneous atomic value that can move both ways.
type Gauge struct{ v atomic.Int64 }

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add moves the gauge by d (negative d decreases it).
func (g *Gauge) Add(d int64) { g.v.Add(d) }

// Value reports the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram bucketing: values are mapped to (exponent, sub-bucket)
// pairs where the exponent is the power-of-two decade and each decade
// has histSub linear sub-buckets. Exponents are clamped to
// [histMinExp, histMaxExp); with histSub = 8 that is 60 decades × 8 =
// 480 buckets of 8 bytes each per histogram.
const (
	histSub    = 8
	histMinExp = -20 // 2⁻²⁰ ≈ 1e-6: microseconds when observing ms
	histMaxExp = 40  // 2⁴⁰ ≈ 1e12
	histSlots  = (histMaxExp - histMinExp) * histSub
)

// Histogram is a fixed-size log-linear histogram of non-negative
// float64 observations (typically latencies in milliseconds).
type Histogram struct {
	count   atomic.Int64
	sum     atomicFloat
	max     atomicFloat
	buckets [histSlots]atomic.Int64
}

// atomicFloat is a float64 updated via CAS on its bit pattern.
type atomicFloat struct{ bits atomic.Uint64 }

func (f *atomicFloat) add(d float64) {
	for {
		old := f.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + d)
		if f.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

func (f *atomicFloat) storeMax(v float64) {
	for {
		old := f.bits.Load()
		if math.Float64frombits(old) >= v {
			return
		}
		if f.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

func (f *atomicFloat) load() float64 { return math.Float64frombits(f.bits.Load()) }

// bucketIndex maps a positive value to its log-linear slot.
func bucketIndex(v float64) int {
	frac, exp := math.Frexp(v) // v = frac × 2^exp, frac ∈ [0.5, 1)
	e := exp - 1               // v = f2 × 2^e, f2 ∈ [1, 2)
	if e < histMinExp {
		return 0
	}
	if e >= histMaxExp {
		return histSlots - 1
	}
	sub := int((frac*2 - 1) * histSub) // (f2-1)·histSub ∈ [0, histSub)
	if sub >= histSub {
		sub = histSub - 1
	}
	return (e-histMinExp)*histSub + sub
}

// bucketUpper is the inclusive upper bound of slot i, used to report
// quantiles.
func bucketUpper(i int) float64 {
	e := i/histSub + histMinExp
	sub := i % histSub
	return math.Ldexp(1+float64(sub+1)/histSub, e)
}

// Observe records one value. Negative and NaN observations are counted
// in the lowest bucket so Count stays consistent with call volume, and
// +Inf is clamped to the top bucket's upper bound (2⁴⁰) so Sum, Max,
// and the quantiles stay finite — encoding/json refuses to marshal
// infinities, which would take down the /debug/metrics export.
func (h *Histogram) Observe(v float64) {
	if math.IsNaN(v) || v < 0 {
		v = 0
	}
	if math.IsInf(v, 1) {
		v = bucketUpper(histSlots - 1)
	}
	h.count.Add(1)
	h.sum.add(v)
	h.max.storeMax(v)
	if v <= 0 {
		h.buckets[0].Add(1)
		return
	}
	h.buckets[bucketIndex(v)].Add(1)
}

// Count reports the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum reports the running sum of observations.
func (h *Histogram) Sum() float64 { return h.sum.load() }

// Max reports the largest observation (0 when empty).
func (h *Histogram) Max() float64 { return h.max.load() }

// Quantile estimates the q-th quantile (q ∈ [0, 1]) as the upper bound
// of the bucket containing it. Zero when the histogram is empty.
func (h *Histogram) Quantile(q float64) float64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for i := 0; i < histSlots; i++ {
		seen += h.buckets[i].Load()
		if seen >= rank {
			return bucketUpper(i)
		}
	}
	return h.Max()
}

// snapshot is the exported JSON form of one histogram.
type histSnapshot struct {
	Count int64   `json:"count"`
	Sum   float64 `json:"sum"`
	Mean  float64 `json:"mean"`
	Max   float64 `json:"max"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
}

// Registry is a named collection of metrics. The zero value is not
// usable; call NewRegistry.
type Registry struct {
	mu     sync.RWMutex
	counts map[string]*Counter
	gauges map[string]*Gauge
	hists  map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counts: map[string]*Counter{},
		gauges: map[string]*Gauge{},
		hists:  map[string]*Histogram{},
	}
}

// Counter returns the counter with the given name, creating it on first
// use. Safe for concurrent use; the same name always yields the same
// counter.
func (r *Registry) Counter(name string) *Counter {
	r.mu.RLock()
	c, ok := r.counts[name]
	r.mu.RUnlock()
	if ok {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok = r.counts[name]; !ok {
		c = &Counter{}
		r.counts[name] = c
	}
	return c
}

// Gauge returns the gauge with the given name, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.RLock()
	g, ok := r.gauges[name]
	r.mu.RUnlock()
	if ok {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok = r.gauges[name]; !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the histogram with the given name, creating it on
// first use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.RLock()
	h, ok := r.hists[name]
	r.mu.RUnlock()
	if ok {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok = r.hists[name]; !ok {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// Snapshot returns the current state of every metric as a JSON-ready
// value: {"counters": {...}, "gauges": {...}, "histograms": {...}}.
func (r *Registry) Snapshot() map[string]interface{} {
	r.mu.RLock()
	defer r.mu.RUnlock()
	counters := make(map[string]int64, len(r.counts))
	for name, c := range r.counts {
		counters[name] = c.Value()
	}
	gauges := make(map[string]int64, len(r.gauges))
	for name, g := range r.gauges {
		gauges[name] = g.Value()
	}
	hists := make(map[string]histSnapshot, len(r.hists))
	for name, h := range r.hists {
		s := histSnapshot{
			Count: h.Count(),
			Sum:   h.Sum(),
			Max:   h.Max(),
			P50:   h.Quantile(0.50),
			P90:   h.Quantile(0.90),
			P99:   h.Quantile(0.99),
		}
		if s.Count > 0 {
			s.Mean = s.Sum / float64(s.Count)
		}
		hists[name] = s
	}
	return map[string]interface{}{
		"counters":   counters,
		"gauges":     gauges,
		"histograms": hists,
	}
}

// Handler serves the registry snapshot as indented JSON — the body of
// GET /debug/metrics.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(r.Snapshot())
	})
}
