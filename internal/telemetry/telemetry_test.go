package telemetry

import (
	"encoding/json"
	"math"
	"net/http/httptest"
	"sync"
	"testing"
)

func TestCounterConcurrent(t *testing.T) {
	r := NewRegistry()
	const goroutines, per = 16, 1000
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.Counter("hits") // same name from every goroutine
			for j := 0; j < per; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("hits").Value(); got != goroutines*per {
		t.Fatalf("counter = %d, want %d", got, goroutines*per)
	}
}

func TestGauge(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("inflight")
	g.Add(3)
	g.Add(-1)
	if g.Value() != 2 {
		t.Fatalf("gauge = %d, want 2", g.Value())
	}
	g.Set(7)
	if g.Value() != 7 {
		t.Fatalf("gauge = %d, want 7", g.Value())
	}
}

func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	// 1..1000 ms uniformly: p50 ≈ 500, p99 ≈ 990, within log-linear
	// bucket resolution (12.5 % relative error).
	for v := 1; v <= 1000; v++ {
		h.Observe(float64(v))
	}
	if h.Count() != 1000 {
		t.Fatalf("count = %d", h.Count())
	}
	if math.Abs(h.Sum()-500500) > 1e-6 {
		t.Fatalf("sum = %v", h.Sum())
	}
	if h.Max() != 1000 {
		t.Fatalf("max = %v", h.Max())
	}
	for _, tc := range []struct{ q, want float64 }{
		{0.50, 500}, {0.90, 900}, {0.99, 990},
	} {
		got := h.Quantile(tc.q)
		if got < tc.want || got > tc.want*1.15 {
			t.Errorf("q%v = %v, want within [%v, %v]", tc.q, got, tc.want, tc.want*1.15)
		}
	}
}

func TestHistogramEdgeValues(t *testing.T) {
	var h Histogram
	h.Observe(0)
	h.Observe(-5)
	h.Observe(math.NaN())
	h.Observe(1e-9) // below the lowest decade
	h.Observe(1e15) // above the highest decade
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5 (every observation lands somewhere)", h.Count())
	}
	if q := h.Quantile(1.0); q < 1e12 {
		t.Fatalf("p100 = %v, want clamped top bucket", q)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			h := r.Histogram("latency_ms")
			for j := 0; j < 500; j++ {
				h.Observe(float64(seed*500+j) / 7)
			}
		}(i)
	}
	wg.Wait()
	if got := r.Histogram("latency_ms").Count(); got != 4000 {
		t.Fatalf("count = %d, want 4000", got)
	}
}

func TestHandlerJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("serving.cache.hits").Add(3)
	r.Gauge("serving.inflight").Set(1)
	r.Histogram("http.analyze.ms").Observe(12.5)

	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content-type = %q", ct)
	}
	var body struct {
		Counters   map[string]int64 `json:"counters"`
		Gauges     map[string]int64 `json:"gauges"`
		Histograms map[string]struct {
			Count int64   `json:"count"`
			Mean  float64 `json:"mean"`
			P99   float64 `json:"p99"`
		} `json:"histograms"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	if body.Counters["serving.cache.hits"] != 3 {
		t.Fatalf("counters = %v", body.Counters)
	}
	if body.Gauges["serving.inflight"] != 1 {
		t.Fatalf("gauges = %v", body.Gauges)
	}
	h := body.Histograms["http.analyze.ms"]
	if h.Count != 1 || h.Mean != 12.5 || h.P99 < 12.5 {
		t.Fatalf("histogram = %+v", h)
	}
}

func TestHistogramInfObservation(t *testing.T) {
	var h Histogram
	h.Observe(math.Inf(1))  // was a panic: Frexp(+Inf) gave a negative bucket index
	h.Observe(math.Inf(-1)) // negative path: lands in the lowest bucket
	h.Observe(1)
	if h.Count() != 3 {
		t.Fatalf("count = %d, want 3", h.Count())
	}
	top := bucketUpper(histSlots - 1)
	if h.Max() != top {
		t.Fatalf("max = %v, want +Inf clamped to top bucket bound %v", h.Max(), top)
	}
	if math.IsInf(h.Sum(), 0) || math.IsNaN(h.Sum()) {
		t.Fatalf("sum = %v, want finite", h.Sum())
	}
	if q := h.Quantile(1.0); math.IsInf(q, 0) || q < 1 {
		t.Fatalf("p100 = %v, want finite and >= 1", q)
	}
}

func TestSnapshotJSONStaysFiniteUnderEdgeObservations(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("edge.latency.ms")
	for _, v := range []float64{0, -1, math.NaN(), math.Inf(1), math.Inf(-1), 3.5} {
		h.Observe(v)
	}
	if _, err := json.Marshal(r.Snapshot()); err != nil {
		t.Fatalf("snapshot with edge observations must stay marshalable: %v", err)
	}
}

func TestSnapshotDuringConcurrentObserve(t *testing.T) {
	r := NewRegistry()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			h := r.Histogram("live.latency.ms")
			c := r.Counter("live.requests")
			for j := 0; ; j++ {
				select {
				case <-stop:
					return
				default:
				}
				c.Inc()
				switch j % 5 {
				case 0:
					h.Observe(math.Inf(1))
				case 1:
					h.Observe(0)
				default:
					h.Observe(float64(seed*100+j) / 3)
				}
			}
		}(i)
	}
	for i := 0; i < 50; i++ {
		if _, err := json.Marshal(r.Snapshot()); err != nil {
			close(stop)
			wg.Wait()
			t.Fatalf("snapshot %d failed mid-traffic: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()
	if r.Histogram("live.latency.ms").Count() != r.Counter("live.requests").Value() {
		t.Fatalf("count = %d, requests = %d: every observation must land",
			r.Histogram("live.latency.ms").Count(), r.Counter("live.requests").Value())
	}
}
