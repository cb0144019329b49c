package serving

import (
	"context"
	"encoding/json"
	"strconv"
	"testing"

	"repro/internal/core"
	"repro/internal/units"
	"repro/internal/workload"
)

// analyzeCompute is the same work internal/api performs for
// POST /v1/analyze: the census (answered from the engine's published
// index when it has one) plus JSON encoding of the frontier, for the
// paper's galaxy scenario at size n.
func analyzeCompute(n float64) func(context.Context, *core.Engine) ([]byte, error) {
	return func(_ context.Context, eng *core.Engine) ([]byte, error) {
		an, err := eng.Analyze(workload.Params{N: n, A: 8000}, core.Constraints{
			Deadline: units.Hours(24).Seconds(),
			Budget:   350,
		}, core.Options{})
		if err != nil {
			return nil, err
		}
		type row struct {
			Config []int   `json:"config"`
			TimeH  float64 `json:"time_hours"`
			CostUS float64 `json:"cost_usd"`
		}
		out := struct {
			Feasible uint64 `json:"feasible"`
			Frontier []row  `json:"frontier"`
		}{Feasible: an.Feasible}
		for _, f := range an.Frontier {
			out.Frontier = append(out.Frontier, row{f.Config.Counts(), f.Time.Hours(), float64(f.Cost)})
		}
		return json.Marshal(out)
	}
}

const benchN = 65536

var benchQuery = Query{Kind: "analyze", App: "galaxy", Extra: `{"n":65536,"a":8000,"deadline_hours":24,"budget_usd":350}`}

// BenchmarkAnalyzeCold measures the uncached path (cache disabled):
// galaxy is mounted with the shared paper index installed before the
// timer starts, so every iteration is an indexed leader — the census
// and argmin read the index, and nothing is built — whatever b.N is.
func BenchmarkAnalyzeCold(b *testing.B) {
	f, err := NewFrontdoor(map[string]*core.Engine{"galaxy": indexedGalaxy(b)}, Config{CacheBytes: -1})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := f.Do(context.Background(), benchQuery, analyzeCompute(benchN)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAnalyzeCached measures the hit path: one indexed leader to
// populate, then pure cache reads — the other side of
// BenchmarkAnalyzeCold's indexed leader.
func BenchmarkAnalyzeCached(b *testing.B) {
	f, err := NewFrontdoor(map[string]*core.Engine{"galaxy": indexedGalaxy(b)}, Config{})
	if err != nil {
		b.Fatal(err)
	}
	if _, _, err := f.Do(context.Background(), benchQuery, analyzeCompute(benchN)); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, st, err := f.Do(context.Background(), benchQuery, analyzeCompute(benchN))
		if err != nil || st != StatusHit {
			b.Fatalf("status %v, err %v", st, err)
		}
	}
}

// TestCachedPathSpeedup asserts the acceptance criterion directly: the
// cached path is at least 100× faster than an indexed leader (the
// frontdoor mounts galaxy with its index installed, every cold key is
// unique, and one Do stores benchQuery's key before the warm side, so
// each warm iteration is a hit).
func TestCachedPathSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	f := newTestFrontdoor(t, Config{})
	cold := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			n := benchN + float64(i)*1e-9 // unique key: never cached
			q := Query{Kind: "analyze", App: "galaxy", Extra: strconv.FormatFloat(n, 'g', -1, 64)}
			if _, _, err := f.Do(context.Background(), q, analyzeCompute(n)); err != nil {
				b.Fatal(err)
			}
		}
	})
	if _, _, err := f.Do(context.Background(), benchQuery, analyzeCompute(benchN)); err != nil {
		t.Fatal(err)
	}
	warm := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, st, err := f.Do(context.Background(), benchQuery, analyzeCompute(benchN)); err != nil || st != StatusHit {
				b.Fatalf("status %v, err %v", st, err)
			}
		}
	})
	if cold.N == 0 || warm.N == 0 {
		t.Fatalf("a side ran no iterations (cold N=%d, warm N=%d): its loop failed", cold.N, warm.N)
	}
	coldNs := float64(cold.NsPerOp())
	warmNs := float64(warm.NsPerOp())
	if speedup := coldNs / warmNs; speedup < 100 {
		t.Fatalf("cached path only %.1f× faster than an indexed leader (cold %.0f ns, warm %.0f ns)",
			speedup, coldNs, warmNs)
	}
}
