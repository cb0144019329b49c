package serving

import (
	"context"
	"encoding/json"
	"testing"

	"repro/internal/apps/galaxy"
	"repro/internal/core"
	"repro/internal/workload"
)

// analyzeCompute is the same work internal/api performs for
// POST /v1/analyze: a full configuration-space census plus JSON
// encoding of the frontier.
func analyzeCompute(q Query) func(context.Context, *core.Engine) ([]byte, error) {
	return func(_ context.Context, eng *core.Engine) ([]byte, error) {
		an, err := eng.Analyze(workload.Params{N: q.N, A: q.A}, core.Constraints{
			Deadline: q.DeadlineHours.Seconds(),
			Budget:   q.BudgetUSD,
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

var benchQuery = Query{Kind: "analyze", App: "galaxy", N: 65536, A: 8000, DeadlineHours: 24, BudgetUSD: 350}

// BenchmarkAnalyzeCold measures the uncached path: every iteration is a
// full S = 6⁹−1 census through the frontdoor (cache disabled).
func BenchmarkAnalyzeCold(b *testing.B) {
	f, err := NewFrontdoor(map[string]*core.Engine{
		"galaxy": core.NewPaperEngine(galaxy.App{}),
	}, Config{CacheBytes: -1})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := f.Do(context.Background(), benchQuery, analyzeCompute(benchQuery)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAnalyzeCached measures the hit path: one cold census to
// populate, then pure cache reads. The acceptance bar is ≥ 100× faster
// than BenchmarkAnalyzeCold; in practice the gap is ~10⁶ (nanoseconds
// vs hundreds of milliseconds).
func BenchmarkAnalyzeCached(b *testing.B) {
	f, err := NewFrontdoor(map[string]*core.Engine{
		"galaxy": core.NewPaperEngine(galaxy.App{}),
	}, Config{})
	if err != nil {
		b.Fatal(err)
	}
	if _, _, err := f.Do(context.Background(), benchQuery, analyzeCompute(benchQuery)); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, st, err := f.Do(context.Background(), benchQuery, analyzeCompute(benchQuery))
		if err != nil || st != StatusHit {
			b.Fatalf("status %v, err %v", st, err)
		}
	}
}

// TestCachedPathSpeedup asserts the acceptance criterion directly: the
// cached path is at least 100× faster than the cold census.
func TestCachedPathSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	f := newTestFrontdoor(t, Config{})
	cold := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			q := benchQuery
			q.N += float64(i) * 1e-9 // unique key: never cached
			if _, _, err := f.Do(context.Background(), q, analyzeCompute(q)); err != nil {
				b.Fatal(err)
			}
		}
	})
	warm := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, st, err := f.Do(context.Background(), benchQuery, analyzeCompute(benchQuery)); err != nil || st != StatusHit {
				b.Fatalf("status %v, err %v", st, err)
			}
		}
	})
	coldNs := float64(cold.NsPerOp())
	warmNs := float64(warm.NsPerOp())
	if warmNs <= 0 {
		warmNs = 1
	}
	if speedup := coldNs / warmNs; speedup < 100 {
		t.Fatalf("cached path only %.1f× faster than cold census (cold %.0f ns, warm %.0f ns)",
			speedup, coldNs, warmNs)
	}
}
