package core

import (
	"context"
	"testing"

	"repro/internal/apps/galaxy"
	"repro/internal/model"
	"repro/internal/units"
	"repro/internal/workload"
)

// The benchmarks quantify the tentpole claim: one precomputed frontier
// index answers queries under either certified billing policy orders
// of magnitude faster than the exhaustive scan, at identical output.
// Run the paper-space pair with
//
//	go test ./internal/core -bench 'Analyze|Frontier|MinCost|MaxAccuracy' -benchtime 1x
//
// (CI's smoke invocation) or longer benchtimes for stable ratios.

var benchParams = workload.Params{N: 65536, A: 8000}

func benchCons() Constraints {
	return Constraints{Deadline: units.FromHours(24), Budget: 350}
}

func BenchmarkAnalyzeScanPaper(b *testing.B) {
	eng := NewPaperEngine(galaxy.App{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Analyze(benchParams, benchCons(), Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAnalyzeIndexedPaper(b *testing.B) {
	eng := NewPaperEngine(galaxy.App{})
	if _, ok := eng.Frontier(); !ok { // build outside the timed region
		b.Fatal("index did not build")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Analyze(benchParams, benchCons(), Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAnalyzePerHourScanPaper(b *testing.B) {
	eng := NewPaperEngine(galaxy.App{})
	eng.SetBilling(model.PerHour)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Analyze(benchParams, benchCons(), Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAnalyzePerHourIndexedPaper(b *testing.B) {
	eng := NewPaperEngine(galaxy.App{})
	eng.SetBilling(model.PerHour)
	if _, ok := eng.Frontier(); !ok { // build outside the timed region
		b.Fatal("index did not build under per-hour billing")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Analyze(benchParams, benchCons(), Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFrontierIndexBuildPaper(b *testing.B) {
	eng := NewPaperEngine(galaxy.App{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if buildFrontierIndex(eng) == nil {
			b.Fatal("build aborted")
		}
	}
}

func BenchmarkMinCostScanPaper(b *testing.B) {
	eng := NewPaperEngine(galaxy.App{})
	d, err := eng.Demand(benchParams)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok, err := eng.scanSearch(context.Background(), d, benchCons(), objectiveCost); err != nil || !ok {
			b.Fatal("infeasible")
		}
	}
}

func BenchmarkMinCostIndexedPaper(b *testing.B) {
	eng := NewPaperEngine(galaxy.App{})
	if _, ok := eng.Frontier(); !ok {
		b.Fatal("index did not build")
	}
	d, err := eng.Demand(benchParams)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := eng.indexFor().minSearch(eng, d, benchCons(), objectiveCost); !ok {
			b.Fatal("infeasible")
		}
	}
}

func BenchmarkMinCostPerHourIndexedPaper(b *testing.B) {
	eng := NewPaperEngine(galaxy.App{})
	eng.SetBilling(model.PerHour)
	if _, ok := eng.Frontier(); !ok {
		b.Fatal("index did not build under per-hour billing")
	}
	d, err := eng.Demand(benchParams)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := eng.indexFor().minSearch(eng, d, benchCons(), objectiveCost); !ok {
			b.Fatal("infeasible")
		}
	}
}

// BenchmarkMaxAccuracyIndexedPaper bisects the accuracy at the paper's
// running example: one indexed min-cost search per probe.
func BenchmarkMaxAccuracyIndexedPaper(b *testing.B) {
	eng := NewPaperEngine(galaxy.App{})
	if _, ok := eng.Frontier(); !ok {
		b.Fatal("index did not build")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, ok, err := eng.MaxAccuracy(benchParams.N, benchCons(), 1e-3); err != nil || !ok {
			b.Fatal("infeasible", err)
		}
	}
}
