// Command celia-bench measures the frontier-index speedup on the
// paper's configuration space and emits a machine-readable summary,
// so CI can archive per-commit numbers without asserting timings. Two
// exceptions are hard gates: loading a persisted index must beat
// rebuilding it by at least 2x, both timed as the best of five calls
// (each build cold, on a fresh engine), and the per-hour indexed Analyze must
// beat the per-hour scan by at least 20x — the first guards the
// startup path (a restore must stay decisively cheaper than the build
// it replaces), the second guards the billing-aware routing (the
// paper's own billing mode used to fall back to the full scan; a
// regression there silently re-opens the ~350ms slow path). The
// per-hour gate divides the one-call scan time by the indexed rung's
// mean over many calls.
//
// Example:
//
//	celia-bench -out BENCH_core.json -benchtime 3
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"

	"repro/internal/apps/galaxy"
	"repro/internal/cloudsim"
	"repro/internal/core"
	"repro/internal/demand"
	"repro/internal/faults"
	"repro/internal/faults/risk"
	"repro/internal/model"
	"repro/internal/schedule"
	"repro/internal/snapshot"
	"repro/internal/units"
	"repro/internal/workload"
)

type benchRow struct {
	Name    string  `json:"name"`
	NsPerOp int64   `json:"ns_per_op"`
	Ops     int     `json:"ops"`
	Speedup float64 `json:"speedup,omitempty"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("celia-bench: ")
	out := flag.String("out", "BENCH_core.json", "output path ('-' for stdout)")
	iters := flag.Int("benchtime", 1, "minimum iterations per rung")
	flag.Parse()
	if *iters < 1 {
		log.Fatal("-benchtime must be >= 1")
	}

	p := workload.Params{N: 65536, A: 8000}
	cons := core.Constraints{Deadline: units.FromHours(24), Budget: 350}
	scanEng := core.NewPaperEngine(galaxy.App{})
	idxEng := core.NewPaperEngine(galaxy.App{})

	// A rung repeats until it has run -benchtime times and for at least
	// minRungTime, so a microsecond-scale indexed rung records the mean
	// of many calls rather than a cold first one, while a ~0.5 s scan
	// still runs once.
	const minRungTime = 100 * time.Millisecond
	run := func(name string, fn func() error) benchRow {
		start := time.Now()
		ops := 0
		for ops < *iters || time.Since(start) < minRungTime {
			if err := fn(); err != nil {
				log.Fatalf("%s: %v", name, err)
			}
			ops++
		}
		elapsed := time.Since(start)
		return benchRow{
			Name:    name,
			NsPerOp: elapsed.Nanoseconds() / int64(ops),
			Ops:     ops,
		}
	}

	// bestOf times fn ops times and records the fastest call. The build
	// and the restore, which the snapshot gate compares, are both timed
	// this way: a single scheduler hiccup on a loaded CI box must not
	// read as a regression in the startup path on either side.
	bestOf := func(name string, ops int, fn func() error) benchRow {
		row := benchRow{Name: name, Ops: ops}
		for i := 0; i < ops; i++ {
			start := time.Now()
			if err := fn(); err != nil {
				log.Fatalf("%s: %v", name, err)
			}
			if ns := time.Since(start).Nanoseconds(); i == 0 || ns < row.NsPerOp {
				row.NsPerOp = ns
			}
		}
		return row
	}

	// Each timed build runs cold, on a fresh engine.
	buildRow := bestOf("FrontierIndexBuildPaper", 5, func() error {
		if _, ok := core.NewPaperEngine(galaxy.App{}).Frontier(); !ok {
			return fmt.Errorf("frontier index did not build")
		}
		return nil
	})
	if _, ok := idxEng.Frontier(); !ok {
		log.Fatal("frontier index did not build")
	}

	rows := []benchRow{
		run("AnalyzeScanPaper", func() error {
			_, err := scanEng.Analyze(p, cons, core.Options{})
			return err
		}),
		run("AnalyzeIndexedPaper", func() error {
			_, err := idxEng.Analyze(p, cons, core.Options{})
			return err
		}),
		run("MinCostScanPaper", func() error {
			_, ok, err := scanEng.MinCostExhaustive(p, cons.Deadline)
			if err == nil && !ok {
				return fmt.Errorf("infeasible")
			}
			return err
		}),
		run("MinCostIndexedPaper", func() error {
			_, ok, err := idxEng.MinCostForDeadline(p, cons.Deadline)
			if err == nil && !ok {
				return fmt.Errorf("infeasible")
			}
			return err
		}),
	}

	// Per-hour rungs: the same census under the paper-era billing
	// policy, routed through the same already-built index. Flipping the
	// billing is free — the staircase is billing-independent; only the
	// query-time cost function changes.
	scanEng.SetBilling(model.PerHour)
	idxEng.SetBilling(model.PerHour)
	rows = append(rows,
		run("AnalyzePerHourScanPaper", func() error {
			_, err := scanEng.Analyze(p, cons, core.Options{})
			return err
		}),
		run("AnalyzePerHourIndexedPaper", func() error {
			_, err := idxEng.Analyze(p, cons, core.Options{})
			return err
		}),
	)
	perHourMinCost := run("MinCostPerHourIndexedPaper", func() error {
		_, ok, err := idxEng.MinCostForDeadline(p, cons.Deadline)
		if err == nil && !ok {
			return fmt.Errorf("infeasible")
		}
		return err
	})
	scanEng.SetBilling(model.PerSecond)
	idxEng.SetBilling(model.PerSecond)

	for i := 1; i < len(rows); i += 2 {
		if rows[i].NsPerOp > 0 {
			rows[i].Speedup = float64(rows[i-1].NsPerOp) / float64(rows[i].NsPerOp)
		}
	}
	perHourIdx := rows[len(rows)-1]
	if perHourIdx.Name != "AnalyzePerHourIndexedPaper" {
		log.Fatalf("row order broken: %s where AnalyzePerHourIndexedPaper expected", perHourIdx.Name)
	}
	if perHourIdx.Speedup < 20 {
		log.Fatalf("per-hour indexed Analyze is only %.1fx faster than the scan; need >= 20x (the billing-aware index is the fix for the per-hour slow path)",
			perHourIdx.Speedup)
	}

	// Indexed rungs without a scan twin: the per-hour min-cost search,
	// and the accuracy bisection, one indexed min-cost search per probe
	// (its scan twin would take some twenty full scans).
	rows = append(rows, perHourMinCost, run("MaxAccuracyIndexedPaper", func() error {
		_, _, ok, err := idxEng.MaxAccuracy(p.N, cons, 1e-3)
		if err == nil && !ok {
			return fmt.Errorf("infeasible")
		}
		return err
	}))

	// The horizon-solver rung: a 1,000-step diurnal trace solved against
	// the already-built staircase. Its speedup is measured against the
	// naive alternative — one exhaustive min-cost scan per step.
	tr := demand.GoldenDiurnal()
	solveRow := run("ScheduleSolveDiurnal1k", func() error {
		s, err := schedule.Solve(idxEng, tr, schedule.PolicyFor(idxEng))
		if err == nil && s.Misses != 0 {
			return fmt.Errorf("%d missed steps on the golden trace", s.Misses)
		}
		return err
	})
	if scanNs := rows[2].NsPerOp; solveRow.NsPerOp > 0 && rows[2].Name == "MinCostScanPaper" {
		solveRow.Speedup = float64(int64(tr.Steps())*scanNs) / float64(solveRow.NsPerOp)
	}

	// The risk rung: a 200-trial Monte-Carlo estimate under Poisson
	// failures on the min-cost configuration for the 24-h deadline,
	// replayed through the cloud simulator. It has no gate and no scan
	// twin.
	best, ok, err := idxEng.MinCostForDeadline(p, cons.Deadline)
	if err != nil || !ok {
		log.Fatalf("RiskEstimateGalaxyPaper: no min-cost configuration (%v)", err)
	}
	riskOpts := risk.Options{
		Trials:        200,
		Seed:          1,
		HazardPerHour: 0.002,
		Deadline:      cons.Deadline,
		Sim:           cloudsim.DefaultOptions(),
		Recovery:      faults.DefaultRecovery(),
	}
	riskRow := run("RiskEstimateGalaxyPaper", func() error {
		_, err := risk.EstimateContext(context.Background(), galaxy.App{}, p, best.Config, idxEng.Capacities().Catalog(), riskOpts)
		return err
	})
	rows = append(rows, solveRow, riskRow, buildRow)

	// Snapshot rungs: persist the paper index and restore it into a cold
	// engine. Load speedup is measured against the in-process build it
	// replaces at startup; the ladder only pays off if restoring is
	// decisively cheaper than rebuilding, so a load slower than half the
	// build is a hard failure, not a data point.
	snapTmp, err := os.MkdirTemp("", "celia-bench-snap-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(snapTmp)
	snapPath := filepath.Join(snapTmp, "galaxy.frontier.snap")
	saveRow := run("SnapshotSavePaper", func() error {
		return snapshot.Save(snapPath, idxEng)
	})
	coldEng := core.NewPaperEngine(galaxy.App{})
	loadRow := bestOf("SnapshotLoadPaper", 5, func() error {
		return snapshot.Restore(snapPath, coldEng)
	})
	if loadRow.NsPerOp > 0 {
		loadRow.Speedup = float64(buildRow.NsPerOp) / float64(loadRow.NsPerOp)
	}
	if loadRow.Speedup < 2 {
		log.Fatalf("snapshot load is only %.1fx faster than the %.2fs build; need >= 2x",
			loadRow.Speedup, time.Duration(buildRow.NsPerOp).Seconds())
	}
	rows = append(rows, saveRow, loadRow)

	enc, err := json.MarshalIndent(rows, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	enc = append(enc, '\n')
	if *out == "-" {
		os.Stdout.Write(enc)
		return
	}
	if err := os.WriteFile(*out, enc, 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %s (%d benchmarks)\n", *out, len(rows))
}
