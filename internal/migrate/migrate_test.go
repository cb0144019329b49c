package migrate

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/apps/galaxy"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/units"
	"repro/internal/workload"
)

func setup(t *testing.T) (*model.Capacities, *config.Space) {
	t.Helper()
	eng := core.NewPaperEngine(galaxy.App{})
	return eng.Capacities(), eng.Space()
}

func TestStayWhenAlreadyOptimal(t *testing.T) {
	caps, space := setup(t)
	// The engine's own optimum for this remaining work and deadline:
	// migrating away from it can only add overhead.
	eng := core.NewPaperEngine(galaxy.App{})
	p := workload.Params{N: 65536, A: 8000}
	pred, ok, err := eng.MinCostForDeadline(p, units.FromHours(24))
	if err != nil || !ok {
		t.Fatal(ok, err)
	}
	d, _ := eng.Demand(p)
	dec, err := Advise(caps, space, State{
		Current:           pred.Config,
		RemainingDemand:   d,
		RemainingDeadline: units.FromHours(24),
	}, DefaultOverheads())
	if err != nil {
		t.Fatal(err)
	}
	if dec.Migrate {
		t.Fatalf("advised migrating away from the optimum: %+v", dec)
	}
	if !dec.StayMeetsDeadline {
		t.Fatal("optimum declared infeasible")
	}
}

func TestMigrateWhenDeadlineTightens(t *testing.T) {
	caps, space := setup(t)
	var app galaxy.App
	d := app.Demand(workload.Params{N: 65536, A: 8000})
	// Running on a small cluster that cannot finish 90% of the work in
	// the 10 hours suddenly remaining.
	current := config.MustTuple(0, 2, 0, 0, 0, 0, 0, 0, 0)
	dec, err := Advise(caps, space, State{
		Current:           current,
		RemainingDemand:   units.Instructions(0.9 * float64(d)),
		RemainingDeadline: units.FromHours(10),
	}, DefaultOverheads())
	if err != nil {
		t.Fatal(err)
	}
	if dec.StayMeetsDeadline {
		t.Fatalf("small cluster claims to meet 10h: %+v", dec)
	}
	if !dec.Migrate {
		t.Fatal("must migrate when staying misses the deadline")
	}
	if float64(dec.MoveTime) >= 10*3600 {
		t.Fatalf("migration target still misses the deadline: %v", dec.MoveTime)
	}
	if dec.Target == current {
		t.Fatal("migration target equals the current configuration")
	}
}

func TestMigrateWhenCheaperExists(t *testing.T) {
	caps, space := setup(t)
	var app galaxy.App
	d := app.Demand(workload.Params{N: 65536, A: 4000})
	// Running on an expensive all-r3 cluster with a loose deadline:
	// moving to c4 pays for the migration many times over.
	current := config.MustTuple(0, 0, 0, 0, 0, 0, 5, 5, 5)
	dec, err := Advise(caps, space, State{
		Current:           current,
		RemainingDemand:   d,
		RemainingDeadline: units.FromHours(72),
	}, DefaultOverheads())
	if err != nil {
		t.Fatal(err)
	}
	if !dec.StayMeetsDeadline {
		t.Fatal("r3 cluster should meet 72h")
	}
	if !dec.Migrate {
		t.Fatalf("should migrate off the expensive cluster: stay %v vs move %v",
			dec.StayCost, dec.MoveCost)
	}
	if float64(dec.MoveCost) >= float64(dec.StayCost) {
		t.Fatalf("migration not cheaper: %v vs %v", dec.MoveCost, dec.StayCost)
	}
}

func TestStayWhenOverheadDominates(t *testing.T) {
	caps, space := setup(t)
	var app galaxy.App
	// Nearly done: only 1% of a small job remains; any migration
	// overhead dwarfs the possible saving.
	d := units.Instructions(0.01 * float64(app.Demand(workload.Params{N: 32768, A: 1000})))
	current := config.MustTuple(0, 0, 0, 0, 0, 0, 2, 0, 0) // r3, inefficient
	huge := Overheads{Checkpoint: 3600, Restore: 3600}
	dec, err := Advise(caps, space, State{
		Current:           current,
		RemainingDemand:   d,
		RemainingDeadline: units.FromHours(24),
	}, huge)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Migrate {
		t.Fatalf("advised a migration that cannot pay off: %+v", dec)
	}
}

func TestAdviseValidation(t *testing.T) {
	caps, space := setup(t)
	ok := State{
		Current:           config.MustTuple(1, 0, 0, 0, 0, 0, 0, 0, 0),
		RemainingDemand:   units.GI(100),
		RemainingDeadline: units.FromHours(1),
	}
	bad := []State{
		{Current: ok.Current, RemainingDemand: 0, RemainingDeadline: ok.RemainingDeadline},
		{Current: ok.Current, RemainingDemand: ok.RemainingDemand, RemainingDeadline: 0},
		{Current: config.MustTuple(9, 0, 0, 0, 0, 0, 0, 0, 0), RemainingDemand: ok.RemainingDemand, RemainingDeadline: ok.RemainingDeadline},
	}
	for i, st := range bad {
		if _, err := Advise(caps, space, st, DefaultOverheads()); err == nil {
			t.Errorf("bad state %d accepted", i)
		}
	}
	if _, err := Advise(caps, space, ok, Overheads{Checkpoint: -1}); err == nil {
		t.Error("negative overhead accepted")
	}
	if _, err := Advise(caps, space, ok, DefaultOverheads()); err != nil {
		t.Errorf("valid state rejected: %v", err)
	}
}

func TestNoTargetAtImpossibleDeadline(t *testing.T) {
	caps, space := setup(t)
	var app galaxy.App
	d := app.Demand(workload.Params{N: 262144, A: 10000})
	dec, err := Advise(caps, space, State{
		Current:           config.MustTuple(1, 0, 0, 0, 0, 0, 0, 0, 0),
		RemainingDemand:   d,
		RemainingDeadline: units.FromHours(1),
	}, DefaultOverheads())
	if err != nil {
		t.Fatal(err)
	}
	if dec.Migrate {
		t.Fatal("advised migrating with no feasible target")
	}
	if !math.IsInf(float64(dec.MoveCost), 1) {
		t.Fatalf("move cost = %v, want +Inf", dec.MoveCost)
	}
}

func TestMoveCostAccountsOverheads(t *testing.T) {
	caps, space := setup(t)
	var app galaxy.App
	d := app.Demand(workload.Params{N: 65536, A: 4000})
	current := config.MustTuple(0, 0, 0, 0, 0, 0, 5, 5, 5)
	st := State{Current: current, RemainingDemand: d, RemainingDeadline: units.FromHours(72)}
	cheap, err := Advise(caps, space, st, Overheads{})
	if err != nil {
		t.Fatal(err)
	}
	costly, err := Advise(caps, space, st, Overheads{Checkpoint: 600, Restore: 600})
	if err != nil {
		t.Fatal(err)
	}
	if float64(costly.MoveCost) <= float64(cheap.MoveCost) {
		t.Fatalf("overheads did not raise move cost: %v vs %v", costly.MoveCost, cheap.MoveCost)
	}
}

// TestAdvisePaperPinned pins the decision that the root
// BenchmarkComparisonMigration reports: 70% of galaxy(65536, 8000)
// left on [0,0,0,0,0,0,5,5,5] with 36 h remaining. The target and the
// stay and move costs and times are pinned as float64 bits.
func TestAdvisePaperPinned(t *testing.T) {
	caps, space := setup(t)
	var app galaxy.App
	d := app.Demand(workload.Params{N: 65536, A: 8000})
	dec, err := Advise(caps, space, State{
		Current:           config.MustTuple(0, 0, 0, 0, 0, 0, 5, 5, 5),
		RemainingDemand:   units.Instructions(0.7 * float64(d)),
		RemainingDeadline: units.FromHours(36),
	}, DefaultOverheads())
	if err != nil {
		t.Fatal(err)
	}
	if !dec.Migrate || dec.Target != config.MustTuple(0, 5, 2, 0, 0, 0, 0, 0, 0) || !dec.StayMeetsDeadline {
		t.Errorf("decision = %+v, want a migration to [0,5,2,0,0,0,0,0,0] with stay meeting the deadline", dec)
	}
	bits := func(x float64) string { return fmt.Sprintf("%x", math.Float64bits(x)) }
	got := strings.Join([]string{bits(float64(dec.StayCost)), bits(float64(dec.StayTime)), bits(float64(dec.MoveCost)), bits(float64(dec.MoveTime))}, " ")
	if want := "4060b296d4d52770 40f430a6a3e833ec 4050b58b22f340b8 40ff22a86dd432cc"; got != want {
		t.Errorf("stay cost, stay time, move cost, move time bits = %s, want %s", got, want)
	}
}
