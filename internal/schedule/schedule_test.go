package schedule

import (
	"fmt"
	"hash/fnv"
	"io"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/apps/galaxy"
	"repro/internal/autoscale"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/demand"
	"repro/internal/ec2"
	"repro/internal/model"
	"repro/internal/units"
	"repro/internal/workload"
)

// testEngine is testAppEngine for galaxy.
func testEngine(t *testing.T, maxNodes int, billing model.Billing) *core.Engine {
	t.Helper()
	return testAppEngine(t, galaxy.App{}, maxNodes, billing)
}

// testAppEngine builds an engine for app over a truncated space
// (maxNodes per type) so index builds stay fast under -race.
func testAppEngine(t *testing.T, app workload.App, maxNodes int, billing model.Billing) *core.Engine {
	t.Helper()
	cat := ec2.Oregon()
	space, err := config.Uniform(cat.Len(), maxNodes)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.NewEngine(model.FromIPC(cat, app), demand.FromApp(app), space, app.Domain())
	if err != nil {
		t.Fatal(err)
	}
	eng.SetBilling(billing)
	return eng
}

// paperEngines holds the full paper galaxy engine per billing, built on
// first use and shared by the paper-scale tests: under -race each index
// build costs several seconds, far more than the solves on it.
var paperEngines struct {
	sync.Mutex
	byBilling map[model.Billing]*core.Engine
}

// paperEngine returns the shared paper galaxy engine under billing.
// Callers must not change its billing.
func paperEngine(billing model.Billing) *core.Engine {
	paperEngines.Lock()
	defer paperEngines.Unlock()
	if paperEngines.byBilling == nil {
		paperEngines.byBilling = make(map[model.Billing]*core.Engine)
	}
	eng, ok := paperEngines.byBilling[billing]
	if !ok {
		eng = core.NewPaperEngine(galaxy.App{})
		eng.SetBilling(billing)
		paperEngines.byBilling[billing] = eng
	}
	return eng
}

// pathDigest fingerprints the configuration each step of a schedule
// holds, in order, as 16 hex digits.
func pathDigest(sched Schedule) string {
	h := fnv.New64a()
	for _, st := range sched.Steps {
		io.WriteString(h, st.Config.String())
		io.WriteString(h, "\n")
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// testTrace is a small two-cycle diurnal well inside the truncated
// space's capacity.
func testTrace(steps int) demand.Trace {
	return demand.Diurnal(demand.DiurnalSpec{
		Steps:  steps,
		Step:   300,
		A:      50,
		BaseN:  2_000,
		PeakN:  20_000,
		Period: steps / 2,
		Jitter: 0.05,
		Seed:   7,
	})
}

func TestSolveDeterministic(t *testing.T) {
	tr := testTrace(40)
	pol := Policy{Boot: 120, Quantum: units.FromHours(1)}
	a, err := Solve(testEngine(t, 2, model.PerHour), tr, pol)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Solve(testEngine(t, 2, model.PerHour), tr, pol)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("two solves of the same trace disagree:\n%+v\nvs\n%+v", a, b)
	}
}

func TestSolveBeatsReactive(t *testing.T) {
	tr := testTrace(48)
	for _, billing := range []model.Billing{model.PerSecond, model.PerHour} {
		eng := testEngine(t, 2, billing)
		pol := PolicyFor(eng)
		solved, err := Solve(eng, tr, pol)
		if err != nil {
			t.Fatal(err)
		}
		base, err := Reactive(eng, tr, pol, autoscale.DefaultPolicy())
		if err != nil {
			t.Fatal(err)
		}
		if solved.Misses > base.Misses {
			t.Fatalf("%v: solver misses %d > reactive %d", billing, solved.Misses, base.Misses)
		}
		if solved.Misses == base.Misses && solved.TotalCost > base.TotalCost {
			t.Fatalf("%v: solver cost %v exceeds reactive %v", billing, solved.TotalCost, base.TotalCost)
		}
		if len(solved.Steps) != tr.Steps() || len(base.Steps) != tr.Steps() {
			t.Fatalf("%v: step counts %d/%d, want %d", billing, len(solved.Steps), len(base.Steps), tr.Steps())
		}
	}
}

func TestSolveQuantumChargesCarryover(t *testing.T) {
	tr := testTrace(48)
	eng := testEngine(t, 2, model.PerSecond)
	free, err := Solve(eng, tr, Policy{Boot: 120})
	if err != nil {
		t.Fatal(err)
	}
	held, err := Solve(eng, tr, Policy{Boot: 120, Quantum: units.FromHours(1)})
	if err != nil {
		t.Fatal(err)
	}
	if held.TotalCost < free.TotalCost {
		t.Fatalf("hourly quantum made the schedule cheaper: %v < %v", held.TotalCost, free.TotalCost)
	}
	if held.Switches > free.Switches {
		t.Fatalf("hourly quantum increased switching: %d > %d", held.Switches, free.Switches)
	}
	if free.ReleasePayout != 0 {
		t.Fatalf("per-second schedule owes a release payout: %v", free.ReleasePayout)
	}
}

func TestSolveIdlesThroughZeroDemand(t *testing.T) {
	tr := testTrace(30)
	for i := 10; i < 20; i++ {
		tr.N[i] = 0
	}
	eng := testEngine(t, 2, model.PerSecond)
	sched, err := Solve(eng, tr, Policy{Boot: 120})
	if err != nil {
		t.Fatal(err)
	}
	if sched.Misses != 0 {
		t.Fatalf("feasible trace missed %d steps", sched.Misses)
	}
	// Under per-second billing, holding capacity through a zero-demand
	// step only costs money: the optimum must release everything.
	for i := 10; i < 20; i++ {
		st := sched.Steps[i]
		if !st.Config.IsEmpty() || st.Cost != 0 {
			t.Fatalf("step %d of the zero-demand valley holds %v at %v", i, st.Config, st.Cost)
		}
	}
}

func TestSolveMarksInfeasibleSpike(t *testing.T) {
	tr := testTrace(20)
	tr.N[7] = 4_000_000 // beyond the truncated space's per-step capacity
	eng := testEngine(t, 2, model.PerSecond)
	sched, err := Solve(eng, tr, Policy{Boot: 120})
	if err != nil {
		t.Fatal(err)
	}
	if sched.Misses == 0 || !sched.Steps[7].Missed {
		t.Fatalf("impossible spike not marked missed: misses=%d step7=%+v", sched.Misses, sched.Steps[7])
	}
	if sched.Steps[7].Slack != 0 {
		t.Fatalf("missed step reports slack %v", sched.Steps[7].Slack)
	}
	for i, st := range sched.Steps {
		if i != 7 && st.Missed {
			t.Fatalf("step %d spuriously missed", i)
		}
	}
}

func TestSolveRejectsBrokenInputs(t *testing.T) {
	eng := testEngine(t, 2, model.PerSecond)
	tr := testTrace(10)

	bad := tr
	bad.Version = 2
	if _, err := Solve(eng, bad, Policy{}); err == nil {
		t.Fatal("wrong trace version accepted")
	}
	if _, err := Solve(eng, tr, Policy{Boot: tr.Step + 1}); err == nil {
		t.Fatal("boot longer than a step accepted")
	}
	if _, err := Solve(eng, tr, Policy{Quantum: -1}); err == nil {
		t.Fatal("negative quantum accepted")
	}
	outside := tr
	outside.N = append([]float64(nil), tr.N...)
	outside.N[3] = 1 // below galaxy's MinN
	_, err := Solve(eng, outside, Policy{})
	if err == nil || !strings.Contains(err.Error(), "step 3") {
		t.Fatalf("domain violation not attributed to its step: %v", err)
	}
}

func TestReactiveDrainsIdleTail(t *testing.T) {
	tr := testTrace(30)
	for i := 15; i < 30; i++ {
		tr.N[i] = 0
	}
	eng := testEngine(t, 2, model.PerSecond)
	base, err := Reactive(eng, tr, PolicyFor(eng), autoscale.DefaultPolicy())
	if err != nil {
		t.Fatal(err)
	}
	head := base.Steps[14].Config.TotalNodes()
	tail := base.Steps[29].Config.TotalNodes()
	if tail >= head {
		t.Fatalf("reactive did not drain the idle tail: %d nodes at t=14, %d at t=29", head, tail)
	}
}

// TestGoldenDiurnalPaper pins the solved golden trace on the full
// paper engine: the regression anchor for the schedule subsystem and
// the quantitative savings-vs-reactive claim.
func TestGoldenDiurnalPaper(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale index build")
	}
	tr := demand.GoldenDiurnal()
	if got, want := tr.Hash(), "45b354f2600132c5"; got != want {
		t.Fatalf("golden trace hash %s, want %s", got, want)
	}
	if got, want := tr.Steps(), 1000; got != want {
		t.Fatalf("golden trace has %d steps, want %d", got, want)
	}

	for _, tc := range []struct {
		billing     model.Billing
		cost, rCost string // %.6f-rendered USD
		switches    int
		payout      string
		path        string // pathDigest of the 1,000 chosen configurations
	}{
		{model.PerSecond, "223.950083", "312.376583", 585, "0.000000", "43de0803ae41cc15"},
		{model.PerHour, "250.806083", "330.393167", 220, "4.305333", "91a5f04764964336"},
	} {
		eng := paperEngine(tc.billing)
		pol := PolicyFor(eng)
		sched, err := Solve(eng, tr, pol)
		if err != nil {
			t.Fatal(err)
		}
		base, err := Reactive(eng, tr, pol, autoscale.DefaultPolicy())
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%.6f", float64(sched.TotalCost)); got != tc.cost {
			t.Errorf("%v: solved cost %s, want %s", tc.billing, got, tc.cost)
		}
		if got := fmt.Sprintf("%.6f", float64(base.TotalCost)); got != tc.rCost {
			t.Errorf("%v: reactive cost %s, want %s", tc.billing, got, tc.rCost)
		}
		if got := fmt.Sprintf("%.6f", float64(sched.ReleasePayout)); got != tc.payout {
			t.Errorf("%v: release payout %s, want %s", tc.billing, got, tc.payout)
		}
		if sched.Switches != tc.switches {
			t.Errorf("%v: %d switches, want %d", tc.billing, sched.Switches, tc.switches)
		}
		if got := pathDigest(sched); got != tc.path {
			t.Errorf("%v: chosen-configuration digest %s, want %s", tc.billing, got, tc.path)
		}
		if sched.Misses != 0 || base.Misses != 0 {
			t.Errorf("%v: misses solved=%d reactive=%d, want 0", tc.billing, sched.Misses, base.Misses)
		}
		if sched.Candidates != 118 {
			t.Errorf("%v: %d candidates, want the 118-step paper staircase", tc.billing, sched.Candidates)
		}
		if sched.TotalCost > base.TotalCost {
			t.Errorf("%v: solved schedule costs more than reactive: %v > %v", tc.billing, sched.TotalCost, base.TotalCost)
		}
		if pct := SavingsPct(sched.TotalCost, base.TotalCost); pct < 20 {
			t.Errorf("%v: savings %.2f%%, want the pinned >20%% gap", tc.billing, pct)
		}
	}
}

func TestSavingsPct(t *testing.T) {
	if got := SavingsPct(75, 100); got != 25 {
		t.Fatalf("SavingsPct(75, 100) = %v, want 25", got)
	}
	if got := SavingsPct(10, 0); got != 0 {
		t.Fatalf("SavingsPct with free baseline = %v, want 0", got)
	}
}
