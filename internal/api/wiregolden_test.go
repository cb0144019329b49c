package api

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/apps/galaxy"
	"repro/internal/apps/sand"
	"repro/internal/apps/x264"
	"repro/internal/core"
	"repro/internal/demand"
	"repro/internal/detrand"
	"repro/internal/model"
	"repro/internal/serving"
	"repro/internal/workload"
)

// wireRequest is one POST of the wire golden: a route and its body.
type wireRequest struct {
	path, body string
}

// wireApp holds what the golden's generator needs to draw meaningful
// constraints for one paper application: the fastest configuration's
// capacity and the cheapest node's dollars per instruction under
// per-second billing.
type wireApp struct {
	app         workload.App
	uMax        float64
	usdPerInstr float64
}

func newWireApp(app workload.App) wireApp { return wireAppOn(app, core.NewPaperEngine(app)) }

// wireAppOn is newWireApp over an engine of any configuration space.
func wireAppOn(app workload.App, eng *core.Engine) wireApp {
	w, cost := eng.Capacities().NodeArrays()
	m := wireApp{app: app, usdPerInstr: math.Inf(1)}
	for i := range w {
		m.uMax += float64(eng.Space().Max(i)) * float64(w[i])
		m.usdPerInstr = math.Min(m.usdPerInstr, float64(cost[i])/3600/float64(w[i]))
	}
	return m
}

func (m wireApp) demand(n, a float64) float64 {
	return float64(m.app.Demand(workload.Params{N: n, A: a}))
}

// sizeFor is the problem size at accuracy a whose demand is instr,
// bisected in log space over the app's domain.
func (m wireApp) sizeFor(a, instr float64) float64 {
	dom := m.app.Domain()
	lo, hi := math.Log(dom.MinN), math.Log(dom.MaxN)
	for i := 0; i < 100; i++ {
		mid := (lo + hi) / 2
		if m.demand(math.Exp(mid), a) > instr {
			hi = mid
		} else {
			lo = mid
		}
	}
	return math.Exp(lo)
}

// wireGoldenRequests draws the golden's fixed request set for one app.
// The analytic queries take the benchmark's fresh-mix shape: (n, a)
// log-uniform over the domain, a deadline 1.2–40× the fastest time and
// a budget 1.05–3× the cheapest per-second cost. Beside them are the
// paper's running example, unconstrained and unmeetable queries, the
// three error statuses a body can earn, one risk estimate and one
// schedule.
func wireGoldenRequests(rng *detrand.Source, m wireApp) []wireRequest {
	dom := m.app.Domain()
	logUniform := func(lo, hi float64) float64 {
		v := math.Exp(math.Log(lo) + rng.Float64()*(math.Log(hi)-math.Log(lo)))
		return math.Min(hi, math.Max(lo, v))
	}
	enc := func(v any) string {
		b, err := json.Marshal(v)
		if err != nil {
			panic(err) // plain maps of finite floats and strings
		}
		return string(b)
	}
	name := m.app.Name()
	query := func(kind string, n, a float64) wireRequest {
		d := m.demand(n, a)
		deadlineH := d / m.uMax * logUniform(1.2, 40) / 3600
		budget := d * m.usdPerInstr * logUniform(1.05, 3)
		b := map[string]any{"app": name, "n": n}
		switch kind {
		case "analyze":
			b["a"], b["deadline_hours"], b["budget_usd"] = a, deadlineH, budget
		case "mincost":
			b["a"], b["deadline_hours"] = a, deadlineH
		case "mintime":
			b["a"], b["budget_usd"] = a, budget
		case "maxaccuracy":
			b["deadline_hours"] = deadlineH
		}
		return wireRequest{"/v1/" + kind, enc(b)}
	}
	var out []wireRequest
	for i := 0; i < 3; i++ {
		for _, kind := range []string{"analyze", "mincost", "mintime", "maxaccuracy"} {
			out = append(out, query(kind, logUniform(dom.MinN, dom.MaxN), logUniform(dom.MinA, dom.MaxA)))
		}
	}
	paper := map[string]workload.Params{
		"galaxy": {N: 65536, A: 8000},
		"sand":   {N: 8.192e9, A: 0.32},
		"x264":   {N: 8000, A: 20},
	}[name]
	for _, kind := range []string{"analyze", "mincost", "mintime", "maxaccuracy"} {
		out = append(out, query(kind, paper.N*logUniform(0.9, 1.1), paper.A*logUniform(0.9, 1.1)))
	}
	out = append(out,
		wireRequest{"/v1/analyze", enc(map[string]any{"app": name, "n": paper.N, "a": paper.A})},
		wireRequest{"/v1/mincost", enc(map[string]any{"app": name, "n": paper.N, "a": paper.A, "deadline_hours": 1e-9})},
		wireRequest{"/v1/mintime", enc(map[string]any{"app": name, "n": paper.N, "a": paper.A, "budget_usd": 1e-9})},
		wireRequest{"/v1/analyze", enc(map[string]any{"app": name, "n": paper.N, "a": paper.A, "deadline_hours": -1})},
		wireRequest{"/v1/mincost", enc(map[string]any{"app": name, "n": dom.MaxN * 2, "a": paper.A, "deadline_hours": 24})},
		wireRequest{"/v1/mintime", enc(map[string]any{"app": name + "-missing", "n": paper.N, "a": paper.A})},
	)

	// A risk problem of about an hour on the fastest configuration, and a
	// 24-step diurnal trace peaking at a third of one step's capacity.
	a := map[string]float64{"galaxy": 50, "sand": 0.32, "x264": 20}[name]
	n := m.sizeFor(a, m.uMax*3600)
	out = append(out, wireRequest{"/v1/risk", enc(map[string]any{
		"app": name, "n": n, "a": a, "deadline_hours": logUniform(1.5, 4),
		"hazard_per_hour": logUniform(0.02, 0.2), "trials": 8, "seed": rng.Uint64(),
	})})
	peak := m.sizeFor(a, m.uMax*(300-120)/3)
	tr := demand.Diurnal(demand.DiurnalSpec{
		Steps: 24, Step: 300, A: a, BaseN: peak / 5, PeakN: peak, Period: 12, Jitter: 0.03, Seed: rng.Uint64(),
	})
	out = append(out, wireRequest{"/v1/schedule", enc(map[string]any{"app": name, "trace": tr})})
	return out
}

// TestWireGoldenPaper pins the bytes the six POST routes answer on the
// three paper engines, under both billings, with the frontier indexes
// published: an FNV-64a digest per billing over each request's route,
// body, response status and response body, sent through the server the
// way celia-server assembles it. A change to the index's query
// algorithm (or to decode, the cache key, the Frontdoor or encode) that
// moves any answer byte fails here, beside the core-level certification
// of the index against the scan.
func TestWireGoldenPaper(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale index builds")
	}
	apps := []workload.App{galaxy.App{}, sand.App{}, x264.App{}}
	indexes := make([]*core.FrontierIndex, len(apps))
	models := make([]wireApp, len(apps))
	for i, app := range apps {
		x, ok := core.NewPaperEngine(app).Frontier()
		if !ok {
			t.Fatalf("%s: paper index did not build", app.Name())
		}
		indexes[i], models[i] = x, newWireApp(app)
	}
	for _, tc := range []struct {
		billing model.Billing
		digest  string
	}{
		{model.PerSecond, "cca63fd5e12871c1"},
		{model.PerHour, "666c502896e5dc71"},
	} {
		engines := make(map[string]*core.Engine, len(apps))
		mounted := make(map[string]workload.App, len(apps))
		for i, app := range apps {
			eng := core.NewPaperEngine(app)
			eng.SetBilling(tc.billing)
			if err := eng.InstallIndex(indexes[i]); err != nil {
				t.Fatal(err)
			}
			engines[app.Name()], mounted[app.Name()] = eng, app
		}
		fd, err := serving.NewFrontdoor(engines, serving.Config{})
		if err != nil {
			t.Fatal(err)
		}
		s, err := NewServer(fd, WithApps(mounted))
		if err != nil {
			t.Fatal(err)
		}
		rng := detrand.New(0x51de)
		h := fnv.New64a()
		statuses := map[int]int{}
		for _, m := range models {
			for _, rq := range wireGoldenRequests(rng, m) {
				rec := httptest.NewRecorder()
				s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, rq.path, strings.NewReader(rq.body)))
				statuses[rec.Code]++
				fmt.Fprintf(h, "%s %s\n%d %s\n", rq.path, rq.body, rec.Code, rec.Body.Bytes())
			}
		}
		// Footing: every route answered, and each error status showed.
		if statuses[http.StatusOK] != 3*21 || statuses[http.StatusBadRequest] != 3 ||
			statuses[http.StatusNotFound] != 3 || statuses[http.StatusUnprocessableEntity] != 3 {
			t.Errorf("%v: status counts %v, want 63×200 and 3 each of 400, 404 and 422", tc.billing, statuses)
		}
		if got := fmt.Sprintf("%016x", h.Sum64()); got != tc.digest {
			t.Errorf("%v: wire digest %s, want %s", tc.billing, got, tc.digest)
		}
	}
}
