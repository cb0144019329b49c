package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"sort"
	"time"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/workload"
)

// request is one HTTP call of a stream: POST /v1/<Kind> with Body, due
// at Due after the stream starts.
type request struct {
	Due  time.Duration
	Kind string // analyze, mincost, mintime, maxaccuracy, schedule, risk
	App  string
	Body []byte
}

// Path is the request's route.
func (r request) Path() string { return "/v1/" + r.Kind }

// analyticKinds are the kinds the frontier index answers.
var analyticKinds = []string{"analyze", "mincost", "mintime", "maxaccuracy"}

// appModel holds what a generator needs to draw meaningful constraints
// for one application: its domain and two scales of the paper catalog,
// the fastest configuration's capacity and the cheapest price per
// instruction under per-second billing.
type appModel struct {
	name        string
	app         workload.App
	dom         workload.Domain
	uMax        float64 // instructions per second with every node mounted
	usdPerInstr float64 // cheapest node type's dollars per instruction
}

func newAppModels() []appModel {
	var out []appModel
	for _, name := range cli.AppNames() {
		app, err := cli.LookupApp(name)
		if err != nil {
			panic(err) // the registry lists only resolvable names
		}
		eng := core.NewPaperEngine(app)
		w, cost := eng.Capacities().NodeArrays()
		m := appModel{name: name, app: app, dom: app.Domain(), usdPerInstr: math.Inf(1)}
		for i := range w {
			m.uMax += float64(eng.Space().Max(i)) * float64(w[i])
			if p := float64(cost[i]) / 3600 / float64(w[i]); p < m.usdPerInstr {
				m.usdPerInstr = p
			}
		}
		out = append(out, m)
	}
	return out
}

// demand is the application's instruction count at (n, a).
func (m appModel) demand(n, a float64) float64 {
	return float64(m.app.Demand(workload.Params{N: n, A: a}))
}

// logUniform draws from [lo, hi] uniformly in log space, clamped so
// rounding never leaves the interval (the server rejects values
// outside an app's domain).
func logUniform(rng *rand.Rand, lo, hi float64) float64 {
	v := math.Exp(math.Log(lo) + rng.Float64()*(math.Log(hi)-math.Log(lo)))
	return math.Min(hi, math.Max(lo, v))
}

// Bodies are encoded from the benchmark's own structs, not the api
// package's, so a stream's bytes depend only on (workload, seed).
type analyticBody struct {
	App       string  `json:"app"`
	N         float64 `json:"n"`
	A         float64 `json:"a,omitempty"`
	DeadlineH float64 `json:"deadline_hours,omitempty"`
	BudgetUSD float64 `json:"budget_usd,omitempty"`
}

type traceBody struct {
	Version int       `json:"version"`
	App     string    `json:"app"`
	Name    string    `json:"name"`
	Step    float64   `json:"step_seconds"`
	A       float64   `json:"a"`
	N       []float64 `json:"steps_n"`
}

type scheduleBody struct {
	App   string    `json:"app"`
	Trace traceBody `json:"trace"`
}

type riskBody struct {
	App           string  `json:"app"`
	N             float64 `json:"n"`
	A             float64 `json:"a"`
	DeadlineH     float64 `json:"deadline_hours"`
	HazardPerHour float64 `json:"hazard_per_hour"`
	Trials        int     `json:"trials"`
	Seed          uint64  `json:"seed"`
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain structs of finite floats are encoded
	}
	return b
}

// analyticQuery draws one unique analytic query of the given kind:
// (n, a) log-uniform over the app's domain, a deadline between 1.2× and
// 40× the fastest configuration's time, and a budget between 1.05× and
// 3× the cheapest per-second cost, so most queries are feasible and the
// argmin lands anywhere along the frontier.
func analyticQuery(rng *rand.Rand, m appModel, kind string) request {
	n := logUniform(rng, m.dom.MinN, m.dom.MaxN)
	a := logUniform(rng, m.dom.MinA, m.dom.MaxA)
	return queryAt(rng, m, kind, n, a)
}

// paperQuery draws a query within 10% of the app's running example in
// the paper.
func paperQuery(rng *rand.Rand, m appModel, kind string) request {
	p := paperPoint[m.name]
	return queryAt(rng, m, kind, p.N*logUniform(rng, 0.9, 1.1), p.A*logUniform(rng, 0.9, 1.1))
}

var paperPoint = map[string]workload.Params{
	"galaxy": {N: 65536, A: 8000},
	"sand":   {N: 8.192e9, A: 0.32},
	"x264":   {N: 8000, A: 20},
}

// queryAt draws the constraints of a query at (n, a).
func queryAt(rng *rand.Rand, m appModel, kind string, n, a float64) request {
	d := m.demand(n, a)
	deadlineH := d / m.uMax * logUniform(rng, 1.2, 40) / 3600
	budget := d * m.usdPerInstr * logUniform(rng, 1.05, 3)
	b := analyticBody{App: m.name, N: n}
	switch kind {
	case "analyze":
		b.A, b.DeadlineH, b.BudgetUSD = a, deadlineH, budget
	case "mincost":
		b.A, b.DeadlineH = a, deadlineH
	case "mintime":
		b.A, b.BudgetUSD = a, budget
	case "maxaccuracy":
		b.DeadlineH = deadlineH
	}
	return request{Kind: kind, App: m.name, Body: mustJSON(b)}
}

// Plan-workload constants: every trace uses five-minute steps, and the
// peak problem needs at most planPeakFrac of the largest configuration's
// boot-adjusted step capacity, so every trace is feasible (no misses).
const (
	planStep     = 300.0
	planBoot     = 120.0
	planPeakFrac = 0.35
)

// planAccuracy is the fixed accuracy of each app's traces and risk
// queries, taken from the paper's running examples.
var planAccuracy = map[string]float64{"galaxy": 50, "sand": 0.32, "x264": 20}

// peakN finds the problem size whose demand fills planPeakFrac of the
// largest configuration's boot-adjusted capacity in one step.
func (m appModel) peakN(a float64) float64 {
	target := planPeakFrac * m.uMax * (planStep - planBoot)
	lo, hi := math.Log(m.dom.MinN), math.Log(m.dom.MaxN)
	for i := 0; i < 100; i++ {
		mid := (lo + hi) / 2
		if m.demand(math.Exp(mid), a) > target {
			hi = mid
		} else {
			lo = mid
		}
	}
	return math.Exp(lo)
}

// scheduleQuery draws a unique diurnal, bursty or ramp trace of 400 to
// 600 steps between a trough and the app's feasible peak.
func scheduleQuery(rng *rand.Rand, m appModel) request {
	a := planAccuracy[m.name]
	peak := m.peakN(a) * (0.6 + 0.4*rng.Float64())
	base := peak / (4 + 6*rng.Float64())
	steps := 400 + rng.IntN(201)
	shape := []string{"diurnal", "bursty", "ramp"}[rng.IntN(3)]
	ns := make([]float64, steps)
	period := 96 + rng.IntN(193)
	level := 0.0
	for t := range ns {
		var v float64
		switch shape {
		case "diurnal":
			v = base + (peak-base)*(0.5-0.5*math.Cos(2*math.Pi*float64(t%period)/float64(period)))
		case "bursty":
			level *= 0.8
			if rng.Float64() < 0.03 {
				level += peak - base
			}
			v = base + level
		case "ramp":
			v = base + (peak-base)*float64(t)/float64(steps-1)
		}
		// Jitter down only, so no step exceeds the feasible peak.
		ns[t] = math.Min(peak, v) * (1 - 0.05*rng.Float64())
	}
	tr := traceBody{Version: 1, App: m.name, Name: shape, Step: planStep, A: a, N: ns}
	return request{Kind: "schedule", App: m.name, Body: mustJSON(scheduleBody{App: m.name, Trace: tr})}
}

// riskQuery draws a Monte-Carlo deadline-risk query: a problem of about
// an hour on a mid-size configuration, a deadline 1.5× to 4× the fastest
// time, and 50 to 80 trials under a unique seed.
func riskQuery(rng *rand.Rand, m appModel) request {
	a := planAccuracy[m.name]
	n := m.peakN(a) * logUniform(rng, 6, 10)
	d := m.demand(n, a)
	b := riskBody{
		App:           m.name,
		N:             n,
		A:             a,
		DeadlineH:     d / m.uMax * logUniform(rng, 1.5, 4) / 3600,
		HazardPerHour: logUniform(rng, 0.02, 0.2),
		Trials:        50 + rng.IntN(31),
		Seed:          rng.Uint64(),
	}
	return request{Kind: "risk", App: m.name, Body: mustJSON(b)}
}

// freshMix draws unique analytic queries, kinds and apps uniform.
func freshMix(rng *rand.Rand, models []appModel) func() []request {
	return func() []request {
		m := models[rng.IntN(len(models))]
		return []request{analyticQuery(rng, m, analyticKinds[rng.IntN(len(analyticKinds))])}
	}
}

// hotZipf repeats analytic queries near the paper's examples with
// Zipf-skewed popularity over a slowly growing key set: an arrival
// introduces a new key with probability hotNewP (half of them as a
// burst of identical requests at one instant), and otherwise repeats
// the key of Zipf rank r (s = 1), newest first. New keys trickle in at
// a steady rate instead of a cold hot set missing all at once when the
// stream starts. A miss and its coalesced followers hold both
// connections for one index query (a few milliseconds); new keys are
// rare enough that the requests queued behind them stay under 1%, so
// the p99 is a hit's.
const (
	hotNewP    = 0.0003
	hotBurstLo = 2
	hotBurstHi = 4
)

func hotZipf(rng *rand.Rand, models []appModel) func() []request {
	var keys []request
	return func() []request {
		if len(keys) == 0 || rng.Float64() < hotNewP {
			m := models[rng.IntN(len(models))]
			k := paperQuery(rng, m, analyticKinds[rng.IntN(len(analyticKinds))])
			keys = append(keys, k)
			if rng.IntN(2) == 0 {
				return []request{k}
			}
			burst := make([]request, hotBurstLo+rng.IntN(hotBurstHi-hotBurstLo+1))
			for i := range burst {
				burst[i] = k
			}
			return burst
		}
		n := len(keys)
		rank := int(math.Exp(rng.Float64()*math.Log(float64(n)+1))) - 1
		return []request{keys[n-1-min(max(rank, 0), n-1)]}
	}
}

// planMix sends unique schedule and risk queries in the fixed pattern
// schedule, schedule, risk. A fixed share keeps the median inside the
// schedule solves' cluster; with a random share the median sat on the
// gap between the faster risk estimates and the solves and jumped with
// each seed's mix.
func planMix(rng *rand.Rand, models []appModel) func() []request {
	i := 0
	return func() []request {
		i++
		m := models[rng.IntN(len(models))]
		if i%3 == 0 {
			return []request{riskQuery(rng, m)}
		}
		return []request{scheduleQuery(rng, m)}
	}
}

// rngFor seeds a generator from (workload, seed, stream part): the same
// triple always yields the same draws.
func rngFor(wl string, seed uint64, part uint64) *rand.Rand {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(wl); i++ {
		h ^= uint64(wl[i])
		h *= 1099511628211
	}
	return rand.New(rand.NewPCG(seed^h, part))
}

// Stream parts: one generator per use, so adding requests to one never
// shifts the draws of another.
const (
	partOpenLoop = iota + 1
	partCapacity
	partLadder
	partVerify
)

// openLoopStream is the workload's constant-rate stream over d: request
// i is due at i/rate, except that a burst's members all share its first
// member's due time.
func openLoopStream(w *workloadSpec, seed uint64, models []appModel, d time.Duration) []request {
	rng := rngFor(w.name, seed, partOpenLoop)
	n := int(w.rate * d.Seconds())
	next := w.source(rng, models)
	out := make([]request, 0, n)
	for len(out) < n {
		due := time.Duration(float64(len(out)) / w.rate * float64(time.Second))
		for _, r := range next() {
			r.Due = due
			out = append(out, r)
		}
	}
	return out[:n]
}

// closedStream is an endless supply of the workload's requests for the
// closed-loop capacity phase, drawn from its own part of the seed.
func closedStream(w *workloadSpec, seed uint64, models []appModel) func() request {
	rng := rngFor(w.name, seed, partCapacity)
	next := w.source(rng, models)
	var buf []request
	return func() request {
		if len(buf) == 0 {
			buf = next()
		}
		r := buf[0]
		buf = buf[1:]
		return r
	}
}

// ladderStream is the traced run's fixed mini-mix: perKind unique
// queries of each analytic kind and planPerKind of each plan kind, so
// every per-route and per-kind span has samples on every workload.
func ladderStream(seed uint64, models []appModel, perKind, planPerKind int) []request {
	rng := rngFor("ladder", seed, partLadder)
	var out []request
	for i := 0; i < perKind; i++ {
		for _, k := range analyticKinds {
			out = append(out, analyticQuery(rng, models[i%len(models)], k))
		}
	}
	for i := 0; i < planPerKind; i++ {
		m := models[i%len(models)]
		out = append(out, scheduleQuery(rng, m), riskQuery(rng, m))
	}
	return out
}

// dumpLine is one request in a stream dump (JSON Lines). The body is
// kept verbatim, so replaying a dump sends byte-identical requests.
type dumpLine struct {
	DueNS int64           `json:"due_ns"`
	Kind  string          `json:"kind"`
	App   string          `json:"app"`
	Body  json.RawMessage `json:"body"`
}

func dumpStream(path string, reqs []request) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, r := range reqs {
		if err := enc.Encode(dumpLine{DueNS: int64(r.Due), Kind: r.Kind, App: r.App, Body: r.Body}); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func loadStream(path string) ([]request, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []request
	dec := json.NewDecoder(f)
	for dec.More() {
		var l dumpLine
		if err := dec.Decode(&l); err != nil {
			return nil, fmt.Errorf("%s: request %d: %w", path, len(out), err)
		}
		out = append(out, request{Due: time.Duration(l.DueNS), Kind: l.Kind, App: l.App, Body: []byte(l.Body)})
	}
	if !sort.SliceIsSorted(out, func(i, j int) bool { return out[i].Due < out[j].Due }) {
		return nil, fmt.Errorf("%s: requests are not in due order", path)
	}
	return out, nil
}
