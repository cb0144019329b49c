package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/api"
	"repro/internal/autoscale"
	"repro/internal/cli"
	"repro/internal/cloudsim"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/demand"
	"repro/internal/faults"
	"repro/internal/faults/risk"
	"repro/internal/schedule"
	"repro/internal/serving"
	"repro/internal/snapshot"
	"repro/internal/units"
	"repro/internal/workload"
)

// span is one timed call at a layer boundary. Spans of one request
// share Req; Parent is the span that caused this one (-1 for roots).
type span struct {
	ID     int                `json:"id"`
	Parent int                `json:"parent"`
	Req    int                `json:"req"` // stream index, or -1 outside the stream
	Phase  string             `json:"phase"`
	Name   string             `json:"name"`
	Start  time.Duration      `json:"start_ns"`
	End    time.Duration      `json:"end_ns"`
	Note   string             `json:"note,omitempty"`
	Attrs  map[string]float64 `json:"attrs,omitempty"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory; write dumps them when the run ends.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id.
func (t *tracer) begin(phase, name string, req, parent int) int {
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Phase: phase, Name: name, Start: now})
	return id
}

// end closes span id with an optional note and attributes.
func (t *tracer) end(id int, note string, attrs map[string]float64) {
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id]
	s.End, s.Note, s.Attrs = now, note, attrs
}

// add records an already-timed span.
func (t *tracer) add(s span) {
	t.mu.Lock()
	defer t.mu.Unlock()
	s.ID = len(t.spans)
	t.spans = append(t.spans, s)
}

// filter returns the closed spans matching keep.
func (t *tracer) filter(keep func(span) bool) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.End > 0 && keep(s) {
			out = append(out, s)
		}
	}
	return out
}

func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
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

// durations of the named spans, in unit.
func durations(spans []span, unit time.Duration) []float64 {
	out := make([]float64, len(spans))
	for i, s := range spans {
		out[i] = float64(s.dur()) / float64(unit)
	}
	return out
}

func named(name string) func(span) bool { return func(s span) bool { return s.Name == name } }

// Trace phases.
const (
	phaseHTTP   = "http"   // the stream through the traced in-process server
	phaseReplay = "replay" // the stream through serving.Frontdoor.Do
	phaseLadder = "ladder" // the fixed per-layer rungs
)

// Ladder sizes: the mini-mix sent after the stream on every workload,
// and the Frontdoor burst rung.
const (
	ladderPerKind     = 25
	ladderPlanPerKind = 3
	burstKeys         = 30
	burstWidth        = 4
)

// timingHandler wraps the api.Server: one span per request, joined to
// the client's by the X-Bench-Req header.
type timingHandler struct {
	h  http.Handler
	tr *tracer
}

type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (s *statusRecorder) WriteHeader(code int) {
	s.status = code
	s.ResponseWriter.WriteHeader(code)
}

func (t timingHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	req := -1
	if v := r.Header.Get("X-Bench-Req"); v != "" {
		req, _ = strconv.Atoi(v) // absent or malformed ids stay -1
	}
	kind := strings.TrimPrefix(r.URL.Path, "/v1/")
	id := t.tr.begin(phaseHTTP, "api."+kind+".handler", req, -1)
	rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
	t.h.ServeHTTP(rec, r)
	t.tr.end(id, strconv.Itoa(rec.status), nil)
}

// inProcess is an api.Server over the shared engines on a loopback
// listener, assembled the way celia-server assembles it.
type inProcess struct {
	fd   *serving.Frontdoor
	srv  *http.Server
	addr string
	done chan error
}

func startInProcess(engines map[string]*core.Engine, snapDir string, restore bool, wrap func(http.Handler) http.Handler) (*inProcess, error) {
	fd, err := serving.NewFrontdoor(engines, serving.Config{SnapshotDir: snapDir})
	if err != nil {
		return nil, err
	}
	if restore {
		for app, err := range fd.LoadSnapshots() {
			return nil, fmt.Errorf("restore %s: %w", app, err)
		}
	}
	apiSrv, err := api.NewServer(fd, api.WithApps(cli.Apps()))
	if err != nil {
		return nil, err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p := &inProcess{fd: fd, addr: l.Addr().String(), done: make(chan error, 1)}
	p.srv = &http.Server{Handler: wrap(apiSrv), ReadHeaderTimeout: 5 * time.Second}
	go func() { p.done <- p.srv.Serve(l) }()
	return p, nil
}

func (p *inProcess) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	err := p.srv.Shutdown(ctx)
	if serr := <-p.done; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	p.fd.Wait()
	return err
}

// traced is the per-layer run. The engines restore their indexes from
// the snapshots once and are shared by every phase; each phase gets a
// fresh Frontdoor, so each starts with a cold result cache.
func (r *run) traced() (result, error) {
	w := r.w
	tr := newTracer()
	engines := map[string]*core.Engine{}
	for name, app := range cli.Apps() {
		eng := core.NewPaperEngine(app)
		eng.SetBilling(w.billing)
		engines[name] = eng
	}
	ladder := ladderStream(r.seed, r.models, ladderPerKind, ladderPlanPerKind)

	// Untraced and traced passes of the stream over HTTP.
	plain, err := startInProcess(engines, r.snapDir, true, func(h http.Handler) http.Handler { return h })
	if err != nil {
		return result{}, err
	}
	outsPlain, _, err := r.httpPass(plain, false)
	if serr := plain.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return result{}, err
	}
	timed, err := startInProcess(engines, r.snapDir, false, func(h http.Handler) http.Handler { return timingHandler{h, tr} })
	if err != nil {
		return result{}, err
	}
	outs, start, err := r.httpPass(timed, true)
	if err == nil {
		err = r.ladderHTTP(timed, ladder)
	}
	computeP50 := timed.fd.Metrics().Histogram("serving.compute_ms").Quantile(0.5)
	if serr := timed.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return result{}, err
	}
	for i, o := range outs {
		tr.add(span{Parent: -1, Req: i, Phase: phaseHTTP, Name: "client", Start: start.Sub(tr.t0) + o.sent, End: start.Sub(tr.t0) + o.done})
	}

	// The same stream and ladder through Frontdoor.Do, then the rungs.
	rep, err := r.replay(engines, tr, ladder)
	if err != nil {
		return result{}, err
	}
	if err := r.burstRung(engines, tr, ladder); err != nil {
		return result{}, err
	}
	micro, err := r.microLadder(engines, tr)
	if err != nil {
		return result{}, err
	}

	r.check.statuses(outsPlain)
	r.check.cacheConsistency(r.reqs, outsPlain)
	r.check.invariants(r.reqs, outsPlain)
	r.check.statuses(outs)
	r.check.cacheConsistency(r.reqs, outs)
	r.check.invariants(r.reqs, outs)
	if err := r.check.againstOracle(r.ctx, newOracle(w.billing), r.reqs, outs, oracleSample(w, r.seed, r.reqs, outs, w.oracleN)); err != nil {
		return result{}, err
	}
	base := r.summarize(outsPlain)
	lo := r.summarize(outs)

	spanPath := filepath.Join(r.outDir, fmt.Sprintf("spans-%s-%d.jsonl", w.name, r.seed))
	if err := tr.write(spanPath); err != nil {
		return result{}, err
	}
	fmt.Printf("spans: %s\n", spanPath)

	m := r.layerMetrics(tr, outs, rep, micro)
	m["loadgen.backlog_max"] = metric{float64(backlogMax(r.reqs, outs)), "count"}
	var lag []float64
	for _, o := range outs {
		lag = append(lag, ms(o.lag))
	}
	m["loadgen.lag_p99_ms"] = metric{quantile(lag, 0.99), "ms"}
	m["loadgen.sent"] = metric{float64(len(outs)), "count"}
	m["serving.compute_ms_p50"] = metric{computeP50, "ms"}
	m["trace.overhead_pct"] = metric{(lo.p50 - base.p50) / base.p50 * 100, "%"}
	if rep.errs > 0 {
		logf("replay: %d requests failed", rep.errs)
	}
	return result{
		Correct:   len(r.check.bad) == 0 && len(r.invalid) == 0 && rep.errs == 0,
		Attempted: len(outsPlain) + len(outs) + len(rep.status),
		Failed:    len(r.check.bad) + rep.errs,
		Metrics:   m,
	}, nil
}

// httpPass warms the server with one query per app and sends the stream
// on its schedule.
func (r *run) httpPass(p *inProcess, traced bool) ([]outcome, time.Time, error) {
	wc := newClient(p.addr, 1)
	err := warm(r.ctx, wc)
	wc.close()
	if err != nil {
		return nil, time.Time{}, err
	}
	c := newClient(p.addr, r.conns)
	defer c.close()
	start := time.Now()
	outs := runOpen(r.ctx, c, r.reqs, r.conns, traced, r.keepBody())
	if n := c.dials.Load(); n > int64(r.conns) {
		r.invalidate("opened %d connections, limit %d", n, r.conns)
	}
	return outs, start, r.ctx.Err()
}

// ladderHTTP sends the mini-mix one request at a time, after the
// stream, so every route has handler spans on every workload. Its
// request ids follow the stream's.
func (r *run) ladderHTTP(p *inProcess, ladder []request) error {
	c := newClient(p.addr, 1)
	defer c.close()
	for j, q := range ladder {
		rep, err := c.post(r.ctx, q, len(r.reqs)+j)
		if err != nil {
			return err
		}
		if rep.status != http.StatusOK {
			return fmt.Errorf("ladder %s: status %d: %s", q.Kind, rep.status, rep.body)
		}
		if err := checkInvariants(q, rep.body); err != nil {
			return fmt.Errorf("ladder %s: %w", q.Kind, err)
		}
	}
	return nil
}

// spanKey carries the enclosing Do span id into compute closures.
type spanKey struct{}

type replayResult struct {
	status   []serving.CacheStatus
	errs     int
	counters map[string]int64
}

// replay sends the stream through a fresh Frontdoor on its schedule,
// one goroutine per arrival (so arrivals queue in the Frontdoor's
// admission control, not in a connection pool), then the ladder's
// mini-mix one query at a time.
func (r *run) replay(engines map[string]*core.Engine, tr *tracer, ladder []request) (replayResult, error) {
	fd, err := serving.NewFrontdoor(engines, serving.Config{})
	if err != nil {
		return replayResult{}, err
	}
	res := replayResult{status: make([]serving.CacheStatus, len(r.reqs))}
	errs := make([]error, len(r.reqs))
	var wg sync.WaitGroup
	start := time.Now()
	for i, q := range r.reqs {
		if d := q.Due - time.Since(start); d > 0 {
			time.Sleep(d)
		}
		wg.Add(1)
		go func(i int, q request) {
			defer wg.Done()
			res.status[i], errs[i] = doTraced(r.ctx, fd, tr, q, i)
		}(i, q)
	}
	wg.Wait()
	// Admission control may shed load (counted below); any other error
	// is a failed request.
	for _, e := range errs {
		if e != nil && !errors.Is(e, serving.ErrOverloaded) {
			res.errs++
		}
	}
	reg := fd.Metrics()
	res.counters = map[string]int64{
		"rejected":  reg.Counter("serving.overload.rejected").Value(),
		"canceled":  reg.Counter("serving.canceled").Value(),
		"evictions": reg.Counter("serving.cache.evictions").Value(),
	}
	for j, q := range ladder {
		if _, err := doTraced(r.ctx, fd, tr, q, len(r.reqs)+j); err != nil {
			return res, fmt.Errorf("ladder replay %s: %w", q.Kind, err)
		}
	}
	fd.Wait()
	return res, nil
}

// doTraced runs one request through fd.Do under a "serving.do" span;
// the key is the route plus the body bytes, so equal requests coalesce
// and share cache entries exactly as they do over HTTP.
func doTraced(ctx context.Context, fd *serving.Frontdoor, tr *tracer, q request, req int) (serving.CacheStatus, error) {
	phase := phaseReplay
	if req < 0 {
		phase = phaseLadder
	}
	compute, err := closureFor(tr, q, req, phase)
	if err != nil {
		return serving.StatusMiss, err
	}
	id := tr.begin(phase, "serving.do", req, -1)
	_, st, err := fd.Do(context.WithValue(ctx, spanKey{}, id), serving.Query{Kind: q.Kind, App: q.App, Extra: string(q.Body)}, compute)
	note := st.String()
	if err != nil {
		note = "error"
	}
	tr.end(id, note, nil)
	return st, err
}

// closureFor decodes a request and returns the compute closure that
// answers it with the public core, schedule and risk functions and
// encodes the api package's exported response type, under
// "serving.compute", per-layer and "api.encode" spans.
func closureFor(tr *tracer, q request, req int, phase string) (func(context.Context, *core.Engine) ([]byte, error), error) {
	var body func(ctx context.Context, eng *core.Engine, parent int) (any, error)
	switch q.Kind {
	case "analyze", "mincost", "mintime", "maxaccuracy":
		var b analyticBody
		if err := json.Unmarshal(q.Body, &b); err != nil {
			return nil, err
		}
		body = func(ctx context.Context, eng *core.Engine, parent int) (any, error) {
			return analyticCall(ctx, tr, phase, req, parent, eng, q.Kind, b)
		}
	case "schedule":
		var b struct {
			App   string       `json:"app"`
			Trace demand.Trace `json:"trace"`
		}
		if err := json.Unmarshal(q.Body, &b); err != nil {
			return nil, err
		}
		body = func(ctx context.Context, eng *core.Engine, parent int) (any, error) {
			return scheduleCall(ctx, tr, phase, req, parent, eng, b.App, b.Trace)
		}
	case "risk":
		var b riskBody
		if err := json.Unmarshal(q.Body, &b); err != nil {
			return nil, err
		}
		body = func(ctx context.Context, eng *core.Engine, parent int) (any, error) {
			return riskCall(ctx, tr, phase, req, parent, eng, b)
		}
	default:
		return nil, fmt.Errorf("unknown kind %q", q.Kind)
	}
	return func(ctx context.Context, eng *core.Engine) ([]byte, error) {
		parent, _ := ctx.Value(spanKey{}).(int)
		id := tr.begin(phase, "serving.compute", req, parent)
		defer tr.end(id, "", nil)
		resp, err := body(ctx, eng, id)
		if err != nil {
			return nil, err
		}
		enc := tr.begin(phase, "api.encode", req, id)
		out, err := json.Marshal(resp)
		tr.end(enc, "", map[string]float64{"bytes": float64(len(out))})
		return out, err
	}, nil
}

func feasibleNote(ok bool) string {
	if ok {
		return "feasible"
	}
	return "infeasible"
}

func analyticCall(ctx context.Context, tr *tracer, phase string, req, parent int, eng *core.Engine, kind string, b analyticBody) (any, error) {
	p := workload.Params{N: b.N, A: b.A}
	cons := core.Constraints{Deadline: units.Hours(b.DeadlineH).Seconds(), Budget: units.USD(b.BudgetUSD)}
	id := tr.begin(phase, "core."+kind, req, parent)
	switch kind {
	case "analyze":
		an, err := eng.AnalyzeContext(ctx, p, cons, core.Options{})
		tr.end(id, feasibleNote(an.Feasible > 0), map[string]float64{"frontier_rows": float64(len(an.Frontier))})
		if err != nil {
			return nil, err
		}
		resp := api.AnalyzeResponse{App: b.App, Total: an.Total, Feasible: an.Feasible}
		resp.CostLowUSD, resp.CostHiUSD, _ = an.CostSpan()
		for i, f := range an.Frontier {
			if i >= 100 {
				break
			}
			resp.Frontier = append(resp.Frontier, api.ConfigResult{Config: f.Config.Counts(), TimeHours: f.Time.InHours(), CostUSD: f.Cost})
		}
		return resp, nil
	case "mincost":
		pred, ok, err := eng.MinCostForDeadlineContext(ctx, p, cons.Deadline)
		tr.end(id, feasibleNote(ok), nil)
		return optimizeResponse(b.App, pred, ok), err
	case "mintime":
		pred, ok, err := eng.MinTimeForBudgetContext(ctx, p, cons.Budget)
		tr.end(id, feasibleNote(ok), nil)
		return optimizeResponse(b.App, pred, ok), err
	default: // maxaccuracy
		pa, pred, ok, err := eng.MaxAccuracyContext(ctx, b.N, cons, 1e-3)
		tr.end(id, feasibleNote(ok), nil)
		resp := optimizeResponse(b.App, pred, ok)
		if ok {
			resp.Accuracy = pa.A
		}
		return resp, err
	}
}

func scheduleCall(ctx context.Context, tr *tracer, phase string, req, parent int, eng *core.Engine, app string, trace demand.Trace) (any, error) {
	pol := schedule.PolicyFor(eng)
	id := tr.begin(phase, "schedule.solve", req, parent)
	solved, err := schedule.SolveContext(ctx, eng, trace, pol)
	tr.end(id, "", map[string]float64{"steps": float64(trace.Steps()), "candidates": float64(solved.Candidates)})
	if err != nil {
		return nil, err
	}
	id = tr.begin(phase, "schedule.reactive", req, parent)
	baseline, err := schedule.ReactiveContext(ctx, eng, trace, pol, autoscale.DefaultPolicy())
	tr.end(id, "", nil)
	if err != nil {
		return nil, err
	}
	resp := api.ScheduleResponse{
		App: app, TraceHash: trace.Hash(), TraceName: trace.Name, Steps: trace.Steps(),
		StepSeconds: trace.Step, HorizonHours: trace.Horizon().InHours(), Billing: eng.Billing().String(),
		BootSeconds: pol.Boot, QuantumSeconds: pol.Quantum, Candidates: solved.Candidates,
		IndexBacked: eng.FrontierBuilt(), TotalCostUSD: solved.TotalCost, ReleasePayoutUSD: solved.ReleasePayout,
		Switches: solved.Switches, Misses: solved.Misses, BaselineCostUSD: baseline.TotalCost,
		BaselineMisses: baseline.Misses, SavingsVsReactivePct: schedule.SavingsPct(solved.TotalCost, baseline.TotalCost),
	}
	for t, st := range solved.Steps {
		if t >= 1000 {
			break
		}
		resp.Timeline = append(resp.Timeline, api.ScheduleStepResult{
			T: t, Config: st.Config.Counts(), DeltaNodes: st.DeltaNodes, SlackSeconds: st.Slack, CostUSD: st.Cost, Missed: st.Missed,
		})
	}
	return resp, nil
}

func riskCall(ctx context.Context, tr *tracer, phase string, req, parent int, eng *core.Engine, b riskBody) (any, error) {
	p := workload.Params{N: b.N, A: b.A}
	deadline := units.Hours(b.DeadlineH).Seconds()
	// The configuration comes from the argmin, as the handler derives it;
	// its span is named apart so core.mincost stays the analytic query.
	id := tr.begin(phase, "risk.mincost", req, parent)
	pred, ok, err := eng.MinCostForDeadlineContext(ctx, p, deadline)
	tr.end(id, feasibleNote(ok), nil)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, fmt.Errorf("no configuration meets the %.2fh deadline", b.DeadlineH)
	}
	id = tr.begin(phase, "risk.estimate", req, parent)
	est, err := risk.EstimateContext(ctx, cli.Apps()[b.App], p, pred.Config, eng.Capacities().Catalog(), risk.Options{
		Trials: b.Trials, Seed: b.Seed, HazardPerHour: b.HazardPerHour, Deadline: deadline,
		Sim: cloudsim.DefaultOptions(), Recovery: faults.DefaultRecovery(),
	})
	tr.end(id, "", map[string]float64{"trials": float64(est.Trials)})
	if err != nil {
		return nil, err
	}
	return api.RiskResponse{
		App: b.App, Config: pred.Config.Counts(), Trials: est.Trials, FailedTrials: est.Failed,
		MissProbability: est.MissProb, MeanFailures: est.MeanFailures,
		BaseTimeHours: est.BaseMakespan.InHours(), BaseCostUSD: est.BaseCost,
		TimeP50Hours: est.MakespanP50.InHours(), TimeP90Hours: est.MakespanP90.InHours(), TimeP99Hours: est.MakespanP99.InHours(),
		CostP50USD: est.CostP50, CostP90USD: est.CostP90, CostP99USD: est.CostP99,
	}, nil
}

// burstRung times the Frontdoor on each path: for burstKeys analytic
// ladder queries on a fresh Frontdoor, burstWidth identical calls start
// together (one leader, the rest coalesced followers or hits), then
// burstWidth more run one after another (hits).
func (r *run) burstRung(engines map[string]*core.Engine, tr *tracer, ladder []request) error {
	fd, err := serving.NewFrontdoor(engines, serving.Config{})
	if err != nil {
		return err
	}
	defer fd.Wait()
	n := 0
	for _, q := range ladder {
		if n == burstKeys {
			break
		}
		if !serving.AnalyticKind(q.Kind) || q.Kind == "schedule" {
			continue
		}
		n++
		var wg sync.WaitGroup
		errs := make([]error, burstWidth)
		gate := make(chan struct{})
		for k := 0; k < burstWidth; k++ {
			wg.Add(1)
			go func(k int) {
				defer wg.Done()
				<-gate
				_, errs[k] = doTraced(r.ctx, fd, tr, q, -1)
			}(k)
		}
		close(gate)
		wg.Wait()
		for k := 0; k < burstWidth; k++ {
			_, err := doTraced(r.ctx, fd, tr, q, -1)
			errs = append(errs, err)
		}
		if err := errors.Join(errs...); err != nil {
			return fmt.Errorf("burst rung: %w", err)
		}
	}
	return nil
}

// microResult holds the ladder's rungs below the query surface.
type microResult struct {
	predictNS, foreachNS, atIndexNS float64
	buildS                          float64
	pairs, candidates               int
	restoreMS                       float64
	snapBytes                       int64
}

// sink keeps measured calls from being optimized away.
var sink float64

// microLadder times model evaluation, enumeration, one cold index
// build, and snapshot restore, and reads the exact index shape.
func (r *run) microLadder(engines map[string]*core.Engine, tr *tracer) (microResult, error) {
	var out microResult
	galaxy, err := cli.LookupApp("galaxy")
	if err != nil {
		return out, err
	}
	eng := core.NewPaperEngine(galaxy)
	eng.SetBilling(r.w.billing)
	space := eng.Space()
	rng := rngFor("micro", r.seed, partLadder)
	idx := make([]uint64, 1024)
	tuples := make([]config.Tuple, len(idx))
	for i := range idx {
		idx[i] = rng.Uint64N(space.Size())
		if tuples[i], err = space.AtIndex(idx[i]); err != nil {
			return out, err
		}
	}
	const calls = 200_000
	perCall := func(name string, f func(i int)) float64 {
		var runs []float64
		for rep := 0; rep < 5; rep++ {
			id := tr.begin(phaseLadder, name, -1, -1)
			t0 := time.Now()
			for i := 0; i < calls; i++ {
				f(i)
			}
			d := time.Since(t0)
			tr.end(id, "", map[string]float64{"calls": calls})
			runs = append(runs, float64(d.Nanoseconds())/calls)
		}
		return median(runs)
	}
	caps := eng.Capacities()
	out.predictNS = perCall("model.predict", func(i int) {
		sink += float64(caps.Predict(1e15, tuples[i%len(tuples)]).Cost)
	})
	out.atIndexNS = perCall("config.atindex", func(i int) {
		t, _ := space.AtIndex(idx[i%len(idx)]) // indices were drawn inside the space
		sink += float64(t.TotalNodes())
	})
	var forEach []float64
	for rep := 0; rep < 3; rep++ {
		id := tr.begin(phaseLadder, "config.foreach", -1, -1)
		t0 := time.Now()
		var n uint64
		space.ForEach(func(config.Tuple) bool { n++; return true })
		d := time.Since(t0)
		tr.end(id, "", map[string]float64{"configs": float64(n)})
		forEach = append(forEach, float64(d.Nanoseconds())/float64(n))
	}
	out.foreachNS = median(forEach)

	id := tr.begin(phaseLadder, "core.index_build", -1, -1)
	t0 := time.Now()
	st, err := eng.RebuildIndex()
	out.buildS = time.Since(t0).Seconds()
	tr.end(id, "", map[string]float64{"pairs": float64(st.Pairs), "candidates": float64(st.Staircase)})
	if err != nil {
		return out, err
	}

	for _, name := range cli.AppNames() {
		x, ok := engines[name].Frontier()
		if !ok {
			return out, fmt.Errorf("%s: no frontier index", name)
		}
		out.pairs += x.Stats().Pairs
		out.candidates += x.Stats().Staircase
		fi, err := os.Stat(snapshot.PathFor(r.snapDir, name))
		if err != nil {
			return out, err
		}
		out.snapBytes += fi.Size()
	}
	var restores []float64
	for rep := 0; rep < 3; rep++ {
		fresh := map[string]*core.Engine{}
		for name, app := range cli.Apps() {
			fresh[name] = core.NewPaperEngine(app)
		}
		id := tr.begin(phaseLadder, "snapshot.restore", -1, -1)
		t0 := time.Now()
		for _, name := range cli.AppNames() {
			if err := snapshot.Restore(snapshot.PathFor(r.snapDir, name), fresh[name]); err != nil {
				return out, err
			}
		}
		d := time.Since(t0)
		tr.end(id, "", nil)
		restores = append(restores, ms(d))
	}
	out.restoreMS = median(restores)
	return out, nil
}

// layerMetrics turns the spans into the per-layer metrics. Timings pool
// the stream's and the ladder's spans of a name; shares, queue waits and
// counts describe the stream alone.
func (r *run) layerMetrics(tr *tracer, outs []outcome, rep replayResult, micro microResult) map[string]metric {
	m := map[string]metric{}
	nStream := len(r.reqs)
	inStream := func(s span) bool { return s.Req >= 0 && s.Req < nStream }

	// api: handler spans, transport, encode, statuses.
	handlers := tr.filter(func(s span) bool { return s.Phase == phaseHTTP && strings.HasSuffix(s.Name, ".handler") })
	handlerOf := map[int]span{}
	var streamHandlers []span
	status := map[string]int{}
	for _, s := range handlers {
		if !inStream(s) {
			continue
		}
		handlerOf[s.Req] = s
		streamHandlers = append(streamHandlers, s)
		code, _ := strconv.Atoi(s.Note) // notes are written by timingHandler
		switch {
		case code == http.StatusTooManyRequests:
			status["429"]++
		case code/100 == 2:
			status["2xx"]++
		case code/100 == 4:
			status["4xx"]++
		case code/100 == 5:
			status["5xx"]++
		}
	}
	hd := durations(streamHandlers, time.Millisecond)
	m["api.handler_ms_p50"] = metric{quantile(hd, 0.5), "ms"}
	m["api.handler_ms_p99"] = metric{quantile(hd, 0.99), "ms"}
	for _, k := range append(append([]string(nil), analyticKinds...), "schedule", "risk") {
		d := durations(tr.filter(named("api."+k+".handler")), time.Millisecond)
		m["api."+k+".handler_ms_p50"] = metric{quantile(d, 0.5), "ms"}
		m["api."+k+".handler_ms_p99"] = metric{quantile(d, 0.99), "ms"}
	}
	var transport, bytes []float64
	for i, o := range outs {
		bytes = append(bytes, float64(o.size))
		if h, ok := handlerOf[i]; ok && o.ok() {
			transport = append(transport, ms(o.done-o.sent)-ms(h.dur()))
		}
	}
	m["api.transport_ms_p50"] = metric{quantile(transport, 0.5), "ms"}
	m["api.response_bytes_mean"] = metric{mean(bytes), "bytes"}
	m["api.encode_us_p50"] = metric{quantile(durations(tr.filter(named("api.encode")), time.Microsecond), 0.5), "us"}
	for _, k := range []string{"2xx", "4xx", "429", "5xx"} {
		m["api.status_"+k] = metric{float64(status[k]), "count"}
	}

	// serving: shares from the replayed stream; Do timings pooled.
	var hit, coal, lead int
	for _, st := range rep.status {
		switch st {
		case serving.StatusHit:
			hit++
		case serving.StatusCoalesced:
			coal++
		default:
			lead++
		}
	}
	n := float64(max(len(rep.status), 1))
	m["serving.hit_share"] = metric{float64(hit) / n, "share"}
	m["serving.coalesced_share"] = metric{float64(coal) / n, "share"}
	m["serving.leader_share"] = metric{float64(lead) / n, "share"}
	dos := tr.filter(named("serving.do"))
	computeOf := map[int]span{}
	for _, s := range tr.filter(named("serving.compute")) {
		computeOf[s.Parent] = s
	}
	byNote := func(note string) []span {
		var out []span
		for _, s := range dos {
			if s.Note == note {
				out = append(out, s)
			}
		}
		return out
	}
	m["serving.do_hit_us_p50"] = metric{quantile(durations(byNote("hit"), time.Microsecond), 0.5), "us"}
	m["serving.do_follower_ms_p50"] = metric{quantile(durations(byNote("coalesced"), time.Millisecond), 0.5), "ms"}
	m["serving.do_leader_ms_p50"] = metric{quantile(durations(byNote("miss"), time.Millisecond), 0.5), "ms"}
	var self, wait []float64
	for _, s := range byNote("miss") {
		c, ok := computeOf[s.ID]
		if !ok {
			continue
		}
		self = append(self, float64(s.dur()-c.dur())/float64(time.Microsecond))
		if inStream(s) && s.Phase == phaseReplay {
			wait = append(wait, ms(c.Start-s.Start))
		}
	}
	m["serving.self_us_p50"] = metric{quantile(self, 0.5), "us"}
	m["serving.queue_wait_ms_p50"] = metric{quantile(wait, 0.5), "ms"}
	m["serving.queue_wait_ms_p99"] = metric{quantile(wait, 0.99), "ms"}
	m["serving.overload_rejected"] = metric{float64(rep.counters["rejected"]), "count"}
	m["serving.canceled"] = metric{float64(rep.counters["canceled"]), "count"}
	m["serving.cache_evictions"] = metric{float64(rep.counters["evictions"]), "count"}

	// core: per-kind spans, feasibility, frontier size, index shape.
	for _, k := range []string{"analyze", "mincost", "maxaccuracy"} {
		d := durations(tr.filter(named("core."+k)), time.Millisecond)
		m["core."+k+"_ms_p50"] = metric{quantile(d, 0.5), "ms"}
		m["core."+k+"_ms_p99"] = metric{quantile(d, 0.99), "ms"}
	}
	d := durations(tr.filter(named("core.mintime")), time.Microsecond)
	m["core.mintime_us_p50"] = metric{quantile(d, 0.5), "us"}
	m["core.mintime_us_p99"] = metric{quantile(d, 0.99), "us"}
	calls := tr.filter(func(s span) bool { return strings.HasPrefix(s.Name, "core.") && s.Note != "" })
	feasible := 0
	var rows []float64
	for _, s := range calls {
		if s.Note == "feasible" {
			feasible++
		}
		if s.Name == "core.analyze" {
			rows = append(rows, s.Attrs["frontier_rows"])
		}
	}
	m["core.feasible_share"] = metric{float64(feasible) / float64(max(len(calls), 1)), "share"}
	m["core.frontier_rows_mean"] = metric{mean(rows), "rows"}
	m["core.index_build_s"] = metric{micro.buildS, "s"}
	m["core.index_pairs"] = metric{float64(micro.pairs), "count"}
	m["core.index_candidates"] = metric{float64(micro.candidates), "count"}
	m["model.predict_ns"] = metric{micro.predictNS, "ns"}
	m["config.foreach_ns_per_config"] = metric{micro.foreachNS, "ns"}
	m["config.atindex_ns"] = metric{micro.atIndexNS, "ns"}
	m["snapshot.restore_ms"] = metric{micro.restoreMS, "ms"}
	m["snapshot.bytes"] = metric{float64(micro.snapBytes), "bytes"}

	// schedule and risk.
	solves := tr.filter(named("schedule.solve"))
	var steps, cands, solveUS float64
	for _, s := range solves {
		steps += s.Attrs["steps"]
		cands += s.Attrs["candidates"]
		solveUS += float64(s.dur()) / float64(time.Microsecond)
	}
	sd := durations(solves, time.Millisecond)
	m["schedule.solve_ms_p50"] = metric{quantile(sd, 0.5), "ms"}
	m["schedule.solve_ms_p99"] = metric{quantile(sd, 0.99), "ms"}
	m["schedule.solve_us_per_step"] = metric{solveUS / max(steps, 1), "us"}
	m["schedule.candidates_mean"] = metric{cands / float64(max(len(solves), 1)), "count"}
	m["schedule.reactive_ms_p50"] = metric{quantile(durations(tr.filter(named("schedule.reactive")), time.Millisecond), 0.5), "ms"}
	ests := tr.filter(named("risk.estimate"))
	var trials, estUS float64
	for _, s := range ests {
		trials += s.Attrs["trials"]
		estUS += float64(s.dur()) / float64(time.Microsecond)
	}
	ed := durations(ests, time.Millisecond)
	m["risk.estimate_ms_p50"] = metric{quantile(ed, 0.5), "ms"}
	m["risk.estimate_ms_p99"] = metric{quantile(ed, 0.99), "ms"}
	m["risk.us_per_trial"] = metric{estUS / max(trials, 1), "us"}
	return m
}
