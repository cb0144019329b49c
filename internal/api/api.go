// Package api exposes the CELIA engine over HTTP as a small JSON
// service, so non-Go clients (dashboards, schedulers, CI) can query
// cost-time optimal configurations. All query endpoints are served
// through a serving.Frontdoor — an LRU result cache, singleflight
// request coalescing, and admission control in front of the analytic
// kernel — so identical concurrent queries cost one engine run and
// load spikes are shed with 429 instead of piling up goroutines.
//
//	GET  /v1/apps                    list mounted applications
//	POST /v1/analyze                 full census + Pareto frontier
//	POST /v1/mincost                 cheapest configuration for a deadline
//	POST /v1/mintime                 fastest configuration within a budget
//	POST /v1/maxaccuracy             largest feasible accuracy
//	POST /v1/risk                    Monte-Carlo deadline risk under failures
//	POST /v1/schedule                scaling schedule over a demand trace
//	GET  /healthz                    liveness
//	GET  /readyz                     readiness (503 while draining)
//	GET  /debug/metrics              serving + HTTP metrics (JSON)
//
// Contract notes:
//
//   - Request bodies are limited to 1 MiB; larger bodies get 413.
//   - Every error response is the JSON envelope {"error": "..."}.
//   - The Request.Confidence field is reserved for future robust
//     queries and is not implemented: non-zero values are rejected
//     with 400 rather than silently ignored.
//   - When the serving layer is saturated the response is 429 with a
//     Retry-After header; clients should back off and retry.
//   - A panic inside a query computation is recovered at the serving
//     boundary and reported as 500 with the envelope, never a crash.
//   - Responses carry an X-Cache header (hit, miss, or coalesced). Two
//     bodies posted to one route share a cache entry exactly when they
//     decode to the same request once defaults are written in; key
//     order, whitespace and number spelling do not matter.
//   - Query responses carry an X-Index header, and GET /readyz and
//     GET /v1/apps report index state; all three read the serving
//     layer's one per-app derivation, so they never disagree. Its
//     states, in precedence order: "bypassed" (the index cannot serve
//     the engine: cause "billing" for a billing policy not certified
//     index-monotone, "pair-cap" for a catalog that did not compress
//     under the pair cap), "built" (an index is published, by a
//     restore, a build, or a schedule solve), "degraded" (the app's
//     start-up index build failed; the exhaustive scan answers), and
//     "pending" (its build has not published yet; a query joins or
//     runs the build rather than scanning).
//   - X-Index is "on" for a built app — the answer is byte-identical to
//     the exhaustive scan under every certified billing policy,
//     per-second and per-hour alike — "off-billing" or "off-pair-cap"
//     for a bypassed one, "degraded" only after a failed build, and
//     plain "off" only for Monte-Carlo kinds: an analytic query on a
//     pending app waits for the build, so it answers "on". Schedule
//     responses are always "on": the solve needs the
//     billing-independent staircase and publishes it itself.
//   - GET /readyz reports each app's state with its reason and bypass
//     cause in its JSON body; the top-level status is "degraded" (still
//     200 — the app answers correctly, just slower) when any app is
//     degraded, and 503 "draining" during shutdown. GET /v1/apps
//     reports index_active false, with the bypass reason and cause, for
//     a bypassed app.
//   - Request deadlines propagate into the compute: a scan-path query
//     that outlives its request context aborts cooperatively and
//     returns 503 with Retry-After instead of hogging a worker.
package api

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync/atomic"
	"time"

	"repro/internal/autoscale"
	"repro/internal/cloudsim"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/demand"
	"repro/internal/faults"
	"repro/internal/faults/risk"
	"repro/internal/model"
	"repro/internal/schedule"
	"repro/internal/serving"
	"repro/internal/telemetry"
	"repro/internal/units"
	"repro/internal/workload"
)

// maxBodyBytes bounds request bodies: the largest legitimate query is
// a few hundred bytes of JSON.
const maxBodyBytes = 1 << 20

// Server routes requests through a serving.Frontdoor.
type Server struct {
	fd   *serving.Frontdoor
	reg  *telemetry.Registry
	mux  *http.ServeMux
	apps map[string]workload.App // risk-query workloads, keyed like engines

	// HTTP metrics, registered once in NewServer under literal names
	// (celia-lint's metricname rule keeps dynamic names — unbounded
	// cardinality — out of the registry). statusClass is indexed by
	// status/100.
	httpRequests *telemetry.Counter
	statusClass  [6]*telemetry.Counter

	// draining flips when the process starts shutting down: /readyz
	// turns 503 so load balancers stop routing here while in-flight
	// requests finish.
	draining atomic.Bool
}

// ServerOption customizes NewServer.
type ServerOption func(*Server)

// WithApps mounts workload definitions for the risk endpoint, keyed by
// the same names as the frontdoor's engines. Risk queries for apps
// without a mounted workload are rejected with 422.
func WithApps(apps map[string]workload.App) ServerOption {
	return func(s *Server) { s.apps = apps }
}

// NewServer mounts the query endpoints over the given frontdoor.
func NewServer(fd *serving.Frontdoor, opts ...ServerOption) (*Server, error) {
	if fd == nil {
		return nil, fmt.Errorf("api: nil frontdoor")
	}
	s := &Server{fd: fd, reg: fd.Metrics(), mux: http.NewServeMux()}
	for _, o := range opts {
		o(s)
	}
	s.httpRequests = s.reg.Counter("http.requests")
	s.statusClass = [6]*telemetry.Counter{
		1: s.reg.Counter("http.status.1xx"),
		2: s.reg.Counter("http.status.2xx"),
		3: s.reg.Counter("http.status.3xx"),
		4: s.reg.Counter("http.status.4xx"),
		5: s.reg.Counter("http.status.5xx"),
	}
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /readyz", s.handleReady)
	s.mux.HandleFunc("GET /v1/apps", s.instrument(s.reg.Histogram("http.apps.ms"), s.handleApps))
	s.mux.HandleFunc("POST /v1/analyze", s.instrument(s.reg.Histogram("http.analyze.ms"), s.handleAnalyze))
	s.mux.HandleFunc("POST /v1/mincost", s.instrument(s.reg.Histogram("http.mincost.ms"), s.handleMinCost))
	s.mux.HandleFunc("POST /v1/mintime", s.instrument(s.reg.Histogram("http.mintime.ms"), s.handleMinTime))
	s.mux.HandleFunc("POST /v1/maxaccuracy", s.instrument(s.reg.Histogram("http.maxaccuracy.ms"), s.handleMaxAccuracy))
	s.mux.HandleFunc("POST /v1/risk", s.instrument(s.reg.Histogram("http.risk.ms"), s.handleRisk))
	s.mux.HandleFunc("POST /v1/schedule", s.instrument(s.reg.Histogram("http.schedule.ms"), s.handleSchedule))
	s.mux.Handle("GET /debug/metrics", s.reg.Handler())
	return s, nil
}

// SetDraining flips the readiness state: true makes /readyz answer 503
// so load balancers drain this instance before shutdown.
func (s *Server) SetDraining(v bool) { s.draining.Store(v) }

// NewServerFromEngines is a convenience for tests and small tools: it
// wraps the engines in a default-configured frontdoor.
func NewServerFromEngines(engines map[string]*core.Engine) (*Server, error) {
	fd, err := serving.NewFrontdoor(engines, serving.Config{})
	if err != nil {
		return nil, err
	}
	return NewServer(fd)
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Request is the common body of the query endpoints. Zero deadline or
// budget means unconstrained.
type Request struct {
	App       string      `json:"app"`
	N         float64     `json:"n"`
	A         float64     `json:"a"`
	DeadlineH units.Hours `json:"deadline_hours,omitempty"`
	BudgetUSD units.USD   `json:"budget_usd,omitempty"`
	// MaxFrontier caps frontier rows in analyze responses (default 100).
	MaxFrontier int `json:"max_frontier,omitempty"`
	// Confidence is reserved for robust queries and not implemented;
	// non-zero values are rejected with 400.
	Confidence float64 `json:"confidence,omitempty"`
}

// ConfigResult is one configuration with its prediction.
type ConfigResult struct {
	Config    []int       `json:"config"`
	TimeHours units.Hours `json:"time_hours"`
	CostUSD   units.USD   `json:"cost_usd"`
}

// AnalyzeResponse is the census result.
type AnalyzeResponse struct {
	App        string         `json:"app"`
	Total      uint64         `json:"total_configurations"`
	Feasible   uint64         `json:"feasible_configurations"`
	Frontier   []ConfigResult `json:"pareto_frontier"`
	CostLowUSD units.USD      `json:"frontier_cost_low_usd"`
	CostHiUSD  units.USD      `json:"frontier_cost_high_usd"`
}

// OptimizeResponse answers mincost/mintime/maxaccuracy.
type OptimizeResponse struct {
	App      string        `json:"app"`
	Feasible bool          `json:"feasible"`
	Best     *ConfigResult `json:"best,omitempty"`
	Accuracy float64       `json:"accuracy,omitempty"` // maxaccuracy only
}

type errorBody struct {
	Error string `json:"error"`
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// readyBody is the /readyz response: overall status plus the per-app
// index lifecycle, so operators and probes see degradation declared
// rather than discovering it as latency.
type readyBody struct {
	Status string                         `json:"status"`
	Index  map[string]serving.IndexStatus `json:"index"`
}

func (s *Server) handleReady(w http.ResponseWriter, _ *http.Request) {
	index, degraded := s.fd.IndexStatuses()
	body := readyBody{Status: "ready", Index: index}
	if degraded > 0 {
		// Degraded is still ready: answers are correct (scan-backed),
		// only slower, so load balancers should keep routing here.
		body.Status = "degraded"
	}
	if s.draining.Load() {
		body.Status = "draining"
		writeJSON(w, http.StatusServiceUnavailable, body)
		return
	}
	writeJSON(w, http.StatusOK, body)
}

// AppIndexStatus reports, per mounted engine, whether analytic queries
// are (or will be, once the app's index build lands) answered from the
// frontier index, and the operator-facing reason when they are not.
// The probe never triggers a build, so listing apps stays cheap.
type AppIndexStatus struct {
	Indexed      bool   `json:"index_active"`
	BypassReason string `json:"bypass_reason,omitempty"`
	// BypassCause is the machine-readable counterpart of BypassReason:
	// "billing" or "pair-cap"; empty when the index serves.
	BypassCause string `json:"bypass_cause,omitempty"`
}

func (s *Server) handleApps(w http.ResponseWriter, _ *http.Request) {
	names := s.fd.Apps()
	statuses, _ := s.fd.IndexStatuses()
	idx := make(map[string]AppIndexStatus, len(names))
	for _, name := range names {
		if st := statuses[name]; st.State == serving.IndexBypassed {
			idx[name] = AppIndexStatus{BypassReason: st.Reason, BypassCause: st.Cause}
		} else {
			idx[name] = AppIndexStatus{Indexed: true}
		}
	}
	writeJSON(w, http.StatusOK, struct {
		Apps  []string                  `json:"apps"`
		Index map[string]AppIndexStatus `json:"index"`
	}{Apps: names, Index: idx})
}

// decodeBody decodes a JSON request body into v and checks that the app
// it names (*app, a field of v) is mounted. It writes the error envelope
// itself — 413 past maxBodyBytes, 400 for malformed JSON or an unknown
// field, 404 for an unknown app — and reports whether the handler may
// go on.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, v interface{}, app *string) bool {
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeJSON(w, http.StatusRequestEntityTooLarge,
				errorBody{fmt.Sprintf("request body exceeds %d bytes", maxBodyBytes)})
		} else {
			writeJSON(w, http.StatusBadRequest, errorBody{fmt.Sprintf("bad request body: %v", err)})
		}
		return false
	}
	if _, ok := s.fd.Engine(*app); !ok {
		writeJSON(w, http.StatusNotFound, errorBody{fmt.Sprintf("unknown app %q", *app)})
		return false
	}
	return true
}

// decode parses and validates the common request body.
func (s *Server) decode(w http.ResponseWriter, r *http.Request) (Request, bool) {
	var req Request
	if !s.decodeBody(w, r, &req, &req.App) {
		return Request{}, false
	}
	if req.DeadlineH < 0 || req.BudgetUSD < 0 {
		writeJSON(w, http.StatusBadRequest, errorBody{"negative deadline or budget"})
		return Request{}, false
	}
	if req.Confidence != 0 {
		writeJSON(w, http.StatusBadRequest,
			errorBody{"confidence is reserved for future robust queries and must be omitted or zero"})
		return Request{}, false
	}
	return req, true
}

// serve runs a query through the frontdoor and writes the outcome. The
// cache key is kind, app and the JSON re-encoding of req, the decoded
// request with its defaults already written in. compute reads only req,
// values derived from it and the engine, so every field it can read is
// keyed by construction, and requests equal after decoding share an
// entry: encoding/json writes each float64 in its shortest round-trip
// form. The request context flows into compute so scan-path queries
// abort when the client goes away or the deadline passes.
func (s *Server) serve(w http.ResponseWriter, r *http.Request, kind, app string, req any, compute func(context.Context, *core.Engine) ([]byte, error)) {
	canon, err := json.Marshal(req)
	if err != nil {
		s.writeError(w, fmt.Errorf("%w: encode request: %v", serving.ErrInternal, err))
		return
	}
	q := serving.Query{Kind: kind, App: app, Extra: string(canon)}
	body, status, err := s.fd.Do(r.Context(), q, compute)
	if err != nil {
		s.writeError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Cache", status.String())
	w.Header().Set("X-Index", s.indexHeader(q))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body)
}

// indexHeader labels the path that answers this kind of query on the
// app from the serving layer's one index-state derivation, so it always
// agrees with /readyz, and never triggers a build, so cache hits stay
// pure memory reads. "on" means the response came from the index or is
// byte-identical to what it serves. A schedule solve needs the
// billing-independent staircase and publishes it itself, so a schedule
// response is always "on". A bypassed app answers "off-" plus its
// cause, an app whose build failed "degraded" (the exhaustive scan
// answered), and plain "off" covers non-analytic kinds; an analytic
// leader on a pending app joins or runs its build first, so a served
// answer never finds it pending.
func (s *Server) indexHeader(q serving.Query) string {
	if !serving.AnalyticKind(q.Kind) {
		return "off"
	}
	st, _ := s.fd.IndexStatusFor(q.App)
	switch {
	case st.State == serving.IndexBuilt || q.Kind == "schedule":
		return "on"
	case st.State == serving.IndexBypassed:
		return "off-" + st.Cause
	case st.State == serving.IndexDegraded:
		return "degraded"
	}
	return "off"
}

// writeError maps serving and engine errors to HTTP statuses: overload
// → 429 + Retry-After, unknown app → 404, recovered compute panic →
// 500, request-context expiry → 503, anything else (domain/model
// errors) → 422.
func (s *Server) writeError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, serving.ErrOverloaded):
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusTooManyRequests, errorBody{err.Error()})
	case errors.Is(err, serving.ErrUnknownApp):
		writeJSON(w, http.StatusNotFound, errorBody{err.Error()})
	case errors.Is(err, serving.ErrInternal):
		writeJSON(w, http.StatusInternalServerError, errorBody{err.Error()})
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable, errorBody{err.Error()})
	default:
		writeJSON(w, http.StatusUnprocessableEntity, errorBody{err.Error()})
	}
}

func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	req, ok := s.decode(w, r)
	if !ok {
		return
	}
	if req.MaxFrontier <= 0 {
		req.MaxFrontier = 100
	}
	s.serve(w, r, "analyze", req.App, req, func(ctx context.Context, eng *core.Engine) ([]byte, error) {
		an, err := eng.AnalyzeContext(ctx, workload.Params{N: req.N, A: req.A}, core.Constraints{
			Deadline: req.DeadlineH.Seconds(),
			Budget:   req.BudgetUSD,
		}, core.Options{})
		if err != nil {
			return nil, err
		}
		resp := AnalyzeResponse{App: req.App, Total: an.Total, Feasible: an.Feasible}
		lo, hi, _ := an.CostSpan()
		resp.CostLowUSD, resp.CostHiUSD = lo, hi
		for i, f := range an.Frontier {
			if i >= req.MaxFrontier {
				break
			}
			resp.Frontier = append(resp.Frontier, ConfigResult{
				Config:    f.Config.Counts(),
				TimeHours: f.Time.InHours(),
				CostUSD:   f.Cost,
			})
		}
		return json.Marshal(resp)
	})
}

func (s *Server) handleMinCost(w http.ResponseWriter, r *http.Request) {
	req, ok := s.decode(w, r)
	if !ok {
		return
	}
	if req.DeadlineH == 0 {
		writeJSON(w, http.StatusBadRequest, errorBody{"mincost requires deadline_hours"})
		return
	}
	s.serve(w, r, "mincost", req.App, req, func(ctx context.Context, eng *core.Engine) ([]byte, error) {
		pred, feasible, err := eng.MinCostForDeadlineContext(ctx, workload.Params{N: req.N, A: req.A},
			req.DeadlineH.Seconds())
		if err != nil {
			return nil, err
		}
		return optimizeResponse(req.App, pred, feasible, 0)
	})
}

func (s *Server) handleMinTime(w http.ResponseWriter, r *http.Request) {
	req, ok := s.decode(w, r)
	if !ok {
		return
	}
	if req.BudgetUSD == 0 {
		writeJSON(w, http.StatusBadRequest, errorBody{"mintime requires budget_usd"})
		return
	}
	s.serve(w, r, "mintime", req.App, req, func(ctx context.Context, eng *core.Engine) ([]byte, error) {
		pred, feasible, err := eng.MinTimeForBudgetContext(ctx, workload.Params{N: req.N, A: req.A},
			req.BudgetUSD)
		if err != nil {
			return nil, err
		}
		return optimizeResponse(req.App, pred, feasible, 0)
	})
}

func (s *Server) handleMaxAccuracy(w http.ResponseWriter, r *http.Request) {
	req, ok := s.decode(w, r)
	if !ok {
		return
	}
	if req.DeadlineH == 0 && req.BudgetUSD == 0 {
		writeJSON(w, http.StatusBadRequest, errorBody{"maxaccuracy requires a deadline or a budget"})
		return
	}
	s.serve(w, r, "maxaccuracy", req.App, req, func(ctx context.Context, eng *core.Engine) ([]byte, error) {
		p, pred, feasible, err := eng.MaxAccuracyContext(ctx, req.N, core.Constraints{
			Deadline: req.DeadlineH.Seconds(),
			Budget:   req.BudgetUSD,
		}, 1e-3)
		if err != nil {
			return nil, err
		}
		return optimizeResponse(req.App, pred, feasible, p.A)
	})
}

// optimizeResponse encodes a mincost, mintime or maxaccuracy answer.
// accuracy is reported only for a feasible answer; mincost and mintime
// pass 0, which the encoding omits.
func optimizeResponse(app string, pred model.Prediction, feasible bool, accuracy float64) ([]byte, error) {
	resp := OptimizeResponse{App: app, Feasible: feasible}
	if feasible {
		resp.Accuracy = accuracy
		resp.Best = &ConfigResult{
			Config:    pred.Config.Counts(),
			TimeHours: pred.Time.InHours(),
			CostUSD:   pred.Cost,
		}
	}
	return json.Marshal(resp)
}

// riskRequest is the body of POST /v1/risk. Config pins an explicit
// configuration (node counts per catalog type); omitted, the server
// solves mincost for the deadline first and evaluates that tuple.
type riskRequest struct {
	App           string      `json:"app"`
	N             float64     `json:"n"`
	A             float64     `json:"a"`
	DeadlineH     units.Hours `json:"deadline_hours"`
	HazardPerHour float64     `json:"hazard_per_hour"`
	Trials        int         `json:"trials,omitempty"`
	Seed          uint64      `json:"seed,omitempty"`
	Config        []int       `json:"config,omitempty"`
}

// RiskResponse is the Monte-Carlo deadline-risk estimate.
type RiskResponse struct {
	App             string      `json:"app"`
	Config          []int       `json:"config"`
	Trials          int         `json:"trials"`
	FailedTrials    int         `json:"failed_trials"`
	MissProbability float64     `json:"miss_probability"`
	MeanFailures    float64     `json:"mean_failures_per_trial"`
	BaseTimeHours   units.Hours `json:"base_time_hours"`
	BaseCostUSD     units.USD   `json:"base_cost_usd"`
	TimeP50Hours    units.Hours `json:"time_p50_hours"`
	TimeP90Hours    units.Hours `json:"time_p90_hours"`
	TimeP99Hours    units.Hours `json:"time_p99_hours"`
	CostP50USD      units.USD   `json:"cost_p50_usd"`
	CostP90USD      units.USD   `json:"cost_p90_usd"`
	CostP99USD      units.USD   `json:"cost_p99_usd"`
}

func (s *Server) handleRisk(w http.ResponseWriter, r *http.Request) {
	var req riskRequest
	if !s.decodeBody(w, r, &req, &req.App) {
		return
	}
	if req.DeadlineH <= 0 {
		writeJSON(w, http.StatusBadRequest, errorBody{"risk requires a positive deadline_hours"})
		return
	}
	if req.HazardPerHour < 0 {
		writeJSON(w, http.StatusBadRequest, errorBody{"negative hazard_per_hour"})
		return
	}
	if req.Trials < 0 || req.Trials > risk.MaxTrials {
		writeJSON(w, http.StatusBadRequest,
			errorBody{fmt.Sprintf("trials outside [0, %d]", risk.MaxTrials)})
		return
	}
	app, ok := s.apps[req.App]
	if !ok {
		writeJSON(w, http.StatusUnprocessableEntity,
			errorBody{fmt.Sprintf("no workload mounted for %q: risk queries need the simulator, not just the analytic engine", req.App)})
		return
	}
	var tuple config.Tuple
	if len(req.Config) > 0 {
		var err error
		tuple, err = config.NewTuple(req.Config)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, errorBody{err.Error()})
			return
		}
		// Without a config the min-cost search checks (n, a); with one,
		// nothing would before the simulator runs a plan of any size.
		if err := app.Domain().CheckParams(workload.Params{N: req.N, A: req.A}); err != nil {
			writeJSON(w, http.StatusUnprocessableEntity, errorBody{err.Error()})
			return
		}
	}
	if req.Trials == 0 {
		req.Trials = risk.DefaultTrials
	}

	trialsRun := s.reg.Counter("risk.trials")
	s.serve(w, r, "risk", req.App, req, func(ctx context.Context, eng *core.Engine) ([]byte, error) {
		p := workload.Params{N: req.N, A: req.A}
		t := tuple
		if len(req.Config) == 0 {
			pred, feasible, err := eng.MinCostForDeadlineContext(ctx, p, req.DeadlineH.Seconds())
			if err != nil {
				return nil, err
			}
			if !feasible {
				return nil, fmt.Errorf("no configuration meets the %.2fh deadline; pass an explicit config", req.DeadlineH)
			}
			t = pred.Config
		}
		cat := eng.Capacities().Catalog()
		if t.Len() != cat.Len() {
			return nil, fmt.Errorf("config arity %d does not match the catalog's %d types", t.Len(), cat.Len())
		}
		est, err := risk.EstimateContext(ctx, app, p, t, cat, risk.Options{
			Trials:        req.Trials,
			Seed:          req.Seed,
			HazardPerHour: req.HazardPerHour,
			Deadline:      req.DeadlineH.Seconds(),
			Sim:           cloudsim.DefaultOptions(),
			Recovery:      faults.DefaultRecovery(),
		})
		if err != nil {
			return nil, err
		}
		trialsRun.Add(int64(est.Trials))
		return json.Marshal(RiskResponse{
			App:             req.App,
			Config:          t.Counts(),
			Trials:          est.Trials,
			FailedTrials:    est.Failed,
			MissProbability: est.MissProb,
			MeanFailures:    est.MeanFailures,
			BaseTimeHours:   est.BaseMakespan.InHours(),
			BaseCostUSD:     est.BaseCost,
			TimeP50Hours:    est.MakespanP50.InHours(),
			TimeP90Hours:    est.MakespanP90.InHours(),
			TimeP99Hours:    est.MakespanP99.InHours(),
			CostP50USD:      est.CostP50,
			CostP90USD:      est.CostP90,
			CostP99USD:      est.CostP99,
		})
	})
}

// scheduleRequest is the body of POST /v1/schedule: a demand trace to
// solve a scaling schedule for, plus the switching-cost and optional
// per-step risk knobs.
type scheduleRequest struct {
	App   string       `json:"app"`
	Trace demand.Trace `json:"trace"`
	// BootSeconds is the boot delay for capacity added at a step
	// boundary; 0 means the default (schedule.DefaultBoot).
	BootSeconds units.Seconds `json:"boot_seconds,omitempty"`
	// HazardPerHour > 0 adds a Monte-Carlo deadline-risk timeline
	// (requires the app's workload to be mounted).
	HazardPerHour float64 `json:"hazard_per_hour,omitempty"`
	RiskTrials    int     `json:"risk_trials,omitempty"`
	// RiskEvery samples every k-th step for risk (default 8).
	RiskEvery int    `json:"risk_every,omitempty"`
	Seed      uint64 `json:"seed,omitempty"`
	// MaxTimeline caps per-step rows in the response (default 1000;
	// negative omits the timeline entirely).
	MaxTimeline int `json:"max_timeline,omitempty"`
}

// ScheduleStepResult is one timestep of a schedule response.
type ScheduleStepResult struct {
	T            int           `json:"t"`
	Config       []int         `json:"config"`
	DeltaNodes   int           `json:"delta_nodes,omitempty"`
	SlackSeconds units.Seconds `json:"slack_seconds"`
	CostUSD      units.USD     `json:"cost_usd"`
	Missed       bool          `json:"missed,omitempty"`
	// MissProbability is present only on risk-sampled steps.
	MissProbability *float64 `json:"miss_probability,omitempty"`
	RiskTrials      int      `json:"risk_trials,omitempty"`
}

// ScheduleResponse reports the solved schedule and its gap to the
// reactive autoscaling baseline.
type ScheduleResponse struct {
	App              string        `json:"app"`
	TraceHash        string        `json:"trace_hash"`
	TraceName        string        `json:"trace_name,omitempty"`
	Steps            int           `json:"steps"`
	StepSeconds      units.Seconds `json:"step_seconds"`
	HorizonHours     units.Hours   `json:"horizon_hours"`
	Billing          string        `json:"billing"`
	BootSeconds      units.Seconds `json:"boot_seconds"`
	QuantumSeconds   units.Seconds `json:"quantum_seconds,omitempty"`
	Candidates       int           `json:"candidates"`
	IndexBacked      bool          `json:"index_backed"`
	TotalCostUSD     units.USD     `json:"total_cost_usd"`
	ReleasePayoutUSD units.USD     `json:"release_payout_usd,omitempty"`
	Switches         int           `json:"switches"`
	Misses           int           `json:"misses"`
	// The built-in comparison: the same trace under reactive
	// autoscale-style scaling with identical cost accounting.
	BaselineCostUSD      units.USD            `json:"baseline_cost_usd"`
	BaselineMisses       int                  `json:"baseline_misses"`
	SavingsVsReactivePct float64              `json:"savings_vs_reactive_pct"`
	Timeline             []ScheduleStepResult `json:"timeline,omitempty"`
}

func (s *Server) handleSchedule(w http.ResponseWriter, r *http.Request) {
	var req scheduleRequest
	if !s.decodeBody(w, r, &req, &req.App) {
		return
	}
	if err := req.Trace.Validate(); err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{err.Error()})
		return
	}
	boot := req.BootSeconds
	if boot == 0 {
		boot = schedule.DefaultBoot
	}
	if boot < 0 || boot > req.Trace.Step {
		writeJSON(w, http.StatusBadRequest,
			errorBody{fmt.Sprintf("boot_seconds %v outside [0, step %v]", req.BootSeconds, req.Trace.Step)})
		return
	}
	if req.HazardPerHour < 0 {
		writeJSON(w, http.StatusBadRequest, errorBody{"negative hazard_per_hour"})
		return
	}
	if req.RiskTrials < 0 || req.RiskTrials > risk.MaxTrials {
		writeJSON(w, http.StatusBadRequest,
			errorBody{fmt.Sprintf("risk_trials outside [0, %d]", risk.MaxTrials)})
		return
	}
	var app workload.App
	if req.HazardPerHour > 0 {
		var ok bool
		if app, ok = s.apps[req.App]; !ok {
			writeJSON(w, http.StatusUnprocessableEntity,
				errorBody{fmt.Sprintf("no workload mounted for %q: risk timelines need the simulator, not just the analytic engine", req.App)})
			return
		}
	}
	req.BootSeconds = boot
	if req.RiskEvery <= 0 {
		req.RiskEvery = 8
	}
	if req.MaxTimeline == 0 {
		req.MaxTimeline = 1000
	}

	solves := s.reg.Counter("serving.schedule.solves")
	stepsSolved := s.reg.Counter("serving.schedule.steps")
	riskSteps := s.reg.Counter("serving.schedule.risk_steps")
	s.serve(w, r, "schedule", req.App, req, func(ctx context.Context, eng *core.Engine) ([]byte, error) {
		pol := schedule.PolicyFor(eng)
		pol.Boot = req.BootSeconds
		solved, err := schedule.SolveContext(ctx, eng, req.Trace, pol)
		if err != nil {
			return nil, err
		}
		baseline, err := schedule.ReactiveContext(ctx, eng, req.Trace, pol, autoscale.DefaultPolicy())
		if err != nil {
			return nil, err
		}
		solves.Inc()
		stepsSolved.Add(int64(len(solved.Steps)))

		riskAt := make(map[int]schedule.RiskPoint)
		if req.HazardPerHour > 0 {
			points, err := schedule.RiskTimelineContext(ctx, app, eng, req.Trace, solved, schedule.RiskOptions{
				HazardPerHour: req.HazardPerHour,
				Trials:        req.RiskTrials,
				Every:         req.RiskEvery,
				Seed:          req.Seed,
			})
			if err != nil {
				return nil, err
			}
			riskSteps.Add(int64(len(points)))
			for _, pt := range points {
				riskAt[pt.T] = pt
			}
		}

		resp := ScheduleResponse{
			App:                  req.App,
			TraceHash:            req.Trace.Hash(),
			TraceName:            req.Trace.Name,
			Steps:                req.Trace.Steps(),
			StepSeconds:          req.Trace.Step,
			HorizonHours:         req.Trace.Horizon().InHours(),
			Billing:              eng.Billing().String(),
			BootSeconds:          pol.Boot,
			QuantumSeconds:       pol.Quantum,
			Candidates:           solved.Candidates,
			IndexBacked:          true, // SolveContext fails without the staircase
			TotalCostUSD:         solved.TotalCost,
			ReleasePayoutUSD:     solved.ReleasePayout,
			Switches:             solved.Switches,
			Misses:               solved.Misses,
			BaselineCostUSD:      baseline.TotalCost,
			BaselineMisses:       baseline.Misses,
			SavingsVsReactivePct: schedule.SavingsPct(solved.TotalCost, baseline.TotalCost),
		}
		for t, st := range solved.Steps {
			if req.MaxTimeline < 0 || t >= req.MaxTimeline {
				break
			}
			row := ScheduleStepResult{
				T:            t,
				Config:       st.Config.Counts(),
				DeltaNodes:   st.DeltaNodes,
				SlackSeconds: st.Slack,
				CostUSD:      st.Cost,
				Missed:       st.Missed,
			}
			if pt, ok := riskAt[t]; ok {
				p := pt.MissProbability
				row.MissProbability = &p
				row.RiskTrials = pt.Trials
			}
			resp.Timeline = append(resp.Timeline, row)
		}
		return json.Marshal(resp)
	})
}

// statusWriter captures the response status for metrics.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (sw *statusWriter) WriteHeader(code int) {
	sw.status = code
	sw.ResponseWriter.WriteHeader(code)
}

// instrument wraps a handler with its per-route latency histogram and
// the shared status-class counters. Histograms are registered by the
// caller under literal names so the metric namespace is closed at
// compile time (no request-derived cardinality).
func (s *Server) instrument(hist *telemetry.Histogram, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		h(sw, r)
		s.httpRequests.Inc()
		if c := sw.status / 100; c >= 1 && c < len(s.statusClass) {
			s.statusClass[c].Inc()
		}
		hist.Observe(float64(time.Since(start)) / float64(time.Millisecond))
	}
}

func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}
