package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"

	"repro/internal/api"
	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/units"
	"repro/internal/workload"
)

// checker collects verification failures per request index.
type checker struct {
	bad  map[int]string
	logf func(format string, args ...any)
}

func newChecker(logf func(string, ...any)) *checker {
	return &checker{bad: map[int]string{}, logf: logf}
}

func (c *checker) fail(i int, format string, args ...any) {
	if _, dup := c.bad[i]; dup {
		return
	}
	c.bad[i] = fmt.Sprintf(format, args...)
	if len(c.bad) <= 5 {
		c.logf("verify: request %d: %s", i, c.bad[i])
	}
}

// cacheConsistency checks that every X-Cache hit or coalesced body
// equals the miss body of the same request (method, route and bytes).
func (c *checker) cacheConsistency(reqs []request, outs []outcome) {
	type key struct{ path, body string }
	miss := map[key]uint64{}
	for i, o := range outs {
		if o.ok() && o.cache == "miss" {
			k := key{reqs[i].Path(), string(reqs[i].Body)}
			if h, seen := miss[k]; seen && h != o.hash {
				c.fail(i, "two misses of one key returned different bodies")
			}
			miss[k] = o.hash
		}
	}
	for i, o := range outs {
		if !o.ok() || o.cache == "miss" {
			continue
		}
		h, seen := miss[key{reqs[i].Path(), string(reqs[i].Body)}]
		switch {
		case o.cache != "hit" && o.cache != "coalesced":
			c.fail(i, "unknown X-Cache %q", o.cache)
		case seen && h != o.hash:
			c.fail(i, "%s body differs from the key's miss body", o.cache)
		}
	}
}

// statuses marks every non-2xx or transport failure.
func (c *checker) statuses(outs []outcome) {
	for i, o := range outs {
		switch {
		case o.err != nil:
			c.fail(i, "transport: %v", o.err)
		case o.status/100 != 2:
			c.fail(i, "status %d", o.status)
		}
	}
}

// invariants checks every kept body against what its kind promises:
// analytic answers respect their constraints, schedules meet every
// step of a feasible trace no dearer than the reactive baseline, and
// risk estimates are probabilities over the requested trial count.
func (c *checker) invariants(reqs []request, outs []outcome) {
	for i, o := range outs {
		if o.body == nil || !o.ok() {
			continue
		}
		if err := checkInvariants(reqs[i], o.body); err != nil {
			c.fail(i, "%s: %v", reqs[i].Kind, err)
		}
	}
}

func checkInvariants(r request, body []byte) error {
	var q analyticBody
	switch r.Kind {
	case "analyze":
		var resp api.AnalyzeResponse
		if err := strictDecode(body, &resp); err != nil {
			return err
		}
		if resp.Feasible > resp.Total || len(resp.Frontier) > 100 {
			return fmt.Errorf("feasible %d of %d with %d frontier rows", resp.Feasible, resp.Total, len(resp.Frontier))
		}
	case "mincost", "mintime", "maxaccuracy":
		if err := json.Unmarshal(r.Body, &q); err != nil {
			return err
		}
		var resp api.OptimizeResponse
		if err := strictDecode(body, &resp); err != nil {
			return err
		}
		if !resp.Feasible {
			return nil
		}
		if resp.Best == nil {
			return fmt.Errorf("feasible without a best configuration")
		}
		if q.DeadlineH > 0 && !(float64(resp.Best.TimeHours) < q.DeadlineH) {
			return fmt.Errorf("time %vh misses the %vh deadline", resp.Best.TimeHours, q.DeadlineH)
		}
		if q.BudgetUSD > 0 && !(float64(resp.Best.CostUSD) < q.BudgetUSD) {
			return fmt.Errorf("cost $%v exceeds the $%v budget", resp.Best.CostUSD, q.BudgetUSD)
		}
	case "schedule":
		var sq scheduleBody
		if err := json.Unmarshal(r.Body, &sq); err != nil {
			return err
		}
		var resp api.ScheduleResponse
		if err := strictDecode(body, &resp); err != nil {
			return err
		}
		if resp.Steps != len(sq.Trace.N) {
			return fmt.Errorf("%d steps for a %d-step trace", resp.Steps, len(sq.Trace.N))
		}
		if resp.Misses != 0 {
			return fmt.Errorf("%d misses on a feasible trace", resp.Misses)
		}
		// The DP and the baseline share one cost accounting, so the
		// optimum can exceed the baseline only by summation rounding.
		if float64(resp.TotalCostUSD) > float64(resp.BaselineCostUSD)*(1+1e-12) {
			return fmt.Errorf("total $%v above the reactive baseline $%v", resp.TotalCostUSD, resp.BaselineCostUSD)
		}
	case "risk":
		var rq riskBody
		if err := json.Unmarshal(r.Body, &rq); err != nil {
			return err
		}
		var resp api.RiskResponse
		if err := strictDecode(body, &resp); err != nil {
			return err
		}
		if !(resp.MissProbability >= 0 && resp.MissProbability <= 1) {
			return fmt.Errorf("miss probability %v outside [0, 1]", resp.MissProbability)
		}
		if resp.Trials != rq.Trials {
			return fmt.Errorf("%d trials, requested %d", resp.Trials, rq.Trials)
		}
	}
	return nil
}

func strictDecode(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// oracle answers analyze and mincost with the exhaustive scan of
// engines that never build an index, under the workload's billing.
type oracle struct {
	engines map[string]*core.Engine
}

func newOracle(billing model.Billing) *oracle {
	o := &oracle{engines: map[string]*core.Engine{}}
	for name, app := range cli.Apps() {
		eng := core.NewPaperEngine(app)
		eng.SetBilling(billing)
		o.engines[name] = eng
	}
	return o
}

// expected renders the response body the server must return for r,
// encoded from the api package's exported response types exactly as
// the handlers encode them.
func (o *oracle) expected(ctx context.Context, r request) ([]byte, error) {
	var q analyticBody
	if err := json.Unmarshal(r.Body, &q); err != nil {
		return nil, err
	}
	eng := o.engines[q.App]
	p := workload.Params{N: q.N, A: q.A}
	switch r.Kind {
	case "analyze":
		an, err := eng.AnalyzeContext(ctx, p, core.Constraints{
			Deadline: units.Hours(q.DeadlineH).Seconds(),
			Budget:   units.USD(q.BudgetUSD),
		}, core.Options{})
		if err != nil {
			return nil, err
		}
		resp := api.AnalyzeResponse{App: q.App, Total: an.Total, Feasible: an.Feasible}
		resp.CostLowUSD, resp.CostHiUSD, _ = an.CostSpan()
		for i, f := range an.Frontier {
			if i >= 100 {
				break
			}
			resp.Frontier = append(resp.Frontier, api.ConfigResult{
				Config: f.Config.Counts(), TimeHours: f.Time.InHours(), CostUSD: f.Cost,
			})
		}
		return json.Marshal(resp)
	case "mincost":
		pred, ok, err := eng.MinCostExhaustive(p, units.Hours(q.DeadlineH).Seconds())
		if err != nil {
			return nil, err
		}
		return json.Marshal(optimizeResponse(q.App, pred, ok))
	}
	return nil, fmt.Errorf("no oracle for %s", r.Kind)
}

func optimizeResponse(app string, pred model.Prediction, feasible bool) api.OptimizeResponse {
	resp := api.OptimizeResponse{App: app, Feasible: feasible}
	if feasible {
		resp.Best = &api.ConfigResult{
			Config: pred.Config.Counts(), TimeHours: pred.Time.InHours(), CostUSD: pred.Cost,
		}
	}
	return resp
}

// oracleSample picks, seeded, about n kept answers of the kinds the
// oracle answers.
func oracleSample(w *workloadSpec, seed uint64, reqs []request, outs []outcome, n int) []int {
	var analyze, rich, mincost []int
	for i, o := range outs {
		if o.body == nil || !o.ok() {
			continue
		}
		switch reqs[i].Kind {
		case "analyze":
			analyze = append(analyze, i)
			var resp struct {
				Frontier []json.RawMessage `json:"pareto_frontier"`
			}
			if json.Unmarshal(o.body, &resp) == nil && len(resp.Frontier) >= 2 {
				rich = append(rich, i)
			}
		case "mincost":
			mincost = append(mincost, i)
		}
	}
	rng := rngFor(w.name, seed, partVerify)
	picked := map[int]bool{}
	var out []int
	pick := func(pool []int, k int) {
		rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
		for _, i := range pool {
			if k == 0 {
				return
			}
			if !picked[i] {
				picked[i] = true
				out = append(out, i)
				k--
			}
		}
	}
	// An empty or one-point frontier leaves most of an analyze encoding
	// unchecked (per-hour billing makes many), so half the sample is
	// analyze answers with two or more frontier rows; one analyze answer
	// is drawn from all of them, the rest are mincost answers.
	pick(rich, n/2)
	pick(analyze, 1)
	pick(mincost, n/2)
	return out
}

// againstOracle compares each sampled response byte for byte with the
// scan oracle's rendering.
func (c *checker) againstOracle(ctx context.Context, o *oracle, reqs []request, outs []outcome, sample []int) error {
	for _, i := range sample {
		if !outs[i].ok() {
			continue // already counted as a failure
		}
		want, err := o.expected(ctx, reqs[i])
		if err != nil {
			return fmt.Errorf("oracle for request %d: %w", i, err)
		}
		if !bytes.Equal(outs[i].body, want) {
			c.fail(i, "%s answer differs from the scan oracle:\n got  %s\n want %s", reqs[i].Kind, outs[i].body, want)
		}
	}
	return nil
}
