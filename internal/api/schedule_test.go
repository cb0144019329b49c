package api

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"testing"

	"repro/internal/demand"
	"repro/internal/units"
)

// scheduleTestTrace is a short diurnal cycle inside galaxy's domain
// and well under the paper catalog's per-step capacity.
func scheduleTestTrace(steps int) demand.Trace {
	return demand.Diurnal(demand.DiurnalSpec{
		Steps:  steps,
		Step:   300,
		A:      50,
		BaseN:  6_000,
		PeakN:  40_000,
		Period: steps / 2,
		Jitter: 0.03,
		Seed:   5,
	})
}

func TestScheduleEndpoint(t *testing.T) {
	ts := newTestServer(t)
	tr := scheduleTestTrace(48)
	req := scheduleRequest{App: "galaxy", Trace: tr}

	var resp ScheduleResponse
	if code := postJSON(t, ts.URL+"/v1/schedule", req, &resp); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if resp.App != "galaxy" || resp.Steps != 48 || resp.TraceHash != tr.Hash() {
		t.Fatalf("response header fields wrong: %+v", resp)
	}
	if !resp.IndexBacked || resp.Candidates != 118 {
		t.Fatalf("schedule not solved from the paper staircase: backed=%v candidates=%d",
			resp.IndexBacked, resp.Candidates)
	}
	if resp.Misses != 0 || resp.TotalCostUSD <= 0 {
		t.Fatalf("degenerate solve: %+v", resp)
	}
	if resp.TotalCostUSD > resp.BaselineCostUSD {
		t.Fatalf("solved cost %v exceeds reactive baseline %v", resp.TotalCostUSD, resp.BaselineCostUSD)
	}
	if resp.SavingsVsReactivePct < 0 {
		t.Fatalf("negative savings %v", resp.SavingsVsReactivePct)
	}
	if len(resp.Timeline) != 48 {
		t.Fatalf("timeline has %d rows, want 48", len(resp.Timeline))
	}
	for _, row := range resp.Timeline {
		if row.MissProbability != nil {
			t.Fatalf("step %d carries a risk estimate without hazard", row.T)
		}
		if row.SlackSeconds < 0 || row.SlackSeconds > tr.Step {
			t.Fatalf("step %d slack %v outside [0, step]", row.T, row.SlackSeconds)
		}
	}

	// The identical request is a cache hit served from the index-backed
	// result: same bytes, X-Cache hit, X-Index on.
	raw, _ := json.Marshal(req)
	r2, err := http.Post(ts.URL+"/v1/schedule", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Body.Close()
	if got := r2.Header.Get("X-Cache"); got != "hit" {
		t.Fatalf("X-Cache = %q on repeat, want hit", got)
	}
	if got := r2.Header.Get("X-Index"); got != "on" {
		t.Fatalf("X-Index = %q on a schedule query, want on", got)
	}
	var again ScheduleResponse
	if err := json.NewDecoder(r2.Body).Decode(&again); err != nil {
		t.Fatal(err)
	}
	if again.TotalCostUSD != resp.TotalCostUSD || again.Switches != resp.Switches {
		t.Fatalf("cached schedule differs: %+v vs %+v", again, resp)
	}
}

func TestScheduleEndpointRiskTimeline(t *testing.T) {
	ts, fd := newRiskServer(t)
	tr := scheduleTestTrace(24)
	req := scheduleRequest{
		App: "galaxy", Trace: tr,
		HazardPerHour: 0.05, RiskTrials: 8, RiskEvery: 6, Seed: 3,
	}
	var resp ScheduleResponse
	if code := postJSON(t, ts.URL+"/v1/schedule", req, &resp); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	sampled := 0
	for _, row := range resp.Timeline {
		if row.MissProbability == nil {
			continue
		}
		sampled++
		if row.T%6 != 0 {
			t.Fatalf("risk sampled at step %d, want multiples of 6", row.T)
		}
		if *row.MissProbability < 0 || *row.MissProbability > 1 {
			t.Fatalf("step %d miss probability %v", row.T, *row.MissProbability)
		}
		if row.RiskTrials != 8 {
			t.Fatalf("step %d ran %d trials, want 8", row.T, row.RiskTrials)
		}
	}
	if sampled == 0 {
		t.Fatal("no risk-sampled steps in the timeline")
	}
	if got := fd.Metrics().Counter("serving.schedule.risk_steps").Value(); got != int64(sampled) {
		t.Fatalf("serving.schedule.risk_steps = %d, want %d", got, sampled)
	}
}

func TestScheduleEndpointTimelineCap(t *testing.T) {
	ts := newTestServer(t)
	tr := scheduleTestTrace(24)
	var capped ScheduleResponse
	if code := postJSON(t, ts.URL+"/v1/schedule",
		scheduleRequest{App: "galaxy", Trace: tr, MaxTimeline: 5}, &capped); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if len(capped.Timeline) != 5 {
		t.Fatalf("timeline has %d rows, want the 5-row cap", len(capped.Timeline))
	}
	var bare ScheduleResponse
	if code := postJSON(t, ts.URL+"/v1/schedule",
		scheduleRequest{App: "galaxy", Trace: tr, MaxTimeline: -1}, &bare); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if len(bare.Timeline) != 0 {
		t.Fatalf("negative max_timeline still returned %d rows", len(bare.Timeline))
	}
	if bare.TotalCostUSD != capped.TotalCostUSD {
		t.Fatalf("timeline cap changed the solved cost: %v vs %v", bare.TotalCostUSD, capped.TotalCostUSD)
	}
}

func TestScheduleEndpointValidation(t *testing.T) {
	ts := newTestServer(t)
	good := scheduleTestTrace(8)
	badVersion := good
	badVersion.Version = 9
	outsideDomain := scheduleTestTrace(8)
	outsideDomain.N[2] = 1 // below galaxy's MinN: engine-level 422

	cases := []struct {
		name string
		body scheduleRequest
		want int
	}{
		{"unknown app", scheduleRequest{App: "blender", Trace: good}, http.StatusNotFound},
		{"bad version", scheduleRequest{App: "galaxy", Trace: badVersion}, http.StatusBadRequest},
		{"empty trace", scheduleRequest{App: "galaxy"}, http.StatusBadRequest},
		{"boot beyond step", scheduleRequest{App: "galaxy", Trace: good, BootSeconds: good.Step + 1}, http.StatusBadRequest},
		{"negative hazard", scheduleRequest{App: "galaxy", Trace: good, HazardPerHour: -1}, http.StatusBadRequest},
		{"oversized trials", scheduleRequest{App: "galaxy", Trace: good, RiskTrials: 100001}, http.StatusBadRequest},
		{"risk without workload", scheduleRequest{App: "galaxy", Trace: good, HazardPerHour: 0.1}, http.StatusUnprocessableEntity},
		{"domain violation", scheduleRequest{App: "galaxy", Trace: outsideDomain}, http.StatusUnprocessableEntity},
	}
	for _, c := range cases {
		if code := postJSON(t, ts.URL+"/v1/schedule", c.body, nil); code != c.want {
			t.Fatalf("%s: status %d, want %d", c.name, code, c.want)
		}
	}

	// Unknown fields in the trace are rejected, not silently dropped.
	code := postJSON(t, ts.URL+"/v1/schedule", map[string]interface{}{
		"app": "galaxy", "trace": map[string]interface{}{
			"version": 1, "step_seconds": 300, "a": 50, "steps_n": []float64{6000}, "typo": true,
		},
	}, nil)
	if code != http.StatusBadRequest {
		t.Fatalf("unknown trace field: status %d, want 400", code)
	}
}

// TestScheduleCacheDistinctPerTraceName is the regression test for the
// stale-cache bug the cachekey lint rule caught: demand.Trace.Hash
// deliberately skips the advisory Name, but the schedule response
// echoes it, so two requests differing only in name must land in
// distinct cache entries — each echoing its own name, the second a
// miss, never a hit serving the first request's bytes.
func TestScheduleCacheDistinctPerTraceName(t *testing.T) {
	ts := newTestServer(t)
	tr := scheduleTestTrace(24)
	tr.Name = "alpha"
	renamed := tr
	renamed.Name = "beta"
	if tr.Hash() != renamed.Hash() {
		t.Fatal("test premise broken: renaming the trace changed its hash")
	}

	var first ScheduleResponse
	if code := postJSON(t, ts.URL+"/v1/schedule", scheduleRequest{App: "galaxy", Trace: tr}, &first); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if first.TraceName != "alpha" {
		t.Fatalf("first response echoes trace name %q, want alpha", first.TraceName)
	}

	raw, _ := json.Marshal(scheduleRequest{App: "galaxy", Trace: renamed})
	r2, err := http.Post(ts.URL+"/v1/schedule", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Body.Close()
	if got := r2.Header.Get("X-Cache"); got != "miss" {
		t.Fatalf("X-Cache = %q for a request differing only in trace name, want miss", got)
	}
	var second ScheduleResponse
	if err := json.NewDecoder(r2.Body).Decode(&second); err != nil {
		t.Fatal(err)
	}
	if second.TraceName != "beta" {
		t.Fatalf("second response echoes trace name %q, want beta (stale cache entry)", second.TraceName)
	}
	if first.TraceHash != second.TraceHash || first.TotalCostUSD != second.TotalCostUSD {
		t.Fatalf("renamed trace changed the solve: %+v vs %+v", first, second)
	}
}

// TestScheduleCacheDistinctPerAdjacentStep: traces whose step lengths
// are one ULP apart are different requests, so the second must miss the
// cache and echo its own step. When demand.Trace.Hash hashed the step
// through Hours(), 500 s and the next double shared a cache key and the
// second request was served the first one's bytes.
func TestScheduleCacheDistinctPerAdjacentStep(t *testing.T) {
	ts := newTestServer(t)
	tr := scheduleTestTrace(24)
	tr.Step = 500
	next := tr
	next.Step = units.Seconds(math.Nextafter(500, 1000))

	var first ScheduleResponse
	if code := postJSON(t, ts.URL+"/v1/schedule", scheduleRequest{App: "galaxy", Trace: tr}, &first); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if first.StepSeconds != tr.Step {
		t.Fatalf("first response echoes step %v, want %v", float64(first.StepSeconds), float64(tr.Step))
	}

	raw, _ := json.Marshal(scheduleRequest{App: "galaxy", Trace: next})
	r2, err := http.Post(ts.URL+"/v1/schedule", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Body.Close()
	if got := r2.Header.Get("X-Cache"); got != "miss" {
		t.Fatalf("X-Cache = %q for a step one ULP longer, want miss", got)
	}
	var second ScheduleResponse
	if err := json.NewDecoder(r2.Body).Decode(&second); err != nil {
		t.Fatal(err)
	}
	if second.StepSeconds != next.Step {
		t.Fatalf("second response echoes step %v, want %v (another request's cached body)",
			float64(second.StepSeconds), float64(next.Step))
	}
}
