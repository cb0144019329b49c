package api

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/apps/galaxy"
	"repro/internal/apps/x264"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/serving"
	"repro/internal/workload"
)

// sharedEngines is reused across tests: a frontdoor builds each
// engine's frontier index on its first leader compute, and sharing lets
// the whole package pay each build once rather than once per test — the
// builds dominate the suite under -race otherwise. Tests needing cold or
// scan-backed engines construct their own (see TestOverloadReturns429).
var sharedEngines = map[string]*core.Engine{
	"galaxy": core.NewPaperEngine(galaxy.App{}),
	"x264":   core.NewPaperEngine(x264.App{}),
}

func testEngines() map[string]*core.Engine { return sharedEngines }

func newTestServer(t *testing.T) *httptest.Server {
	t.Helper()
	s, err := NewServerFromEngines(testEngines())
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return ts
}

func postJSON(t *testing.T, url string, body interface{}, out interface{}) int {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode response: %v", err)
		}
	}
	return resp.StatusCode
}

func TestNewServerRequiresEngines(t *testing.T) {
	if _, err := NewServer(nil); err == nil {
		t.Fatal("nil frontdoor accepted")
	}
	if _, err := NewServerFromEngines(nil); err == nil {
		t.Fatal("empty server accepted")
	}
}

func TestHealthz(t *testing.T) {
	ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", resp.StatusCode)
	}
}

func TestAppsEndpoint(t *testing.T) {
	ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/v1/apps")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body struct {
		Apps  []string                  `json:"apps"`
		Index map[string]AppIndexStatus `json:"index"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if len(body.Apps) != 2 || body.Apps[0] != "galaxy" || body.Apps[1] != "x264" {
		t.Fatalf("apps = %v", body.Apps)
	}
	for _, name := range body.Apps {
		st, ok := body.Index[name]
		if !ok {
			t.Fatalf("no index status for %s", name)
		}
		if !st.Indexed || st.BypassReason != "" {
			t.Fatalf("%s index status = %+v, want active with no bypass", name, st)
		}
	}
}

func TestMinCostEndpoint(t *testing.T) {
	ts := newTestServer(t)
	var resp OptimizeResponse
	status := postJSON(t, ts.URL+"/v1/mincost", Request{
		App: "galaxy", N: 65536, A: 8000, DeadlineH: 24,
	}, &resp)
	if status != http.StatusOK {
		t.Fatalf("status = %d", status)
	}
	if !resp.Feasible || resp.Best == nil {
		t.Fatalf("response = %+v", resp)
	}
	// Algorithm 1's tie winner for the paper's spill scenario: the same
	// cluster as the paper's [5 5 5 3 ...], spelled with one m4.large
	// and one m4.xlarge, whose float sum lands one ulp cheaper — see the
	// golden-index test in internal/core.
	want := []int{5, 5, 5, 1, 1, 0, 0, 0, 0}
	for i, c := range want {
		if resp.Best.Config[i] != c {
			t.Fatalf("config = %v, want %v", resp.Best.Config, want)
		}
	}
	if resp.Best.TimeHours >= 24 || resp.Best.CostUSD <= 0 {
		t.Fatalf("best = %+v", resp.Best)
	}
}

func TestAnalyzeEndpoint(t *testing.T) {
	ts := newTestServer(t)
	var resp AnalyzeResponse
	status := postJSON(t, ts.URL+"/v1/analyze", Request{
		App: "galaxy", N: 65536, A: 8000, DeadlineH: 24, BudgetUSD: 350, MaxFrontier: 5,
	}, &resp)
	if status != http.StatusOK {
		t.Fatalf("status = %d", status)
	}
	if resp.Total != 10077695 || resp.Feasible == 0 {
		t.Fatalf("census = %+v", resp)
	}
	if len(resp.Frontier) != 5 {
		t.Fatalf("frontier rows = %d, want capped at 5", len(resp.Frontier))
	}
	if resp.CostLowUSD <= 0 || resp.CostHiUSD < resp.CostLowUSD {
		t.Fatalf("cost span %v..%v", resp.CostLowUSD, resp.CostHiUSD)
	}
}

func TestMinTimeEndpoint(t *testing.T) {
	ts := newTestServer(t)
	var resp OptimizeResponse
	status := postJSON(t, ts.URL+"/v1/mintime", Request{
		App: "x264", N: 8000, A: 20, BudgetUSD: 50,
	}, &resp)
	if status != http.StatusOK || !resp.Feasible {
		t.Fatalf("status %d, resp %+v", status, resp)
	}
	if resp.Best.CostUSD >= 50 {
		t.Fatalf("budget violated: %+v", resp.Best)
	}
}

func TestMaxAccuracyEndpoint(t *testing.T) {
	ts := newTestServer(t)
	var resp OptimizeResponse
	status := postJSON(t, ts.URL+"/v1/maxaccuracy", Request{
		App: "galaxy", N: 65536, DeadlineH: 24, BudgetUSD: 150,
	}, &resp)
	if status != http.StatusOK || !resp.Feasible {
		t.Fatalf("status %d, resp %+v", status, resp)
	}
	if resp.Accuracy <= 0 || resp.Best == nil {
		t.Fatalf("resp = %+v", resp)
	}
}

func TestErrorPaths(t *testing.T) {
	ts := newTestServer(t)
	cases := []struct {
		name   string
		path   string
		body   interface{}
		status int
	}{
		{"unknown app", "/v1/mincost", Request{App: "blender", N: 1, A: 1, DeadlineH: 1}, http.StatusNotFound},
		{"mincost no deadline", "/v1/mincost", Request{App: "galaxy", N: 65536, A: 8000}, http.StatusBadRequest},
		{"mintime no budget", "/v1/mintime", Request{App: "galaxy", N: 65536, A: 8000}, http.StatusBadRequest},
		{"maxaccuracy unconstrained", "/v1/maxaccuracy", Request{App: "galaxy", N: 65536}, http.StatusBadRequest},
		{"out of domain", "/v1/mincost", Request{App: "galaxy", N: 1, A: 1, DeadlineH: 1}, http.StatusUnprocessableEntity},
		{"negative deadline", "/v1/mincost", Request{App: "galaxy", N: 65536, A: 8000, DeadlineH: -1}, http.StatusBadRequest},
		{"maxaccuracy n below domain", "/v1/maxaccuracy", Request{App: "galaxy", N: -5, DeadlineH: 24}, http.StatusUnprocessableEntity},
		{"maxaccuracy n above domain", "/v1/maxaccuracy", Request{App: "galaxy", N: 1e12, DeadlineH: 24}, http.StatusUnprocessableEntity},
	}
	for _, c := range cases {
		var eb errorBody
		status := postJSON(t, ts.URL+c.path, c.body, &eb)
		if status != c.status {
			t.Errorf("%s: status %d, want %d", c.name, status, c.status)
		}
		if eb.Error == "" {
			t.Errorf("%s: no error message", c.name)
		}
	}
}

// postRoutes lists every POST route; all decode their body through
// decodeBody.
var postRoutes = []string{"/v1/analyze", "/v1/mincost", "/v1/mintime", "/v1/maxaccuracy", "/v1/risk", "/v1/schedule"}

// postRaw posts body to url and returns the status and the decoded
// error envelope.
func postRaw(t *testing.T, url, body string) (int, errorBody) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var eb errorBody
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
		t.Fatalf("response body not the error envelope: %v", err)
	}
	return resp.StatusCode, eb
}

func TestRejectsUnknownFields(t *testing.T) {
	ts := newTestServer(t)
	for _, route := range postRoutes {
		t.Run(strings.TrimPrefix(route, "/v1/"), func(t *testing.T) {
			status, eb := postRaw(t, ts.URL+route, `{"app":"galaxy","oops":1}`)
			if status != http.StatusBadRequest || !strings.Contains(eb.Error, "oops") {
				t.Fatalf("unknown field: status %d, error %q; want 400 naming the field", status, eb.Error)
			}
		})
	}
}

func TestMethodRouting(t *testing.T) {
	ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/v1/mincost")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET on POST endpoint = %d, want 405", resp.StatusCode)
	}
}

func TestRejectsNonZeroConfidence(t *testing.T) {
	ts := newTestServer(t)
	var eb errorBody
	status := postJSON(t, ts.URL+"/v1/mincost", Request{
		App: "galaxy", N: 65536, A: 8000, DeadlineH: 24, Confidence: 0.95,
	}, &eb)
	if status != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", status)
	}
	if !strings.Contains(eb.Error, "confidence") {
		t.Fatalf("error = %q, want mention of confidence", eb.Error)
	}
}

func TestBodySizeLimit(t *testing.T) {
	ts := newTestServer(t)
	// Valid JSON, but over 1 MiB: a huge app-name string.
	big := `{"app":"` + strings.Repeat("g", 2<<20) + `"}`
	for _, route := range postRoutes {
		t.Run(strings.TrimPrefix(route, "/v1/"), func(t *testing.T) {
			status, eb := postRaw(t, ts.URL+route, big)
			if status != http.StatusRequestEntityTooLarge || eb.Error == "" {
				t.Fatalf("status %d, error %q; want 413 with the error envelope", status, eb.Error)
			}
		})
	}
}

// TestCacheHitSecondRequest asserts the acceptance criterion: a
// repeated POST with the same body is served from cache, byte-for-byte
// identical, and the hit is observable at GET /debug/metrics.
func TestCacheHitSecondRequest(t *testing.T) {
	ts := newTestServer(t)
	body := []byte(`{"app":"galaxy","n":65536,"a":8000,"deadline_hours":24}`)
	get := func() ([]byte, string) {
		resp, err := http.Post(ts.URL+"/v1/mincost", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status = %d", resp.StatusCode)
		}
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes(), resp.Header.Get("X-Cache")
	}
	first, st1 := get()
	second, st2 := get()
	if st1 != "miss" || st2 != "hit" {
		t.Fatalf("X-Cache = %q then %q, want miss then hit", st1, st2)
	}
	if !bytes.Equal(first, second) {
		t.Fatalf("cached response differs:\n%s\n%s", first, second)
	}

	resp, err := http.Get(ts.URL + "/debug/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var metrics struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&metrics); err != nil {
		t.Fatal(err)
	}
	if metrics.Counters["serving.cache.hits"] < 1 {
		t.Fatalf("metrics show no cache hits: %v", metrics.Counters)
	}
	if metrics.Counters["http.requests"] < 2 {
		t.Fatalf("metrics show no http traffic: %v", metrics.Counters)
	}
}

// TestOverloadReturns429 saturates a one-slot, no-queue frontdoor with
// a census and asserts the next request is shed with 429 + Retry-After
// instead of queueing.
func TestOverloadReturns429(t *testing.T) {
	// A scan-backed engine (its billing policy is not certified for the
	// index): the occupying census must stay slow to reliably hold the
	// only slot, and the shared engines may already serve analyze from
	// their index in milliseconds.
	fd, err := serving.NewFrontdoor(map[string]*core.Engine{
		"galaxy": billingEngine(model.Billing(7)),
	}, serving.Config{
		MaxConcurrent: 1, QueueDepth: -1, CacheBytes: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewServer(fd)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)

	// Occupy the only slot with a full census.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		resp, err := http.Post(ts.URL+"/v1/analyze", "application/json",
			strings.NewReader(`{"app":"galaxy","n":65536,"a":8000}`))
		if err == nil {
			resp.Body.Close()
		}
	}()
	defer wg.Wait()
	inflight := fd.Metrics().Gauge("serving.inflight")
	deadline := time.Now().Add(10 * time.Second)
	for inflight.Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("census never started")
		}
		time.Sleep(time.Millisecond)
	}

	resp, err := http.Post(ts.URL+"/v1/mincost", "application/json",
		strings.NewReader(`{"app":"galaxy","n":65536,"a":8000,"deadline_hours":24}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	var eb errorBody
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil || eb.Error == "" {
		t.Fatalf("429 body not the error envelope: err %v, body %+v", err, eb)
	}
}

func newRiskServer(t *testing.T) (*httptest.Server, *serving.Frontdoor) {
	t.Helper()
	fd, err := serving.NewFrontdoor(testEngines(), serving.Config{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewServer(fd, WithApps(map[string]workload.App{
		"galaxy": galaxy.App{},
		"x264":   x264.App{},
	}))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return ts, fd
}

func TestRiskEndpoint(t *testing.T) {
	ts, fd := newRiskServer(t)
	req := map[string]interface{}{
		"app": "x264", "n": 16, "a": 20, "deadline_hours": 24,
		"hazard_per_hour": 0.05, "trials": 16, "seed": 7,
	}
	var resp RiskResponse
	if code := postJSON(t, ts.URL+"/v1/risk", req, &resp); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if resp.App != "x264" || resp.Trials != 16 {
		t.Fatalf("response %+v", resp)
	}
	if resp.MissProbability < 0 || resp.MissProbability > 1 {
		t.Fatalf("miss probability %v outside [0,1]", resp.MissProbability)
	}
	if resp.BaseTimeHours <= 0 || resp.BaseCostUSD <= 0 {
		t.Fatalf("degenerate base run: %+v", resp)
	}
	if len(resp.Config) == 0 {
		t.Fatal("solved configuration missing from response")
	}
	if resp.TimeP50Hours <= 0 || resp.CostP50USD <= 0 {
		t.Fatalf("quantiles missing: %+v", resp)
	}
	if got := fd.Metrics().Counter("risk.trials").Value(); got != 16 {
		t.Fatalf("risk.trials = %d, want 16", got)
	}

	// The repeated query is a pure cache hit: identical bytes, no new
	// trials simulated.
	raw, _ := json.Marshal(req)
	r2, err := http.Post(ts.URL+"/v1/risk", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Body.Close()
	if got := r2.Header.Get("X-Cache"); got != "hit" {
		t.Fatalf("X-Cache = %q on repeat, want hit", got)
	}
	// Monte-Carlo kinds never touch the frontier index.
	if got := r2.Header.Get("X-Index"); got != "off" {
		t.Fatalf("X-Index = %q on a risk query, want off", got)
	}
	if got := fd.Metrics().Counter("risk.trials").Value(); got != 16 {
		t.Fatalf("cache hit re-simulated: risk.trials = %d", got)
	}
}

func TestRiskEndpointExplicitConfig(t *testing.T) {
	ts, _ := newRiskServer(t)
	req := map[string]interface{}{
		"app": "x264", "n": 16, "a": 20, "deadline_hours": 24,
		"hazard_per_hour": 0, "trials": 8,
		"config": []int{2, 0, 0, 0, 0, 0, 0, 0, 0},
	}
	var resp RiskResponse
	if code := postJSON(t, ts.URL+"/v1/risk", req, &resp); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	want := []int{2, 0, 0, 0, 0, 0, 0, 0, 0}
	for i, c := range resp.Config {
		if c != want[i] {
			t.Fatalf("config %v, want %v", resp.Config, want)
		}
	}
	if resp.MissProbability != 0 {
		t.Fatalf("zero hazard under a generous deadline missed with p=%v", resp.MissProbability)
	}
}

func TestRiskEndpointValidation(t *testing.T) {
	ts, _ := newRiskServer(t)
	cases := []struct {
		name string
		body map[string]interface{}
		want int
	}{
		{"missing deadline", map[string]interface{}{"app": "x264", "n": 16, "a": 20, "hazard_per_hour": 1}, http.StatusBadRequest},
		{"negative hazard", map[string]interface{}{"app": "x264", "n": 16, "a": 20, "deadline_hours": 1, "hazard_per_hour": -1}, http.StatusBadRequest},
		{"unknown app", map[string]interface{}{"app": "blender", "n": 16, "a": 20, "deadline_hours": 1}, http.StatusNotFound},
		{"oversized trials", map[string]interface{}{"app": "x264", "n": 16, "a": 20, "deadline_hours": 1, "trials": 100001}, http.StatusBadRequest},
		{"bad config count", map[string]interface{}{"app": "x264", "n": 16, "a": 20, "deadline_hours": 1, "config": []int{-1, 0, 0, 0, 0, 0, 0, 0, 0}}, http.StatusBadRequest},
		{"config arity", map[string]interface{}{"app": "x264", "n": 16, "a": 20, "deadline_hours": 24, "config": []int{1, 1}}, http.StatusUnprocessableEntity},
	}
	for _, c := range cases {
		if code := postJSON(t, ts.URL+"/v1/risk", c.body, nil); code != c.want {
			t.Fatalf("%s: status %d, want %d", c.name, code, c.want)
		}
	}
}

func TestRiskExplicitConfigChecksDomain(t *testing.T) {
	// An explicit config skips the min-cost search that checks (n, a)
	// otherwise, so the handler checks them itself: a 422 with the
	// domain's message, before any trial is simulated. (An unchecked n
	// of 2e6 clips took seconds to simulate; 1e30 overflowed the task
	// count.)
	ts, fd := newRiskServer(t)
	for _, body := range []string{
		`{"app":"x264","n":2e6,"a":20,"deadline_hours":24,"trials":1,"config":[2,0,0,0,0,0,0,0,0]}`,
		`{"app":"x264","n":1e30,"a":20,"deadline_hours":24,"trials":1,"config":[2,0,0,0,0,0,0,0,0]}`,
		`{"app":"x264","n":0.5,"a":20,"deadline_hours":24,"trials":1,"config":[2,0,0,0,0,0,0,0,0]}`,
		`{"app":"x264","n":16,"a":60,"deadline_hours":24,"trials":1,"config":[2,0,0,0,0,0,0,0,0]}`,
		`{"app":"galaxy","n":2048,"a":0,"deadline_hours":24,"trials":1,"config":[2,0,0,0,0,0,0,0,0]}`,
	} {
		code, e := postRaw(t, ts.URL+"/v1/risk", body)
		if code != http.StatusUnprocessableEntity || !strings.HasPrefix(e.Error, "workload: ") || !strings.Contains(e.Error, " outside ") {
			t.Errorf("%s: status %d %q, want 422 with the domain error", body, code, e.Error)
		}
	}
	if got := fd.Metrics().Counter("risk.trials").Value(); got != 0 {
		t.Fatalf("out-of-domain queries simulated %d trials", got)
	}
}

func TestRiskRequiresMountedWorkload(t *testing.T) {
	// A server without WithApps serves the analytic endpoints but
	// rejects risk queries with 422.
	ts := newTestServer(t)
	code := postJSON(t, ts.URL+"/v1/risk", map[string]interface{}{
		"app": "x264", "n": 16, "a": 20, "deadline_hours": 24,
	}, nil)
	if code != http.StatusUnprocessableEntity {
		t.Fatalf("status %d, want 422", code)
	}
}

func TestReadyzFlipsWhileDraining(t *testing.T) {
	fd, err := serving.NewFrontdoor(testEngines(), serving.Config{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewServer(fd)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)

	get := func(path string) int {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := get("/readyz"); code != http.StatusOK {
		t.Fatalf("/readyz = %d before drain", code)
	}
	s.SetDraining(true)
	if code := get("/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz = %d while draining, want 503", code)
	}
	// Liveness is unaffected: the process is healthy, just not ready.
	if code := get("/healthz"); code != http.StatusOK {
		t.Fatalf("/healthz = %d while draining", code)
	}
	s.SetDraining(false)
	if code := get("/readyz"); code != http.StatusOK {
		t.Fatalf("/readyz = %d after drain cleared", code)
	}
}

// TestIndexHeader asserts the X-Index contract: analytic queries answer
// "on" once the lazy build has run — including on cache hits, which
// must not trigger a build — while an engine whose billing policy the
// index is not certified for stays scan-backed and answers
// "off-billing".
func TestIndexHeader(t *testing.T) {
	ts := newTestServer(t)
	body := []byte(`{"app":"galaxy","n":65536,"a":8000,"deadline_hours":24}`)
	post := func(url string) (idx, cache string) {
		resp, err := http.Post(url+"/v1/mincost", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status = %d", resp.StatusCode)
		}
		return resp.Header.Get("X-Index"), resp.Header.Get("X-Cache")
	}
	if idx, _ := post(ts.URL); idx != "on" {
		t.Fatalf("X-Index = %q after an indexed compute, want on", idx)
	}
	idx, cache := post(ts.URL)
	if cache != "hit" || idx != "on" {
		t.Fatalf("repeat: X-Cache = %q, X-Index = %q, want hit/on", cache, idx)
	}

	// An uncertified billing policy surfaces as a capability gap.
	bfd, err := serving.NewFrontdoor(map[string]*core.Engine{
		"galaxy": billingEngine(model.Billing(7)),
	}, serving.Config{})
	if err != nil {
		t.Fatal(err)
	}
	bs, err := NewServer(bfd)
	if err != nil {
		t.Fatal(err)
	}
	billTS := httptest.NewServer(bs)
	t.Cleanup(billTS.Close)
	if idx, _ := post(billTS.URL); idx != "off-billing" {
		t.Fatalf("X-Index = %q under an uncertified billing policy, want off-billing", idx)
	}
	if got := bfd.Metrics().Counter("serving.index.bypass").Value(); got < 1 {
		t.Fatalf("serving.index.bypass = %d after a scan-backed compute", got)
	}
	if got := bfd.Metrics().Counter("serving.index.bypass_billing").Value(); got != 1 {
		t.Fatalf("serving.index.bypass_billing = %d, want 1", got)
	}
}

// billingEngine builds a paper engine running an arbitrary billing
// policy.
func billingEngine(b model.Billing) *core.Engine {
	eng := core.NewPaperEngine(galaxy.App{})
	eng.SetBilling(b)
	return eng
}

func TestInternalErrorMapsTo500(t *testing.T) {
	fd, err := serving.NewFrontdoor(testEngines(), serving.Config{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewServer(fd)
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	s.writeError(rec, fmt.Errorf("%w: compute panic: boom", serving.ErrInternal))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("ErrInternal mapped to %d, want 500", rec.Code)
	}
	var body struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || body.Error == "" {
		t.Fatalf("500 body missing error envelope: %q", rec.Body.String())
	}
}
