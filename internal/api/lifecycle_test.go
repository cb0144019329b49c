package api

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/apps/galaxy"
	"repro/internal/chaos"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/demand"
	"repro/internal/ec2"
	"repro/internal/model"
	"repro/internal/serving"
)

// smallEngine is an index-eligible engine over a 3^9 space so lifecycle
// tests never pay the paper-scale build.
func smallEngine(t *testing.T) *core.Engine {
	t.Helper()
	cat := ec2.Oregon()
	space, err := config.Uniform(cat.Len(), 2)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.NewEngine(model.FromIPC(cat, galaxy.App{}), demand.FromApp(galaxy.App{}), space, galaxy.App{}.Domain())
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// TestReadyzReportsIndexLifecycle asserts the /readyz body contract:
// per-app index state with the reason, top-level "degraded" (still 200)
// while an app serves from the scan, and "ready" when healthy.
func TestReadyzReportsIndexLifecycle(t *testing.T) {
	dir := t.TempDir()
	fd, err := serving.NewFrontdoor(map[string]*core.Engine{"galaxy": smallEngine(t)},
		serving.Config{SnapshotDir: dir, Rebuild: chaos.FailRebuild()})
	if err != nil {
		t.Fatal(err)
	}
	fd.LoadSnapshots() // no artifact → degraded
	fd.Wait()          // injected rebuild failure → stays degraded
	s, err := NewServer(fd)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)

	var body struct {
		Status string `json:"status"`
		Index  map[string]struct {
			State  string `json:"state"`
			Reason string `json:"reason"`
		} `json:"index"`
	}
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/readyz = %d while degraded, want 200 (degraded still answers)", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.Status != "degraded" {
		t.Fatalf("status = %q, want degraded", body.Status)
	}
	st, ok := body.Index["galaxy"]
	if !ok || st.State != "degraded" || !strings.Contains(st.Reason, "rebuild failed") {
		t.Fatalf("index.galaxy = %+v, want degraded with a rebuild-failed reason", st)
	}

	// A healthy frontdoor reports ready with the app pending (no query
	// has triggered the lazy build yet).
	healthy, err := serving.NewFrontdoor(map[string]*core.Engine{"galaxy": smallEngine(t)}, serving.Config{})
	if err != nil {
		t.Fatal(err)
	}
	hs, err := NewServer(healthy)
	if err != nil {
		t.Fatal(err)
	}
	hts := httptest.NewServer(hs)
	t.Cleanup(hts.Close)
	resp2, err := http.Get(hts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	body.Index = nil
	if err := json.NewDecoder(resp2.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.Status != "ready" || body.Index["galaxy"].State != "pending" {
		t.Fatalf("healthy /readyz = %q/%+v, want ready/pending", body.Status, body.Index["galaxy"])
	}
}

// TestIndexHeaderDegraded: a query against a declared-degraded app
// carries X-Index: degraded so clients can tell a scan-backed answer
// from an indexed one.
func TestIndexHeaderDegraded(t *testing.T) {
	dir := t.TempDir()
	fd, err := serving.NewFrontdoor(map[string]*core.Engine{"galaxy": smallEngine(t)},
		serving.Config{SnapshotDir: dir, Rebuild: chaos.FailRebuild()})
	if err != nil {
		t.Fatal(err)
	}
	fd.LoadSnapshots()
	fd.Wait()
	s, err := NewServer(fd)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.indexHeader(serving.Query{Kind: "mincost", App: "galaxy"}); got != "degraded" {
		t.Fatalf("X-Index = %q for a degraded app, want degraded", got)
	}
}

// TestContextErrorGets503WithRetryAfter: a request that outlives its
// context maps to 503 and tells the client when to come back.
func TestContextErrorGets503WithRetryAfter(t *testing.T) {
	fd, err := serving.NewFrontdoor(testEngines(), serving.Config{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewServer(fd)
	if err != nil {
		t.Fatal(err)
	}
	for _, cause := range []error{context.DeadlineExceeded, context.Canceled} {
		rec := httptest.NewRecorder()
		s.writeError(rec, fmt.Errorf("core: query aborted: %w", cause))
		if rec.Code != http.StatusServiceUnavailable {
			t.Fatalf("%v mapped to %d, want 503", cause, rec.Code)
		}
		if ra := rec.Header().Get("Retry-After"); ra != "1" {
			t.Fatalf("%v: Retry-After = %q, want 1", cause, ra)
		}
	}
}

// TestIndexStateWire pins the index-state wire formats byte for byte in
// each lifecycle state: the /readyz and /v1/apps bodies before any
// query, then the X-Index labels on a mincost followed by a schedule.
// The bodies are the contract dashboards and probes parse, so a change
// to how serving derives the state must leave every one of them as is.
func TestIndexStateWire(t *testing.T) {
	const (
		mincostBody  = `{"app":"galaxy","n":65536,"a":8000,"deadline_hours":24}`
		scheduleBody = `{"app":"galaxy","trace":{"version":1,"step_seconds":300,"a":50,"steps_n":[6000,12000,24000]}}`
	)
	mount := func(t *testing.T, eng *core.Engine, cfg serving.Config) *serving.Frontdoor {
		t.Helper()
		fd, err := serving.NewFrontdoor(map[string]*core.Engine{"galaxy": eng}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(fd.Wait)
		return fd
	}
	for _, tc := range []struct {
		name              string
		enter             func(t *testing.T) *serving.Frontdoor
		readyz, apps      string
		mincost, schedule string
	}{
		{
			name:     "pending",
			enter:    func(t *testing.T) *serving.Frontdoor { return mount(t, smallEngine(t), serving.Config{}) },
			readyz:   `{"status":"ready","index":{"galaxy":{"state":"pending"}}}`,
			apps:     `{"apps":["galaxy"],"index":{"galaxy":{"index_active":true}}}`,
			mincost:  "on",
			schedule: "on",
		},
		{
			name: "built",
			enter: func(t *testing.T) *serving.Frontdoor {
				eng := smallEngine(t)
				eng.Frontier()
				return mount(t, eng, serving.Config{})
			},
			readyz:   `{"status":"ready","index":{"galaxy":{"state":"built"}}}`,
			apps:     `{"apps":["galaxy"],"index":{"galaxy":{"index_active":true}}}`,
			mincost:  "on",
			schedule: "on",
		},
		{
			name: "bypassed",
			enter: func(t *testing.T) *serving.Frontdoor {
				eng := smallEngine(t)
				eng.SetBilling(model.Billing(7))
				return mount(t, eng, serving.Config{})
			},
			readyz:   `{"status":"ready","index":{"galaxy":{"state":"bypassed","reason":"billing policy Billing(7) is not certified index-monotone; every query falls back to the exhaustive scan","cause":"billing"}}}`,
			apps:     `{"apps":["galaxy"],"index":{"galaxy":{"index_active":false,"bypass_reason":"billing policy Billing(7) is not certified index-monotone; every query falls back to the exhaustive scan","bypass_cause":"billing"}}}`,
			mincost:  "off-billing",
			schedule: "on",
		},
		{
			name: "degraded",
			enter: func(t *testing.T) *serving.Frontdoor {
				fd := mount(t, smallEngine(t), serving.Config{SnapshotDir: t.TempDir(), Rebuild: chaos.FailRebuild()})
				fd.LoadSnapshots()
				fd.Wait()
				return fd
			},
			readyz:   `{"status":"degraded","index":{"galaxy":{"state":"degraded","reason":"index rebuild failed: chaos: injected fault: rebuild failed; serving from exhaustive scan"}}}`,
			apps:     `{"apps":["galaxy"],"index":{"galaxy":{"index_active":true}}}`,
			mincost:  "degraded",
			schedule: "on",
		},
		{
			name: "building",
			enter: func(t *testing.T) *serving.Frontdoor {
				release := make(chan struct{})
				fd := mount(t, smallEngine(t), serving.Config{Rebuild: func(e *core.Engine) (core.IndexStats, error) {
					<-release
					return e.RebuildIndex()
				}})
				t.Cleanup(func() { close(release) })
				fd.SwapEngine("galaxy", smallEngine(t))
				return fd
			},
			readyz:   `{"status":"ready","index":{"galaxy":{"state":"building","reason":"catalog swapped; index rebuild in progress"}}}`,
			apps:     `{"apps":["galaxy"],"index":{"galaxy":{"index_active":true}}}`,
			mincost:  "degraded",
			schedule: "on",
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, err := NewServer(tc.enter(t))
			if err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(s)
			defer ts.Close()
			do := func(method, path, body string) (*http.Response, string) {
				t.Helper()
				req, err := http.NewRequest(method, ts.URL+path, strings.NewReader(body))
				if err != nil {
					t.Fatal(err)
				}
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					t.Fatal(err)
				}
				defer resp.Body.Close()
				var buf strings.Builder
				if _, err := io.Copy(&buf, resp.Body); err != nil {
					t.Fatal(err)
				}
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("%s %s = %d: %s", method, path, resp.StatusCode, buf.String())
				}
				return resp, buf.String()
			}
			if _, got := do(http.MethodGet, "/readyz", ""); got != tc.readyz+"\n" {
				t.Errorf("/readyz body\n got %q\nwant %q", got, tc.readyz)
			}
			if _, got := do(http.MethodGet, "/v1/apps", ""); got != tc.apps+"\n" {
				t.Errorf("/v1/apps body\n got %q\nwant %q", got, tc.apps)
			}
			if resp, _ := do(http.MethodPost, "/v1/mincost", mincostBody); resp.Header.Get("X-Index") != tc.mincost {
				t.Errorf("mincost X-Index = %q, want %q", resp.Header.Get("X-Index"), tc.mincost)
			}
			if resp, _ := do(http.MethodPost, "/v1/schedule", scheduleBody); resp.Header.Get("X-Index") != tc.schedule {
				t.Errorf("schedule X-Index = %q, want %q", resp.Header.Get("X-Index"), tc.schedule)
			}
		})
	}
}
