package serving_test

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/serving"
)

const (
	mincostBody  = `{"app":"galaxy","n":65536,"a":8000,"deadline_hours":24}`
	scheduleBody = `{"app":"galaxy","trace":{"version":1,"step_seconds":300,"a":50,"steps_n":[6000,12000,24000]}}`
)

// heldApp is galaxy served over HTTP, degraded by a missing snapshot,
// while its background rebuild blocks until release is called.
type heldApp struct {
	t       *testing.T
	fd      *serving.Frontdoor
	eng     *core.Engine
	url     string
	release func()
}

func startHeld(t *testing.T) *heldApp {
	t.Helper()
	gate := make(chan struct{})
	fd, err := serving.NewFrontdoor(map[string]*core.Engine{"galaxy": serving.ChaosEngine(t)}, serving.Config{
		SnapshotDir: t.TempDir(),
		Rebuild: func(e *core.Engine) (core.IndexStats, error) {
			<-gate
			return e.RebuildIndex()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	fd.LoadSnapshots()
	eng, _ := fd.Engine("galaxy")
	h := &heldApp{t: t, fd: fd, eng: eng}
	srv, err := api.NewServer(fd)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	h.url = ts.URL
	released := false
	h.release = func() {
		if !released {
			released = true
			close(gate)
		}
		fd.Wait()
	}
	t.Cleanup(func() {
		ts.Close()
		h.release()
	})
	return h
}

// post sends one query and returns its X-Index header.
func (h *heldApp) post(path, body string) string {
	h.t.Helper()
	resp, err := http.Post(h.url+path, "application/json", strings.NewReader(body))
	if err != nil {
		h.t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		h.t.Fatalf("%s status = %d", path, resp.StatusCode)
	}
	return resp.Header.Get("X-Index")
}

// ready returns the /readyz top-level status and galaxy's state.
func (h *heldApp) ready() (string, serving.IndexState) {
	h.t.Helper()
	resp, err := http.Get(h.url + "/readyz")
	if err != nil {
		h.t.Fatal(err)
	}
	defer resp.Body.Close()
	var body struct {
		Status string                         `json:"status"`
		Index  map[string]serving.IndexStatus `json:"index"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		h.t.Fatal(err)
	}
	return body.Status, body.Index["galaxy"].State
}

// TestDegradedAndSwappedAppsAnswerFromScan holds the background rebuild
// of a degraded app (missing snapshot), then queries it over HTTP. The
// answer must come from the scan — the query must not publish the
// index itself — and X-Index must say "degraded", agreeing with the
// app's /readyz state. Once the rebuild is released the app turns built
// and the same query reads the index. (The name dates from when a
// catalog swap was the second way into a held rebuild; a missing
// snapshot is now the only one.)
func TestDegradedAndSwappedAppsAnswerFromScan(t *testing.T) {
	t.Run("missing-snapshot", func(t *testing.T) {
		h := startHeld(t)
		if idx := h.post("/v1/mincost", mincostBody); idx != "degraded" {
			t.Errorf("X-Index = %q while the rebuild is held, want degraded", idx)
		}
		if h.eng.FrontierBuilt() {
			t.Error("the query published the index itself instead of scanning")
		}
		if _, st := h.ready(); st != serving.IndexDegraded {
			t.Errorf("/readyz state = %q, want %q", st, serving.IndexDegraded)
		}

		h.release()
		if _, st := h.ready(); st != serving.IndexBuilt || !h.eng.FrontierBuilt() {
			t.Fatalf("after the rebuild: /readyz state %q, index published %v; want built", st, h.eng.FrontierBuilt())
		}
		if idx := h.post("/v1/mincost", mincostBody); idx != "on" {
			t.Errorf("X-Index = %q after the rebuild, want on", idx)
		}
	})
}

// TestDegradedAppIndexedByScheduleReportsBuilt: a schedule solve
// publishes the index of an app whose background rebuild is still held.
// From then on the app answers from that index, and every view of its
// state must say so before the rebuild is released: the next mincost
// carries X-Index: on, /readyz reports it built and the process ready,
// and the serving.index.degraded gauge reads 0. The released rebuild
// shares the engine's one build, so the solve's index stays published.
func TestDegradedAppIndexedByScheduleReportsBuilt(t *testing.T) {
	t.Run("missing-snapshot", func(t *testing.T) {
		h := startHeld(t)
		if idx := h.post("/v1/schedule", scheduleBody); idx != "on" {
			t.Errorf("schedule X-Index = %q, want on", idx)
		}
		if !h.eng.FrontierBuilt() {
			t.Fatal("the schedule solve did not publish the index")
		}
		solved, _ := h.eng.Frontier()
		if idx := h.post("/v1/mincost", mincostBody); idx != "on" {
			t.Errorf("mincost X-Index = %q after the schedule published the index, want on", idx)
		}
		if status, st := h.ready(); status != "ready" || st != serving.IndexBuilt {
			t.Errorf("/readyz = %q/%q, want ready/built", status, st)
		}
		if g := h.fd.Metrics().Gauge("serving.index.degraded").Value(); g != 0 {
			t.Errorf("serving.index.degraded = %d, want 0", g)
		}

		h.release()
		if cur, _ := h.eng.Frontier(); cur != solved {
			t.Error("the released rebuild published a second index over the one the schedule solve published")
		}
	})
}
