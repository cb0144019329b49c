package serving_test

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"

	"repro/internal/api"
	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/serving"
	"repro/internal/snapshot"
)

const (
	mincostBody  = `{"app":"galaxy","n":65536,"a":8000,"deadline_hours":24}`
	scheduleBody = `{"app":"galaxy","trace":{"version":1,"step_seconds":300,"a":50,"steps_n":[6000,12000,24000]}}`
)

// servedApp is galaxy mounted on a Frontdoor whose start-up
// (LoadSnapshots) has run, served over HTTP.
type servedApp struct {
	t   *testing.T
	fd  *serving.Frontdoor
	eng *core.Engine
	url string
}

func serve(t *testing.T, cfg serving.Config) *servedApp {
	t.Helper()
	fd, err := serving.NewFrontdoor(map[string]*core.Engine{"galaxy": serving.ChaosEngine(t)}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	fd.LoadSnapshots()
	t.Cleanup(fd.Wait)
	srv, err := api.NewServer(fd)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	eng, _ := fd.Engine("galaxy")
	return &servedApp{t: t, fd: fd, eng: eng, url: ts.URL}
}

// startHeld is serve with the start-up build held: Config.Rebuild
// blocks until release is called, and release then waits for the build
// and its snapshot save. While it is held galaxy is pending, and a
// leader that reaches it runs the build itself. Cleanup releases it, so
// a failed assertion strands no goroutine.
func startHeld(t *testing.T, snapDir string) (h *servedApp, release func()) {
	t.Helper()
	gate := make(chan struct{})
	var once sync.Once
	h = serve(t, serving.Config{
		SnapshotDir: snapDir,
		Rebuild: func(e *core.Engine) (core.IndexStats, error) {
			<-gate
			return e.RebuildIndex()
		},
	})
	release = func() {
		once.Do(func() { close(gate) })
		h.fd.Wait()
	}
	t.Cleanup(release)
	return h, release
}

// post sends one query and returns its X-Index header.
func (h *servedApp) post(path, body string) string {
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
func (h *servedApp) ready() (string, serving.IndexState) {
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

// TestQueryDuringStartupBuildAnswersFromIndex holds the start-up build
// of an app with no snapshot to restore, then queries it. The app is
// pending, not degraded, and the leader joins or runs the build instead
// of scanning: its compute finds the index published, and the HTTP
// answer carries X-Index: on. The released start-up build keeps that
// index, and saves it when a snapshot directory is set.
func TestQueryDuringStartupBuildAnswersFromIndex(t *testing.T) {
	for _, tc := range []struct {
		name string
		dir  func(*testing.T) string
	}{
		{"missing-snapshot", func(t *testing.T) string { return t.TempDir() }},
		{"no-snapshot-dir", func(*testing.T) string { return "" }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := tc.dir(t)
			h, release := startHeld(t, dir)
			if status, st := h.ready(); status != "ready" || st != serving.IndexPending {
				t.Fatalf("/readyz = %q/%q while the start-up build is held, want ready/pending", status, st)
			}

			var sawIndex bool
			if _, _, err := h.fd.Do(context.Background(), serving.Query{Kind: "mincost", App: "galaxy", Extra: "held"},
				func(_ context.Context, e *core.Engine) ([]byte, error) {
					sawIndex = e.FrontierBuilt()
					return []byte("v"), nil
				}); err != nil {
				t.Fatal(err)
			}
			if !sawIndex {
				t.Fatal("the leader computed before the index was published: it scanned")
			}
			if idx := h.post("/v1/mincost", mincostBody); idx != "on" {
				t.Errorf("X-Index = %q while the start-up build is held, want on", idx)
			}
			if status, st := h.ready(); status != "ready" || st != serving.IndexBuilt {
				t.Errorf("/readyz = %q/%q after the query, want ready/built", status, st)
			}
			served, _ := h.eng.Frontier()

			release()
			if cur, _ := h.eng.Frontier(); cur != served {
				t.Error("the released start-up build published a second index over the leader's")
			}
			if dir == "" {
				return
			}
			if _, err := os.Stat(snapshot.PathFor(dir, "galaxy")); err != nil {
				t.Errorf("the start-up build did not save the snapshot: %v", err)
			}
		})
	}
}

// TestDegradedAppIndexedByScheduleReportsBuilt: a schedule solve
// publishes the index of an app whose start-up build failed (the
// snapshot was missing, and the injected build fails). From then on the
// app answers from that index, and every view of its state must say
// so: the next mincost carries X-Index: on, /readyz reports it built
// and the process ready, and the serving.index.degraded gauge reads 0.
func TestDegradedAppIndexedByScheduleReportsBuilt(t *testing.T) {
	t.Run("missing-snapshot", func(t *testing.T) {
		h := serve(t, serving.Config{SnapshotDir: t.TempDir(), Rebuild: chaos.FailRebuild()})
		h.fd.Wait()
		if status, st := h.ready(); status != "degraded" || st != serving.IndexDegraded {
			t.Fatalf("/readyz = %q/%q after the failed build, want degraded/degraded", status, st)
		}
		if g := h.fd.Metrics().Gauge("serving.index.degraded").Value(); g != 1 {
			t.Fatalf("serving.index.degraded = %d after the failed build, want 1", g)
		}

		if idx := h.post("/v1/schedule", scheduleBody); idx != "on" {
			t.Errorf("schedule X-Index = %q, want on", idx)
		}
		if !h.eng.FrontierBuilt() {
			t.Fatal("the schedule solve did not publish the index")
		}
		if idx := h.post("/v1/mincost", mincostBody); idx != "on" {
			t.Errorf("mincost X-Index = %q after the schedule published the index, want on", idx)
		}
		if status, st := h.ready(); status != "ready" || st != serving.IndexBuilt {
			t.Errorf("/readyz = %q/%q, want ready/built", status, st)
		}
		if g := h.fd.Metrics().Gauge("serving.index.degraded").Value(); g != 0 {
			t.Errorf("serving.index.degraded = %d, want 0", g)
		}
	})
}
