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

// TestDegradedAndSwappedAppsAnswerFromScan holds the background rebuild
// of a degraded app (missing snapshot) and of a freshly swapped one,
// then queries it over HTTP. The answer must come from the scan — the
// query must not publish the index itself — and X-Index must say
// "degraded", agreeing with the app's /readyz state. Once the rebuild
// is released the app turns built and the same query reads the index.
func TestDegradedAndSwappedAppsAnswerFromScan(t *testing.T) {
	for _, tc := range []struct {
		name      string
		wantState serving.IndexState
		enter     func(t *testing.T, fd *serving.Frontdoor) *core.Engine
	}{
		{"missing-snapshot", serving.IndexDegraded, func(t *testing.T, fd *serving.Frontdoor) *core.Engine {
			fd.LoadSnapshots()
			eng, _ := fd.Engine("galaxy")
			return eng
		}},
		{"swap", serving.IndexBuilding, func(t *testing.T, fd *serving.Frontdoor) *core.Engine {
			next := serving.ChaosEngine(t)
			fd.SwapEngine("galaxy", next)
			return next
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			release := make(chan struct{})
			fd, err := serving.NewFrontdoor(map[string]*core.Engine{"galaxy": serving.ChaosEngine(t)}, serving.Config{
				SnapshotDir: t.TempDir(),
				Rebuild: func(e *core.Engine) (core.IndexStats, error) {
					<-release
					return e.RebuildIndex()
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			eng := tc.enter(t, fd)
			srv, err := api.NewServer(fd)
			if err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(srv)
			defer ts.Close()
			defer fd.Wait()
			defer func() {
				select {
				case <-release:
				default:
					close(release)
				}
			}()

			mincost := func() string {
				t.Helper()
				resp, err := http.Post(ts.URL+"/v1/mincost", "application/json",
					strings.NewReader(`{"app":"galaxy","n":65536,"a":8000,"deadline_hours":24}`))
				if err != nil {
					t.Fatal(err)
				}
				defer resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("mincost status = %d", resp.StatusCode)
				}
				return resp.Header.Get("X-Index")
			}
			readyState := func() serving.IndexState {
				t.Helper()
				resp, err := http.Get(ts.URL + "/readyz")
				if err != nil {
					t.Fatal(err)
				}
				defer resp.Body.Close()
				var body struct {
					Index map[string]serving.IndexStatus `json:"index"`
				}
				if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
					t.Fatal(err)
				}
				return body.Index["galaxy"].State
			}

			if idx := mincost(); idx != "degraded" {
				t.Errorf("X-Index = %q while the rebuild is held, want degraded", idx)
			}
			if eng.FrontierBuilt() {
				t.Error("the query published the index itself instead of scanning")
			}
			if st := readyState(); st != tc.wantState {
				t.Errorf("/readyz state = %q, want %q", st, tc.wantState)
			}

			close(release)
			fd.Wait()
			if st := readyState(); st != serving.IndexBuilt || !eng.FrontierBuilt() {
				t.Fatalf("after the rebuild: /readyz state %q, index published %v; want built", st, eng.FrontierBuilt())
			}
			if idx := mincost(); idx != "on" {
				t.Errorf("X-Index = %q after the rebuild, want on", idx)
			}
		})
	}
}
