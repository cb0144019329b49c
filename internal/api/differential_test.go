package api

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/apps/galaxy"
	"repro/internal/apps/sand"
	"repro/internal/apps/x264"
	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/detrand"
	"repro/internal/model"
	"repro/internal/serving"
	"repro/internal/workload"
)

// diffRoutes are the POST routes FuzzServe sends to both twins.
// /v1/schedule is left out: it has no scan path, and a solve publishes
// the index even on a degraded app.
var diffRoutes = []string{"/v1/analyze", "/v1/mincost", "/v1/mintime", "/v1/maxaccuracy", "/v1/risk"}

// diffApps are the paper applications the twins mount, each on a fresh
// small engine.
var diffApps = []workload.App{galaxy.App{}, sand.App{}, x264.App{}}

// serveTwin is one server of a FuzzServe pair and the engines it mounts.
type serveTwin struct {
	s       *Server
	engines []*core.Engine
}

// newServeTwin mounts fresh small engines for every diffApps entry
// under billing b and runs the Frontdoor's start-up with cfg.
func newServeTwin(tb testing.TB, b model.Billing, cfg serving.Config) serveTwin {
	tb.Helper()
	engines := map[string]*core.Engine{}
	mounted := map[string]workload.App{}
	var tw serveTwin
	for _, app := range diffApps {
		eng := smallAppEngine(tb, app)
		eng.SetBilling(b)
		engines[app.Name()], mounted[app.Name()] = eng, app
		tw.engines = append(tw.engines, eng)
	}
	fd, err := serving.NewFrontdoor(engines, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	fd.LoadSnapshots()
	fd.Wait()
	if tw.s, err = NewServer(fd, WithApps(mounted)); err != nil {
		tb.Fatal(err)
	}
	return tw
}

// diffSeeds draws the corpus: the wire golden's requests for each small
// engine, schedules dropped, plus boundary bodies the golden lacks.
func diffSeeds(tb testing.TB) []wireRequest {
	tb.Helper()
	rng := detrand.New(0xd1ff)
	var out []wireRequest
	for _, app := range diffApps {
		for _, rq := range wireGoldenRequests(rng, wireAppOn(app, smallAppEngine(tb, app))) {
			if rq.path != "/v1/schedule" {
				out = append(out, rq)
			}
		}
	}
	return append(out,
		wireRequest{"/v1/mincost", `{"app":"galaxy","n":65536,"a":8000,"deadline_hours":-3}`},
		wireRequest{"/v1/risk", `{"app":"x264","n":8000,"a":20,"deadline_hours":-1,"hazard_per_hour":0.1,"trials":4}`},
		wireRequest{"/v1/analyze", `{"app":"galaxy","n":1e309,"a":8000,"deadline_hours":24}`},
		wireRequest{"/v1/maxaccuracy", `{"app":"sand","n":8192000000,"budget_usd":1e309}`},
		wireRequest{"/v1/analyze", `{"app":"x264","n":8000,"a":20,"max_frontier":9223372036854775807}`},
		wireRequest{"/v1/analyze", `{"app":"sand","n":8192000000,"a":0.32,"budget_usd":1e9,"max_frontier":1000000000}`},
		wireRequest{"/v1/mintime", `{"app":"nope","n":8000,"a":20,"budget_usd":5}`},
		wireRequest{"/v1/risk", `{"app":"nope","n":8000,"a":20,"deadline_hours":2,"trials":4}`},
		wireRequest{"/v1/mincost", `{"app":"x264","n":1e30,"a":20,"deadline_hours":2}`},
		wireRequest{"/v1/maxaccuracy", `{"app":"galaxy","n":1,"deadline_hours":24}`},
	)
}

// FuzzServe is the differential test of index and scan at the wire: it
// sends each body to two servers over fresh small engines, under both
// billing policies. One twin's start-up built every index; the other's
// start-up build failed, so every app is degraded and answers from the
// exhaustive scan. Through decode, the cache key, the Frontdoor and
// encode, the two must answer the same status and byte-identical
// bodies, and the scan twin must never publish an index.
func FuzzServe(f *testing.F) {
	type pair struct {
		billing       model.Billing
		indexed, scan serveTwin
	}
	var pairs []pair
	for _, b := range []model.Billing{model.PerSecond, model.PerHour} {
		p := pair{
			billing: b,
			indexed: newServeTwin(f, b, serving.Config{}),
			scan:    newServeTwin(f, b, serving.Config{SnapshotDir: f.TempDir(), Rebuild: chaos.FailRebuild()}),
		}
		for _, eng := range p.indexed.engines {
			if !eng.FrontierBuilt() {
				f.Fatalf("%v: the indexed twin's start-up left an index unbuilt", b)
			}
		}
		if _, degraded := p.scan.s.fd.IndexStatuses(); degraded != len(diffApps) {
			f.Fatalf("%v: %d of the scan twin's apps degraded, want %d", b, degraded, len(diffApps))
		}
		pairs = append(pairs, p)
	}
	route := map[string]uint8{}
	for i, r := range diffRoutes {
		route[r] = uint8(i)
	}
	for _, rq := range diffSeeds(f) {
		f.Add(route[rq.path], rq.body)
	}

	f.Fuzz(func(t *testing.T, r uint8, body string) {
		path := diffRoutes[int(r)%len(diffRoutes)]
		send := func(s *Server) *httptest.ResponseRecorder {
			rec := httptest.NewRecorder()
			s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
			return rec
		}
		for _, p := range pairs {
			idx, scan := send(p.indexed.s), send(p.scan.s)
			if idx.Code != scan.Code || !bytes.Equal(idx.Body.Bytes(), scan.Body.Bytes()) {
				t.Errorf("%v %s %s:\nindex %d %s\nscan  %d %s",
					p.billing, path, body, idx.Code, idx.Body.Bytes(), scan.Code, scan.Body.Bytes())
			}
			for _, eng := range p.scan.engines {
				if eng.FrontierBuilt() {
					t.Fatalf("%v %s %s: the scan twin published an index", p.billing, path, body)
				}
			}
		}
	})
}
