package api

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/apps/galaxy"
	"repro/internal/apps/x264"
	"repro/internal/serving"
	"repro/internal/workload"
)

// jsonBody is a request body with its key order kept, so a test can
// re-spell it field by field. A value is a float64, an int, a string,
// a []float64, an []int, or a nested jsonBody.
type jsonBody []jsonField

type jsonField struct {
	key string
	val any
}

// with returns a copy of b with the field at the dotted path set to v,
// appended when absent.
func (b jsonBody) with(path string, v any) jsonBody {
	out := append(jsonBody(nil), b...)
	key, rest, nested := strings.Cut(path, ".")
	for i, f := range out {
		if f.key != key {
			continue
		}
		if nested {
			v = f.val.(jsonBody).with(rest, v)
		}
		out[i].val = v
		return out
	}
	if nested {
		v = jsonBody{}.with(rest, v)
	}
	return append(out, jsonField{key, v})
}

// spelling picks how render writes a body: the key order, the
// whitespace, and the form of every float64 (ints decode only from
// integer literals, so they keep theirs).
type spelling struct {
	reversed bool
	spaced   bool
	float    func(float64) string
}

var (
	plainSpelling = spelling{float: func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }}
	// fractionSpelling writes 24 as 24.0.
	fractionSpelling = spelling{float: func(v float64) string {
		s := strconv.FormatFloat(v, 'f', -1, 64)
		if !strings.Contains(s, ".") {
			s += ".0"
		}
		return s
	}}
	// exponentSpelling writes 24 as 2.4e1.
	exponentSpelling = spelling{float: func(v float64) string {
		s := strconv.FormatFloat(v, 'e', -1, 64)
		s = strings.Replace(s, "e+0", "e", 1)
		return strings.Replace(s, "e+", "e", 1)
	}}
	reorderedSpelling = spelling{reversed: true, spaced: true, float: plainSpelling.float}
)

func (b jsonBody) render(sp spelling) string {
	var sb strings.Builder
	b.write(&sb, sp)
	return sb.String()
}

func (b jsonBody) write(sb *strings.Builder, sp spelling) {
	sep, colon := ",", ":"
	if sp.spaced {
		sep, colon = " ,\n\t", " : "
	}
	fields := append(jsonBody(nil), b...)
	if sp.reversed {
		for i, j := 0, len(fields)-1; i < j; i, j = i+1, j-1 {
			fields[i], fields[j] = fields[j], fields[i]
		}
	}
	sb.WriteString("{")
	for i, f := range fields {
		if i > 0 {
			sb.WriteString(sep)
		}
		sb.WriteString(strconv.Quote(f.key) + colon)
		switch v := f.val.(type) {
		case float64:
			sb.WriteString(sp.float(v))
		case int:
			sb.WriteString(strconv.Itoa(v))
		case string:
			sb.WriteString(strconv.Quote(v))
		case []float64:
			parts := make([]string, len(v))
			for i, x := range v {
				parts[i] = sp.float(x)
			}
			sb.WriteString("[" + strings.Join(parts, sep) + "]")
		case []int:
			parts := make([]string, len(v))
			for i, x := range v {
				parts[i] = strconv.Itoa(x)
			}
			sb.WriteString("[" + strings.Join(parts, sep) + "]")
		case jsonBody:
			v.write(sb, sp)
		default:
			panic("jsonBody: unsupported value " + reflect.TypeOf(v).String())
		}
	}
	sb.WriteString("}")
}

// clip shortens a response body for a failure message.
func clip(b []byte) string {
	if len(b) > 160 {
		return string(b[:160]) + "…"
	}
	return string(b)
}

// jsonFields lists every JSON field of a request type by dotted path,
// descending into nested structs such as the schedule trace.
func jsonFields(t reflect.Type, prefix string) []string {
	var out []string
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		if !f.IsExported() || name == "-" {
			continue
		}
		if name == "" {
			name = f.Name
		}
		if f.Type.Kind() == reflect.Struct {
			out = append(out, jsonFields(f.Type, prefix+name+".")...)
			continue
		}
		out = append(out, prefix+name)
	}
	return out
}

// keyRoute is one POST route's case in TestCacheKeyIsTheRequest.
type keyRoute struct {
	path string
	req  any // the route's request type
	// base omits every field the handler defaults.
	base jsonBody
	// changed gives each JSON field a value that differs from base's
	// effective one and still answers 200.
	changed map[string]any
	// rejected gives the fields the handler accepts at one value only
	// (confidence 0, trace version 1), each with a value it answers
	// with 400 before anything is keyed.
	rejected map[string]any
	// defaults spells out what the handler writes into base.
	defaults jsonBody
}

func keyRoutes() []keyRoute {
	// n and a lie in both mounted apps' domains, so "app" can change
	// alone.
	query := func(extra ...jsonField) jsonBody {
		return append(jsonBody{{"app", "galaxy"}, {"n", 4096.0}, {"a", 20.0}}, extra...)
	}
	queryChanges := map[string]any{
		"app": "x264", "n": 4097.0, "a": 21.0, "deadline_hours": 25.0,
		"budget_usd": 351.0, "max_frontier": 5,
	}
	confidence := map[string]any{"confidence": 0.95}
	trace := jsonBody{
		{"version", 1}, {"step_seconds", 300.0}, {"a", 20.0},
		{"steps_n", []float64{6000, 12000, 24000, 12000, 6000, 3000}},
	}
	return []keyRoute{
		{path: "/v1/analyze", req: Request{},
			base:    query(jsonField{"deadline_hours", 24.0}, jsonField{"budget_usd", 350.0}),
			changed: queryChanges, rejected: confidence,
			defaults: jsonBody{{"max_frontier", 100}}},
		{path: "/v1/mincost", req: Request{},
			base:    query(jsonField{"deadline_hours", 24.0}),
			changed: queryChanges, rejected: confidence,
			defaults: jsonBody{{"budget_usd", 0.0}, {"confidence", 0.0}}},
		{path: "/v1/mintime", req: Request{},
			base:    query(jsonField{"budget_usd", 50.0}),
			changed: queryChanges, rejected: confidence,
			defaults: jsonBody{{"deadline_hours", 0.0}, {"max_frontier", 0}}},
		{path: "/v1/maxaccuracy", req: Request{},
			base:    query(jsonField{"deadline_hours", 24.0}, jsonField{"budget_usd", 150.0}),
			changed: queryChanges, rejected: confidence,
			defaults: jsonBody{{"confidence", 0.0}}},
		{path: "/v1/risk", req: riskRequest{},
			base: jsonBody{{"app", "x264"}, {"n", 64.0}, {"a", 20.0}, {"deadline_hours", 24.0},
				{"hazard_per_hour", 0.05}, {"seed", 7}},
			changed: map[string]any{
				"app": "galaxy", "n": 65.0, "a": 21.0, "deadline_hours": 25.0,
				"hazard_per_hour": 0.1, "trials": 5, "seed": 8,
				"config": []int{1, 0, 0, 0, 0, 0, 0, 0, 0},
			},
			defaults: jsonBody{{"trials", 200}}},
		{path: "/v1/schedule", req: scheduleRequest{},
			base: jsonBody{{"app", "galaxy"}, {"trace", trace},
				{"hazard_per_hour", 0.05}, {"risk_trials", 2}, {"seed", 3}},
			changed: map[string]any{
				"app": "x264", "trace.app": "x264", "trace.name": "beta",
				"trace.step_seconds": 301.0, "trace.a": 21.0,
				"trace.steps_n":   []float64{6001, 12000, 24000, 12000, 6000, 3000},
				"boot_seconds":    60.0,
				"hazard_per_hour": 0.1, "risk_trials": 3, "risk_every": 3, "seed": 4,
				"max_timeline": 4,
			},
			rejected: map[string]any{"trace.version": 2},
			defaults: jsonBody{{"boot_seconds", 120.0}, {"risk_every", 8}, {"max_timeline", 1000}}},
	}
}

// TestCacheKeyIsTheRequest pins the cache key at the wire, on every
// POST route. A body that differs from another in any one JSON field —
// enumerated from the request type by reflection, nested trace fields
// included — misses the cache and answers the same bytes as an
// uncached server. A body that decodes to the same request once
// defaults are written in — keys reordered, whitespace added, numbers
// re-spelled, defaults or zeros spelled out — hits and answers the
// first body's bytes.
func TestCacheKeyIsTheRequest(t *testing.T) {
	apps := WithApps(map[string]workload.App{"galaxy": galaxy.App{}, "x264": x264.App{}})
	newServer := func(cfg serving.Config) string {
		fd, err := serving.NewFrontdoor(testEngines(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		s, err := NewServer(fd, apps)
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(s)
		t.Cleanup(ts.Close)
		return ts.URL
	}
	cached := newServer(serving.Config{})
	uncached := newServer(serving.Config{CacheBytes: -1})

	post := func(t *testing.T, url, body string) (int, string, []byte) {
		t.Helper()
		resp, err := http.Post(url, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, resp.Header.Get("X-Cache"), raw
	}
	// answer posts body to the caching server, expecting 200 and the
	// given X-Cache, and returns the bytes.
	answer := func(t *testing.T, path, body, xcache string) []byte {
		t.Helper()
		status, got, raw := post(t, cached+path, body)
		if status != http.StatusOK || got != xcache {
			t.Fatalf("POST %s %s: status %d, X-Cache %q; want 200, %q (body %s)", path, body, status, got, xcache, clip(raw))
		}
		return raw
	}
	// uncachedAnswer is what a server with no cache answers for body.
	uncachedAnswer := func(t *testing.T, path, body string) []byte {
		t.Helper()
		status, _, raw := post(t, uncached+path, body)
		if status != http.StatusOK {
			t.Fatalf("uncached POST %s %s: status %d (%s)", path, body, status, clip(raw))
		}
		return raw
	}

	for _, rt := range keyRoutes() {
		t.Run(strings.TrimPrefix(rt.path, "/v1/"), func(t *testing.T) {
			base := rt.base.render(plainSpelling)
			first := answer(t, rt.path, base, "miss")
			if want := uncachedAnswer(t, rt.path, base); !bytes.Equal(first, want) {
				t.Fatalf("base answer %s, uncached %s", clip(first), clip(want))
			}

			fields := jsonFields(reflect.TypeOf(rt.req), "")
			known := map[string]bool{}
			for _, path := range fields {
				known[path] = true
				if v, ok := rt.rejected[path]; ok {
					body := rt.base.with(path, v).render(plainSpelling)
					if status, _, raw := post(t, cached+rt.path, body); status != http.StatusBadRequest {
						t.Errorf("field %s = %v: status %d (%s), want 400", path, v, status, clip(raw))
					}
					continue
				}
				v, ok := rt.changed[path]
				if !ok {
					t.Errorf("field %s has no changed value: give it one, or list it as rejected", path)
					continue
				}
				body := rt.base.with(path, v).render(plainSpelling)
				got := answer(t, rt.path, body, "miss")
				if want := uncachedAnswer(t, rt.path, body); !bytes.Equal(got, want) {
					t.Errorf("field %s = %v: answer %s, uncached %s", path, v, clip(got), clip(want))
				}
			}
			for path := range rt.changed {
				if !known[path] {
					t.Errorf("changed value for %s, which is not a field of %T", path, rt.req)
				}
			}
			for path := range rt.rejected {
				if !known[path] {
					t.Errorf("rejected value for %s, which is not a field of %T", path, rt.req)
				}
			}

			withDefaults := rt.base
			for _, f := range rt.defaults {
				withDefaults = withDefaults.with(f.key, f.val)
			}
			for _, sp := range []struct{ name, body string }{
				{"reordered", rt.base.render(reorderedSpelling)},
				{"fraction", rt.base.render(fractionSpelling)},
				{"exponent", rt.base.render(exponentSpelling)},
				{"explicit defaults", withDefaults.render(plainSpelling)},
			} {
				if sp.body == base {
					t.Fatalf("%s spelling is the base body itself", sp.name)
				}
				if got := answer(t, rt.path, sp.body, "hit"); !bytes.Equal(got, first) {
					t.Errorf("%s spelling %s answered %s, want the base body's %s", sp.name, sp.body, clip(got), clip(first))
				}
			}
		})
	}
}
