package serving

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/apps/galaxy"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/telemetry"
	"repro/internal/units"
	"repro/internal/workload"
)

// galaxyIndex builds the paper galaxy frontier index once per test
// binary: a paper-space build is not free (several times slower under
// -race) and an index is immutable, so every frontdoor test shares it.
var galaxyIndex = sync.OnceValue(func() *core.FrontierIndex {
	x, _ := core.NewPaperEngine(galaxy.App{}).Frontier()
	return x
})

// indexedGalaxy returns a fresh paper galaxy engine with the shared
// index installed, so a frontdoor mounts it already built.
func indexedGalaxy(tb testing.TB) *core.Engine {
	tb.Helper()
	eng := core.NewPaperEngine(galaxy.App{})
	if err := eng.InstallIndex(galaxyIndex()); err != nil {
		tb.Fatal(err)
	}
	return eng
}

func newTestFrontdoor(t *testing.T, cfg Config) *Frontdoor {
	t.Helper()
	f, err := NewFrontdoor(map[string]*core.Engine{"galaxy": indexedGalaxy(t)}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestNewFrontdoorRequiresEngines(t *testing.T) {
	if _, err := NewFrontdoor(nil, Config{}); err == nil {
		t.Fatal("empty frontdoor accepted")
	}
}

func TestUnknownApp(t *testing.T) {
	f := newTestFrontdoor(t, Config{})
	_, _, err := f.Do(context.Background(), Query{Kind: "mincost", App: "blender"},
		func(context.Context, *core.Engine) ([]byte, error) { return nil, nil })
	if !errors.Is(err, ErrUnknownApp) {
		t.Fatalf("err = %v, want ErrUnknownApp", err)
	}
}

func TestCacheHitReturnsIdenticalBytes(t *testing.T) {
	f := newTestFrontdoor(t, Config{})
	q := Query{Kind: "mincost", App: "galaxy", Extra: `{"n":65536,"a":8000,"deadline_hours":24}`}
	var runs atomic.Int64
	compute := func(context.Context, *core.Engine) ([]byte, error) {
		runs.Add(1)
		return []byte(`{"best":"config"}`), nil
	}
	first, st, err := f.Do(context.Background(), q, compute)
	if err != nil || st != StatusMiss {
		t.Fatalf("first call: status %v, err %v", st, err)
	}
	second, st, err := f.Do(context.Background(), q, compute)
	if err != nil || st != StatusHit {
		t.Fatalf("second call: status %v, err %v", st, err)
	}
	if !bytes.Equal(first, second) {
		t.Fatalf("cache returned different bytes: %q vs %q", first, second)
	}
	if runs.Load() != 1 {
		t.Fatalf("engine ran %d times, want 1", runs.Load())
	}
	hits := f.Metrics().Counter("serving.cache.hits").Value()
	misses := f.Metrics().Counter("serving.cache.misses").Value()
	if hits != 1 || misses != 1 {
		t.Fatalf("hits = %d, misses = %d, want 1 and 1", hits, misses)
	}
}

func TestDistinctQueriesDistinctEntries(t *testing.T) {
	f := newTestFrontdoor(t, Config{})
	compute := func(body string) func(context.Context, *core.Engine) ([]byte, error) {
		return func(context.Context, *core.Engine) ([]byte, error) { return []byte(body), nil }
	}
	a, _, _ := f.Do(context.Background(), Query{Kind: "mincost", App: "galaxy", Extra: `{"deadline_hours":24}`}, compute("a"))
	b, _, _ := f.Do(context.Background(), Query{Kind: "mincost", App: "galaxy", Extra: `{"deadline_hours":48}`}, compute("b"))
	c, _, _ := f.Do(context.Background(), Query{Kind: "mintime", App: "galaxy", Extra: `{"deadline_hours":24}`}, compute("c"))
	if string(a) != "a" || string(b) != "b" || string(c) != "c" {
		t.Fatalf("key collision: %q %q %q", a, b, c)
	}
}

func TestCoalescingSingleEngineRun(t *testing.T) {
	f := newTestFrontdoor(t, Config{})
	q := Query{Kind: "analyze", App: "galaxy", Extra: `{"n":65536,"a":8000}`}
	var runs atomic.Int64
	release := make(chan struct{})
	started := make(chan struct{})
	compute := func(context.Context, *core.Engine) ([]byte, error) {
		runs.Add(1)
		close(started)
		<-release // hold all followers in-flight
		return []byte("result"), nil
	}

	const followers = 15
	var wg sync.WaitGroup
	statuses := make([]CacheStatus, followers+1)
	errs := make([]error, followers+1)
	bodies := make([][]byte, followers+1)
	wg.Add(1)
	go func() { // leader
		defer wg.Done()
		bodies[0], statuses[0], errs[0] = f.Do(context.Background(), q, compute)
	}()
	<-started // leader is inside compute; everyone else must coalesce
	for i := 1; i <= followers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			bodies[i], statuses[i], errs[i] = f.Do(context.Background(), q, compute)
		}(i)
	}
	// Followers register before release; give them a moment to join.
	for f.Metrics().Counter("serving.coalesce.followers").Value() < followers {
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	if runs.Load() != 1 {
		t.Fatalf("engine ran %d times for %d identical requests, want 1", runs.Load(), followers+1)
	}
	var coalesced int
	for i := range statuses {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		if string(bodies[i]) != "result" {
			t.Fatalf("request %d body = %q", i, bodies[i])
		}
		if statuses[i] == StatusCoalesced {
			coalesced++
		}
	}
	if coalesced != followers {
		t.Fatalf("coalesced = %d, want %d", coalesced, followers)
	}
}

func TestCoalescedErrorPropagates(t *testing.T) {
	f := newTestFrontdoor(t, Config{})
	q := Query{Kind: "analyze", App: "galaxy", Extra: `{"n":1}`}
	boom := errors.New("demand out of domain")
	release := make(chan struct{})
	started := make(chan struct{})
	var wg sync.WaitGroup
	var leaderErr, followerErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _, leaderErr = f.Do(context.Background(), q, func(context.Context, *core.Engine) ([]byte, error) {
			close(started)
			<-release
			return nil, boom
		})
	}()
	<-started
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _, followerErr = f.Do(context.Background(), q, func(context.Context, *core.Engine) ([]byte, error) {
			t.Error("follower ran compute")
			return nil, nil
		})
	}()
	for f.Metrics().Counter("serving.coalesce.followers").Value() < 1 {
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()
	if !errors.Is(leaderErr, boom) || !errors.Is(followerErr, boom) {
		t.Fatalf("leader err %v, follower err %v, want %v", leaderErr, followerErr, boom)
	}
	// Errors are not cached: the next call runs compute again.
	_, st, err := f.Do(context.Background(), q, func(context.Context, *core.Engine) ([]byte, error) {
		return []byte("ok"), nil
	})
	if err != nil || st != StatusMiss {
		t.Fatalf("retry after error: status %v, err %v", st, err)
	}
}

func TestOverloadRejects(t *testing.T) {
	f := newTestFrontdoor(t, Config{MaxConcurrent: 1, QueueDepth: -1})
	release := make(chan struct{})
	started := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _, err := f.Do(context.Background(), Query{Kind: "analyze", App: "galaxy", Extra: `{"n":1}`}, func(context.Context, *core.Engine) ([]byte, error) {
			close(started)
			<-release
			return []byte("slow"), nil
		})
		if err != nil {
			t.Errorf("occupant: %v", err)
		}
	}()
	<-started

	// Different query (no coalescing), pool and queue are full.
	_, _, err := f.Do(context.Background(), Query{Kind: "analyze", App: "galaxy", Extra: `{"n":2}`}, func(context.Context, *core.Engine) ([]byte, error) {
		t.Error("rejected request ran compute")
		return nil, nil
	})
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("err = %v, want ErrOverloaded", err)
	}
	if got := f.Metrics().Counter("serving.overload.rejected").Value(); got != 1 {
		t.Fatalf("rejected counter = %d, want 1", got)
	}
	close(release)
	wg.Wait()
}

func TestQueuedRequestTimesOut(t *testing.T) {
	f := newTestFrontdoor(t, Config{MaxConcurrent: 1, QueueDepth: 1, RequestTimeout: 20 * time.Millisecond})
	release := make(chan struct{})
	started := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _, _ = f.Do(context.Background(), Query{Kind: "analyze", App: "galaxy", Extra: `{"n":1}`}, func(context.Context, *core.Engine) ([]byte, error) {
			close(started)
			<-release
			return []byte("slow"), nil
		})
	}()
	<-started
	// Fits in the queue but never gets a slot before the deadline.
	_, _, err := f.Do(context.Background(), Query{Kind: "analyze", App: "galaxy", Extra: `{"n":2}`}, func(context.Context, *core.Engine) ([]byte, error) {
		return nil, nil
	})
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("err = %v, want ErrOverloaded after queue timeout", err)
	}
	close(release)
	wg.Wait()
}

func TestCacheTTLExpiry(t *testing.T) {
	reg := telemetry.NewRegistry()
	f := newTestFrontdoor(t, Config{CacheTTL: time.Minute, Metrics: reg})
	now := time.Now()
	f.cache.now = func() time.Time { return now }

	q := Query{Kind: "mincost", App: "galaxy", Extra: `{"deadline_hours":24}`}
	var runs atomic.Int64
	compute := func(context.Context, *core.Engine) ([]byte, error) {
		runs.Add(1)
		return []byte("v"), nil
	}
	_, _, _ = f.Do(context.Background(), q, compute)
	if _, st, _ := f.Do(context.Background(), q, compute); st != StatusHit {
		t.Fatalf("status = %v, want hit before expiry", st)
	}
	now = now.Add(2 * time.Minute)
	if _, st, _ := f.Do(context.Background(), q, compute); st != StatusMiss {
		t.Fatalf("status = %v, want miss after TTL", st)
	}
	if runs.Load() != 2 {
		t.Fatalf("runs = %d, want 2", runs.Load())
	}
	if got := reg.Counter("serving.cache.expirations").Value(); got != 1 {
		t.Fatalf("expirations = %d, want 1", got)
	}
}

func TestCacheByteBoundEviction(t *testing.T) {
	// Budget fits ~2 entries of 1 KiB + overhead; the third insert must
	// evict the least recently used.
	reg := telemetry.NewRegistry()
	f := newTestFrontdoor(t, Config{CacheBytes: 2400, Metrics: reg})
	body := bytes.Repeat([]byte("x"), 1024)
	compute := func(context.Context, *core.Engine) ([]byte, error) { return body, nil }
	for i := 0; i < 3; i++ {
		q := Query{Kind: "analyze", App: "galaxy", Extra: fmt.Sprintf(`{"n":%d}`, i)}
		if _, _, err := f.Do(context.Background(), q, compute); err != nil {
			t.Fatal(err)
		}
	}
	if got := reg.Counter("serving.cache.evictions").Value(); got == 0 {
		t.Fatal("no evictions under byte pressure")
	}
	if n := f.cache.len(); n > 2 {
		t.Fatalf("cache holds %d entries, budget allows 2", n)
	}
	if b := reg.Gauge("serving.cache.bytes").Value(); b > 2400 {
		t.Fatalf("cache bytes %d exceed budget", b)
	}
	// Oldest entry (N=0) was evicted; newest (N=2) still resident.
	if _, st, _ := f.Do(context.Background(), Query{Kind: "analyze", App: "galaxy", Extra: `{"n":2}`}, compute); st != StatusHit {
		t.Fatalf("newest entry: status %v, want hit", st)
	}
	if _, st, _ := f.Do(context.Background(), Query{Kind: "analyze", App: "galaxy", Extra: `{"n":0}`}, compute); st != StatusMiss {
		t.Fatalf("oldest entry: status %v, want evicted miss", st)
	}
}

func TestOversizedValueNotCached(t *testing.T) {
	f := newTestFrontdoor(t, Config{CacheBytes: 512})
	q := Query{Kind: "analyze", App: "galaxy"}
	big := bytes.Repeat([]byte("y"), 4096)
	compute := func(context.Context, *core.Engine) ([]byte, error) { return big, nil }
	_, _, _ = f.Do(context.Background(), q, compute)
	if _, st, _ := f.Do(context.Background(), q, compute); st != StatusHit {
		if f.cache.len() != 0 {
			t.Fatalf("oversized value resident: %d entries", f.cache.len())
		}
	} else {
		t.Fatal("oversized value was cached")
	}
}

func TestCachingDisabled(t *testing.T) {
	f := newTestFrontdoor(t, Config{CacheBytes: -1})
	q := Query{Kind: "mincost", App: "galaxy", Extra: `{"deadline_hours":24}`}
	var runs atomic.Int64
	compute := func(context.Context, *core.Engine) ([]byte, error) {
		runs.Add(1)
		return []byte("v"), nil
	}
	_, _, _ = f.Do(context.Background(), q, compute)
	_, st, _ := f.Do(context.Background(), q, compute)
	if st != StatusMiss || runs.Load() != 2 {
		t.Fatalf("status %v runs %d, want miss/2 with caching off", st, runs.Load())
	}
}

// TestRealEngineThroughFrontdoor exercises the full stack against the
// actual analytic kernel: a real mincost query, cached on repeat.
func TestRealEngineThroughFrontdoor(t *testing.T) {
	f := newTestFrontdoor(t, Config{})
	q := Query{Kind: "mincost", App: "galaxy", Extra: `{"n":65536,"a":8000,"deadline_hours":24}`}
	compute := func(_ context.Context, eng *core.Engine) ([]byte, error) {
		pred, feasible, err := eng.MinCostForDeadline(
			workload.Params{N: 65536, A: 8000}, units.Hours(24).Seconds())
		if err != nil {
			return nil, err
		}
		if !feasible {
			return []byte("infeasible"), nil
		}
		return []byte(fmt.Sprintf("%v$%.2f", pred.Config.Counts(), float64(pred.Cost))), nil
	}
	cold, st, err := f.Do(context.Background(), q, compute)
	if err != nil || st != StatusMiss {
		t.Fatalf("cold: status %v, err %v", st, err)
	}
	warm, st, err := f.Do(context.Background(), q, compute)
	if err != nil || st != StatusHit {
		t.Fatalf("warm: status %v, err %v", st, err)
	}
	if !bytes.Equal(cold, warm) {
		t.Fatalf("cold %q != warm %q", cold, warm)
	}
	// Algorithm 1's tie winner for the paper's spill scenario shows up
	// through the stack: the frontier index is certified against
	// MinCostExhaustive.
	if want := "[5 5 5 1 1 0 0 0 0]"; !bytes.Contains(cold, []byte(want)) {
		t.Fatalf("body %q missing %q", cold, want)
	}

	// The cold compute used the index; the warm call was a cache hit
	// and must not re-count.
	m := f.Metrics()
	if served := m.Counter("serving.index.served").Value(); served != 1 {
		t.Fatalf("serving.index.served = %d, want 1", served)
	}
	if bypass := m.Counter("serving.index.bypass").Value(); bypass != 0 {
		t.Fatalf("serving.index.bypass = %d, want 0", bypass)
	}
	if pairs := m.Gauge("serving.index.pairs").Value(); pairs <= 0 {
		t.Fatalf("serving.index.pairs = %d after an indexed compute", pairs)
	}
	if cands := m.Gauge("serving.index.candidates").Value(); cands <= 0 {
		t.Fatalf("serving.index.candidates = %d after an indexed compute", cands)
	}
}

// TestFrontdoorMountNeverBuilds pins what mounting does and does not do:
// NewFrontdoor never builds eagerly (startup stays cheap; the first
// leader compute pays), and an engine the index cannot serve stays on
// the scan, counting analytic leader computes as bypasses without ever
// triggering a build.
func TestFrontdoorMountNeverBuilds(t *testing.T) {
	cold, err := NewFrontdoor(map[string]*core.Engine{"galaxy": core.NewPaperEngine(galaxy.App{})}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	eng, _ := cold.Engine("galaxy")
	if eng.FrontierBuilt() {
		t.Fatal("NewFrontdoor built the index eagerly")
	}
	if st, _ := cold.IndexStatusFor("galaxy"); st.State != IndexPending {
		t.Fatalf("fresh engine status = %+v, want pending", st)
	}

	uncertified := core.NewPaperEngine(galaxy.App{})
	uncertified.SetBilling(model.Billing(7))
	off, err := NewFrontdoor(map[string]*core.Engine{"galaxy": uncertified}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	// A stubbed analytic leader compute on the scan-backed engine is a
	// bypass; the non-analytic "risk" kind is counted as neither.
	stub := func(context.Context, *core.Engine) ([]byte, error) { return []byte("v"), nil }
	if _, _, err := off.Do(context.Background(), Query{Kind: "mincost", App: "galaxy", Extra: `{"deadline_hours":24}`}, stub); err != nil {
		t.Fatal(err)
	}
	if _, _, err := off.Do(context.Background(), Query{Kind: "risk", App: "galaxy", Extra: `{"trials":1}`}, stub); err != nil {
		t.Fatal(err)
	}
	m := off.Metrics()
	if bypass := m.Counter("serving.index.bypass").Value(); bypass != 1 {
		t.Fatalf("serving.index.bypass = %d, want 1 (risk must not count)", bypass)
	}
	if served := m.Counter("serving.index.served").Value(); served != 0 {
		t.Fatalf("serving.index.served = %d, want 0", served)
	}
	if uncertified.FrontierBuilt() {
		t.Fatal("bypass accounting triggered an index build")
	}
}

// TestPendingAppBuildsOnFirstLeaderCompute pins the leader's side of
// the cold start on a Frontdoor whose start-up never ran: engine
// queries never build, so the first leader compute of any kind on a
// pending app builds and publishes the index before it runs, the app
// reports built, and the index gauges describe the new index.
func TestPendingAppBuildsOnFirstLeaderCompute(t *testing.T) {
	f := chaosFrontdoor(t, Config{})
	eng, _ := f.Engine("galaxy")
	var sawIndex bool
	if _, _, err := f.Do(context.Background(), Query{Kind: "risk", App: "galaxy", Extra: `{"trials":1}`},
		func(_ context.Context, e *core.Engine) ([]byte, error) {
			sawIndex = e.FrontierBuilt()
			return []byte("v"), nil
		}); err != nil {
		t.Fatal(err)
	}
	if !sawIndex {
		t.Fatal("the leader compute ran before the pending app's index was published")
	}
	if st := statusFor(t, f, "galaxy"); st.State != IndexBuilt || !eng.FrontierBuilt() {
		t.Fatalf("status = %+v (built %v) after the first leader compute, want built", st, eng.FrontierBuilt())
	}
	if pairs := f.Metrics().Gauge("serving.index.pairs").Value(); pairs <= 0 {
		t.Fatalf("serving.index.pairs = %d after the leader published the index", pairs)
	}
}

// TestFrontdoorBypassBillingSplit pins the bypass-cause taxonomy: an
// engine forced off the index by an uncertified billing policy counts
// in both serving.index.bypass and serving.index.bypass_billing and
// reports cause "billing" in its /readyz status.
func TestFrontdoorBypassBillingSplit(t *testing.T) {
	uncertified := core.NewPaperEngine(galaxy.App{})
	uncertified.SetBilling(model.Billing(7))
	f, err := NewFrontdoor(map[string]*core.Engine{"galaxy": uncertified}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	st, ok := f.IndexStatusFor("galaxy")
	if !ok || st.State != IndexBypassed || st.Cause != "billing" {
		t.Fatalf("uncertified-billing status = %+v, want bypassed/billing", st)
	}
	stub := func(context.Context, *core.Engine) ([]byte, error) { return []byte("v"), nil }
	if _, _, err := f.Do(context.Background(), Query{Kind: "mincost", App: "galaxy", Extra: `{"deadline_hours":24}`}, stub); err != nil {
		t.Fatal(err)
	}
	m := f.Metrics()
	if got := m.Counter("serving.index.bypass").Value(); got != 1 {
		t.Fatalf("serving.index.bypass = %d, want 1", got)
	}
	if got := m.Counter("serving.index.bypass_billing").Value(); got != 1 {
		t.Fatalf("serving.index.bypass_billing = %d, want 1", got)
	}

	// A per-hour engine is certified: it must NOT report a bypass at
	// mount time.
	perHour := core.NewPaperEngine(galaxy.App{})
	perHour.SetBilling(model.PerHour)
	fh, err := NewFrontdoor(map[string]*core.Engine{"galaxy": perHour}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if st, ok := fh.IndexStatusFor("galaxy"); !ok || st.State != IndexPending {
		t.Fatalf("per-hour engine status = %+v, want pending", st)
	}
}

func TestAnalyticKind(t *testing.T) {
	for _, kind := range []string{"analyze", "mincost", "mintime", "maxaccuracy", "schedule"} {
		if !AnalyticKind(kind) {
			t.Errorf("AnalyticKind(%q) = false", kind)
		}
	}
	for _, kind := range []string{"risk", "", "Analyze", "frontier"} {
		if AnalyticKind(kind) {
			t.Errorf("AnalyticKind(%q) = true", kind)
		}
	}
}

func TestExtraPartitionsCacheKeys(t *testing.T) {
	f := newTestFrontdoor(t, Config{})
	base := Query{Kind: "schedule", App: "galaxy", Extra: `{"trace":{"steps_n":[6000]}}`}
	other := base
	other.Extra = `{"trace":{"steps_n":[6001]}}`

	for i, q := range []Query{base, other} {
		want := []byte(fmt.Sprintf("sched-%d", i))
		val, status, err := f.Do(context.Background(), q, func(context.Context, *core.Engine) ([]byte, error) {
			return want, nil
		})
		if err != nil || status != StatusMiss || !bytes.Equal(val, want) {
			t.Fatalf("variant %d: val %q status %v err %v (Extra collided in the key)", i, val, status, err)
		}
	}
	val, status, err := f.Do(context.Background(), base, func(context.Context, *core.Engine) ([]byte, error) {
		t.Fatal("cache miss on repeated schedule query")
		return nil, nil
	})
	if err != nil || status != StatusHit || string(val) != "sched-0" {
		t.Fatalf("repeat schedule query: val %q status %v err %v", val, status, err)
	}
}

// TestParallelMixedLoad hammers the frontdoor from many goroutines with
// a mix of repeated and distinct queries; run under -race this guards
// the cache/coalesce/admission interplay.
func TestParallelMixedLoad(t *testing.T) {
	f := newTestFrontdoor(t, Config{MaxConcurrent: 4, QueueDepth: 64})
	var wg sync.WaitGroup
	var engineRuns atomic.Int64
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				want := fmt.Sprintf("n=%d", i%5)
				q := Query{Kind: "analyze", App: "galaxy", Extra: want}
				body, _, err := f.Do(context.Background(), q, func(context.Context, *core.Engine) ([]byte, error) {
					engineRuns.Add(1)
					return []byte(want), nil
				})
				if err != nil {
					t.Errorf("goroutine %d: %v", g, err)
					return
				}
				if string(body) != want {
					t.Errorf("body %q, want %q", body, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	// 400 requests over 5 distinct keys: caching + coalescing must
	// collapse almost all of them. 5 is the floor; allow TTL-free slack.
	if engineRuns.Load() >= 400 {
		t.Fatalf("engine ran %d times for 400 requests over 5 keys", engineRuns.Load())
	}
}

func TestComputePanicRecovered(t *testing.T) {
	reg := telemetry.NewRegistry()
	f := newTestFrontdoor(t, Config{Metrics: reg})
	q := Query{Kind: "mincost", App: "galaxy", Extra: `{"n":1,"a":1}`}
	_, _, err := f.Do(context.Background(), q, func(context.Context, *core.Engine) ([]byte, error) {
		panic("boom")
	})
	if !errors.Is(err, ErrInternal) {
		t.Fatalf("panic surfaced as %v, want ErrInternal", err)
	}
	if got := reg.Counter("serving.panics").Value(); got != 1 {
		t.Fatalf("serving.panics = %d, want 1", got)
	}
	// The panicking request must have released its admission tokens and
	// not poisoned the cache: the same query computes again and succeeds.
	val, status, err := f.Do(context.Background(), q, func(context.Context, *core.Engine) ([]byte, error) {
		return []byte("ok"), nil
	})
	if err != nil || string(val) != "ok" || status != StatusMiss {
		t.Fatalf("frontdoor wedged after panic: val %q status %v err %v", val, status, err)
	}
}
