// Package serving is the production query-serving layer between
// internal/api and internal/core. The analytic kernel is expensive — a
// full census walks all S = 6⁹−1 configurations — while real query
// traffic is repetitive and bursty, so the Frontdoor puts three
// defenses in front of every engine run:
//
//  1. a byte-bounded LRU result cache with TTL, keyed by the query
//     kind, the app and the request's canonical form (Query.Extra);
//  2. singleflight request coalescing, so N identical in-flight
//     queries cost one engine run;
//  3. admission control: a bounded worker pool (sized from
//     runtime.NumCPU) plus a bounded wait queue with per-request
//     deadlines. When the queue is full — or a queued request's
//     deadline passes before a slot frees — Do fails fast with
//     ErrOverloaded, which internal/api maps to HTTP 429, instead of
//     letting load spikes pile up goroutines.
//
// The Frontdoor caches and returns opaque response bytes (the encoded
// JSON body) rather than engine values: a cache hit is a pure memory
// read that byte-for-byte reproduces the original response, and the
// byte budget is exact. Cached slices are shared — callers must not
// mutate them. Hit/miss/eviction, coalescing, admission, and latency
// accounting flow into a telemetry.Registry exported by the API layer
// at GET /debug/metrics.
//
// Below the cache, analytic leader runs answer from each engine's
// published frontier index instead of re-scanning the configuration
// space. Engine queries never build an index themselves: a leader
// compute for an app still "pending" joins or runs its build here, on
// the worker slot, before running. The serving.index.* counters and
// gauges report how many leader computes were index-served versus
// scan-backed and the shape of the built indexes.
//
// The Frontdoor also owns the index lifecycle (DESIGN.md §11), which
// has one cold-start path. LoadSnapshots is its start-up: it restores
// each engine's frontier index from disk when a snapshot directory is
// set, and one panic-isolated background goroutine builds every other
// index, one app at a time, and re-saves its snapshot. Until its index
// is published an app is "pending", and its leaders join the build
// rather than scan; an app whose build failed is declared "degraded"
// and answers from the exhaustive scan. The engine set is fixed when
// the Frontdoor is built, so an app's engine, and with it its billing
// policy, never changes under it. Per-app lifecycle state (pending /
// built / degraded / bypassed) is derived in one place, statusOf, from
// the engine and the failure recorded for its build, if any; /readyz,
// /v1/apps, X-Index, and the serving.index.degraded gauge all read it.
package serving

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/telemetry"
)

// ErrOverloaded is returned when admission control rejects a request:
// every worker slot is busy and the wait queue is full, or the request
// deadline expired while queued. internal/api maps it to 429 with a
// Retry-After hint.
var ErrOverloaded = errors.New("serving: overloaded, retry later")

// ErrUnknownApp is returned by Do for queries naming an unmounted
// application; internal/api maps it to 404.
var ErrUnknownApp = errors.New("serving: unknown app")

// ErrInternal is returned when a compute callback panics: the panic is
// recovered at the Frontdoor boundary so one bad request cannot take
// down the process, counted in serving.panics, and surfaced as this
// sentinel, which internal/api maps to 500.
var ErrInternal = errors.New("serving: internal error")

// Config tunes a Frontdoor. The zero value means "all defaults";
// negative values disable the corresponding feature where noted.
type Config struct {
	// CacheBytes bounds the result cache, bookkeeping included.
	// 0 → 64 MiB; negative → caching disabled.
	CacheBytes int64
	// CacheTTL is the entry lifetime. 0 → 15 minutes; negative →
	// entries never expire (the model is static per process).
	CacheTTL time.Duration
	// MaxConcurrent is the engine worker-pool size. 0 → runtime.NumCPU().
	// The census itself parallelizes internally, so this bounds
	// concurrent censuses, not CPU use of one.
	MaxConcurrent int
	// QueueDepth is how many admitted requests may wait for a worker
	// slot beyond MaxConcurrent. 0 → 4×MaxConcurrent; negative → no
	// queue (reject as soon as all slots are busy).
	QueueDepth int
	// RequestTimeout bounds each request from admission to queue exit.
	// 0 → 60 s; negative → no per-request deadline.
	RequestTimeout time.Duration
	// SnapshotDir holds frontier-index snapshots: LoadSnapshots restores
	// from it, and its successful start-up builds re-save into it.
	// Empty → no persistence; LoadSnapshots still builds every index.
	SnapshotDir string
	// ReadFile loads snapshot artifacts; nil → os.ReadFile. A test hook:
	// the chaos suite substitutes slow and torn readers to prove the
	// degradation paths.
	ReadFile func(string) ([]byte, error)
	// Rebuild runs one engine's start-up index build; nil →
	// (*core.Engine).RebuildIndex. A test hook for injecting held,
	// failing and panicking builds.
	Rebuild func(*core.Engine) (core.IndexStats, error)
	// Metrics receives the serving counters; nil → a fresh registry
	// (retrievable via Frontdoor.Metrics).
	Metrics *telemetry.Registry
}

func (c Config) withDefaults() Config {
	if c.CacheBytes == 0 {
		c.CacheBytes = 64 << 20
	}
	if c.CacheTTL == 0 {
		c.CacheTTL = 15 * time.Minute
	}
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = runtime.NumCPU()
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 4 * c.MaxConcurrent
	} else if c.QueueDepth < 0 {
		c.QueueDepth = 0
	}
	if c.RequestTimeout == 0 {
		c.RequestTimeout = 60 * time.Second
	}
	if c.ReadFile == nil {
		c.ReadFile = os.ReadFile
	}
	if c.Rebuild == nil {
		c.Rebuild = (*core.Engine).RebuildIndex
	}
	if c.Metrics == nil {
		c.Metrics = telemetry.NewRegistry()
	}
	return c
}

// Query identifies one engine invocation for caching and coalescing.
// Two queries coalesce or share a cache entry exactly when Kind, App
// and Extra are equal.
type Query struct {
	Kind string // "analyze", "mincost", "mintime", "maxaccuracy", "risk", "schedule"
	App  string
	// Extra is the request's canonical form: everything the compute
	// reads besides the engine. internal/api sets it to the JSON
	// re-encoding of the decoded, defaulted request, so every field a
	// compute can read is keyed by construction.
	Extra string
}

// CacheStatus reports how a Do call was served.
type CacheStatus int

const (
	// StatusMiss: this call ran the engine (or failed trying).
	StatusMiss CacheStatus = iota
	// StatusHit: served from the result cache.
	StatusHit
	// StatusCoalesced: piggybacked on an identical in-flight run.
	StatusCoalesced
)

// String returns the X-Cache header form.
func (s CacheStatus) String() string {
	switch s {
	case StatusHit:
		return "hit"
	case StatusCoalesced:
		return "coalesced"
	default:
		return "miss"
	}
}

// IndexState is the lifecycle state of one app's frontier index, the
// value /readyz and the X-Index header report. statusOf derives it.
type IndexState string

const (
	// IndexPending: no index is published yet and no build has failed:
	// the start-up build is queued or in flight, or LoadSnapshots never
	// ran. A leader compute joins or runs the build, so a pending app
	// never answers from the scan.
	IndexPending IndexState = "pending"
	// IndexBuilt: queries are answered from a published index.
	IndexBuilt IndexState = "built"
	// IndexDegraded: the app's start-up build failed, and queries fall
	// back to the exhaustive scan until anything publishes an index (a
	// schedule solve does). Declared, not silent: the
	// serving.index.degraded gauge counts these apps and responses carry
	// X-Index: degraded.
	IndexDegraded IndexState = "degraded"
	// IndexBypassed: the index cannot serve this engine's queries. The
	// status's Cause distinguishes a billing policy the index is not
	// certified for ("billing") from a catalog that did not compress
	// under the pair cap ("pair-cap") — capability gaps worth alerting
	// on.
	IndexBypassed IndexState = "bypassed"
)

// IndexStatus pairs a state with the reason it was entered (empty for
// the healthy states). Cause is the machine-readable bypass label
// ("billing" or "pair-cap"), set only in the bypassed state.
type IndexStatus struct {
	State  IndexState `json:"state"`
	Reason string     `json:"reason,omitempty"`
	Cause  string     `json:"cause,omitempty"`
}

// Frontdoor serves queries against a set of engines. Safe for
// concurrent use; create with NewFrontdoor. The engine set is fixed at
// construction and read without locking.
type Frontdoor struct {
	engines map[string]*core.Engine
	cfg     Config
	cache   *resultCache // nil when disabled
	group   flightGroup

	// mu guards failed.
	mu sync.Mutex
	// failed holds only what the engines cannot know: for each app
	// whose start-up build failed, IndexDegraded with its reason (the
	// zero status for a build that succeeded).
	failed map[string]IndexStatus
	// bg tracks the start-up build goroutine; Wait joins it.
	bg sync.WaitGroup

	// Admission: queue admits MaxConcurrent+QueueDepth requests,
	// slots caps actual engine concurrency at MaxConcurrent. Both are
	// token buckets implemented as buffered channels.
	queue chan struct{}
	slots chan struct{}

	requests, errors, rejected, coalesced, panics *telemetry.Counter
	canceled                                      *telemetry.Counter
	idxServed, idxBypass, idxBypassBilling        *telemetry.Counter
	snapLoaded, snapRejected, snapSaved           *telemetry.Counter
	snapSaveFailed                                *telemetry.Counter
	inflight, queued                              *telemetry.Gauge
	idxPairs, idxCandidates, idxBuildMS           *telemetry.Gauge
	idxDegraded                                   *telemetry.Gauge
	computeMS                                     *telemetry.Histogram
}

// AnalyticKind reports whether kind is answered by the engine's
// analytic query surface (Analyze, the argmin searches, and the
// horizon solver) — the kinds the frontier index can serve.
// Monte-Carlo kinds like "risk" never touch the index.
func AnalyticKind(kind string) bool {
	switch kind {
	case "analyze", "mincost", "mintime", "maxaccuracy", "schedule":
		return true
	}
	return false
}

// indexBacked reports whether a leader compute of this kind ran
// against the index. Per-query kinds need a published index and a
// billing policy certified index-monotone; a "schedule" solve reuses
// the billing-independent staircase, so it is index-backed whenever
// one is published.
func indexBacked(kind string, eng *core.Engine) bool {
	return eng.FrontierBuilt() && (kind == "schedule" || eng.Billing().Indexable())
}

// NewFrontdoor validates the configuration and wraps the given engines.
// The engines map is copied; mutate it afterwards freely. Each engine's
// billing policy must be set before it is mounted (core.Engine.SetBilling).
func NewFrontdoor(engines map[string]*core.Engine, cfg Config) (*Frontdoor, error) {
	if len(engines) == 0 {
		return nil, fmt.Errorf("serving: no engines to serve")
	}
	cfg = cfg.withDefaults()
	f := &Frontdoor{
		engines:   maps.Clone(engines),
		cfg:       cfg,
		failed:    make(map[string]IndexStatus),
		queue:     make(chan struct{}, cfg.MaxConcurrent+cfg.QueueDepth),
		slots:     make(chan struct{}, cfg.MaxConcurrent),
		requests:  cfg.Metrics.Counter("serving.requests"),
		errors:    cfg.Metrics.Counter("serving.errors"),
		rejected:  cfg.Metrics.Counter("serving.overload.rejected"),
		coalesced: cfg.Metrics.Counter("serving.coalesce.followers"),
		panics:    cfg.Metrics.Counter("serving.panics"),
		canceled:  cfg.Metrics.Counter("serving.canceled"),
		inflight:  cfg.Metrics.Gauge("serving.inflight"),
		queued:    cfg.Metrics.Gauge("serving.queued"),
		computeMS: cfg.Metrics.Histogram("serving.compute_ms"),
		idxServed: cfg.Metrics.Counter("serving.index.served"),
		idxBypass: cfg.Metrics.Counter("serving.index.bypass"),
		// bypass counts every scan-backed analytic leader compute;
		// bypass_billing additionally counts the subset forced off the
		// index by an uncertified billing policy — a capability gap,
		// alert on it.
		idxBypassBilling: cfg.Metrics.Counter("serving.index.bypass_billing"),
		// Snapshot lifecycle counters: artifacts restored at startup,
		// artifacts refused (missing/corrupt/stale/unreadable), artifacts
		// saved after a successful start-up build, and saves that failed
		// (the restart after one builds again).
		snapLoaded:     cfg.Metrics.Counter("serving.snapshot.loaded"),
		snapRejected:   cfg.Metrics.Counter("serving.snapshot.rejected"),
		snapSaved:      cfg.Metrics.Counter("serving.snapshot.saved"),
		snapSaveFailed: cfg.Metrics.Counter("serving.snapshot.save_failed"),
		// Gauges describe the published indexes, summed over engines:
		// exact (u, c_u) pairs retained, staircase candidates, and
		// cumulative build wall-clock. They stay 0 until an index is
		// published.
		idxPairs:      cfg.Metrics.Gauge("serving.index.pairs"),
		idxCandidates: cfg.Metrics.Gauge("serving.index.candidates"),
		idxBuildMS:    cfg.Metrics.Gauge("serving.index.build_ms"),
		// idxDegraded counts apps whose build failed and that serve
		// from the scan in a declared degraded state.
		idxDegraded: cfg.Metrics.Gauge("serving.index.degraded"),
	}
	if cfg.CacheBytes > 0 {
		f.cache = newResultCache(cfg.CacheBytes, cfg.CacheTTL, cfg.Metrics)
	}
	f.refreshIndexGauges() // an engine may be mounted with its index published
	return f, nil
}

// Wait joins the start-up build goroutine LoadSnapshots started, with
// its snapshot saves; call it on shutdown (and in tests) so no work
// outlives the process's intent to exit.
func (f *Frontdoor) Wait() { f.bg.Wait() }

// statusOf derives an app's index state from its engine and the
// failure recorded for its start-up build (zero when none failed), in
// precedence order: bypassed when the engine's index can never serve
// it, built when an index is published (a restore, a build, or a
// schedule solve), degraded when the build failed, and pending
// otherwise.
func statusOf(eng *core.Engine, failed IndexStatus) IndexStatus {
	if cause, reason := eng.IndexBypass(); cause != "" {
		return IndexStatus{State: IndexBypassed, Reason: reason, Cause: cause}
	}
	if eng.FrontierBuilt() {
		return IndexStatus{State: IndexBuilt}
	}
	if failed.State != "" {
		return failed
	}
	return IndexStatus{State: IndexPending}
}

// IndexStatuses derives every mounted app's index state, keyed by app
// name — the /readyz body's "index" section — and counts the degraded
// ones.
func (f *Frontdoor) IndexStatuses() (map[string]IndexStatus, int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make(map[string]IndexStatus, len(f.engines))
	degraded := 0
	for app, eng := range f.engines {
		st := statusOf(eng, f.failed[app])
		if st.State == IndexDegraded {
			degraded++
		}
		out[app] = st
	}
	return out, degraded
}

// IndexStatusFor derives one app's index state.
func (f *Frontdoor) IndexStatusFor(app string) (IndexStatus, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	eng, ok := f.engines[app]
	if !ok {
		return IndexStatus{}, false
	}
	return statusOf(eng, f.failed[app]), true
}

// Metrics returns the registry collecting this Frontdoor's counters.
func (f *Frontdoor) Metrics() *telemetry.Registry { return f.cfg.Metrics }

// Apps lists the mounted application names, sorted.
func (f *Frontdoor) Apps() []string {
	names := make([]string, 0, len(f.engines))
	for n := range f.engines {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Engine returns the engine mounted for app.
func (f *Frontdoor) Engine(app string) (*core.Engine, bool) {
	e, ok := f.engines[app]
	return e, ok
}

// key derives the cache/coalescing key. An app's engine, and so its
// billing policy, is fixed for the Frontdoor's life, so the app names
// it.
func (f *Frontdoor) key(q Query) string {
	return q.Kind + "|" + q.App + "|" + q.Extra
}

// Do serves one query: cache lookup, then coalescing, then admission,
// then compute. compute receives the request context (carrying the
// per-request deadline, which ctx-aware engine queries propagate into
// the scan loops) and the mounted engine, and returns the encoded
// response body, which Do caches on success. The returned bytes are
// shared with the cache and other waiters — callers must not mutate
// them.
func (f *Frontdoor) Do(ctx context.Context, q Query, compute func(context.Context, *core.Engine) ([]byte, error)) ([]byte, CacheStatus, error) {
	f.requests.Inc()
	eng, ok := f.engines[q.App]
	if !ok {
		f.errors.Inc()
		return nil, StatusMiss, fmt.Errorf("%w: %q", ErrUnknownApp, q.App)
	}
	key := f.key(q)
	if f.cache != nil {
		if val, ok := f.cache.get(key); ok {
			return val, StatusHit, nil
		}
	}
	// The deadline bounds waiting and computing; a hit does neither, so
	// it never allocates the timer.
	if f.cfg.RequestTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, f.cfg.RequestTimeout)
		defer cancel()
	}

	c, leader := f.group.join(key)
	if !leader {
		f.coalesced.Inc()
		select {
		case <-c.done:
			if c.err != nil {
				f.errors.Inc()
			}
			return c.val, StatusCoalesced, c.err
		case <-ctx.Done():
			f.errors.Inc()
			return nil, StatusCoalesced, ctx.Err()
		}
	}

	built := eng.FrontierBuilt()
	val, err := f.admitAndCompute(ctx, q.App, eng, compute)
	if !built && eng.FrontierBuilt() {
		// The index was published while this leader ran: by its join or
		// build, or by a schedule solve on a degraded app.
		f.refreshIndexGauges()
	}
	if err == nil && AnalyticKind(q.Kind) {
		// Leader-only accounting: cache hits and coalesced followers
		// never consult the index, so counting them would overstate it.
		if indexBacked(q.Kind, eng) {
			f.idxServed.Inc()
		} else {
			f.idxBypass.Inc()
			if !eng.Billing().Indexable() {
				f.idxBypassBilling.Inc()
			}
		}
	}
	if err == nil && f.cache != nil {
		f.cache.put(key, val)
	}
	f.group.finish(key, c, val, err)
	if err != nil {
		f.errors.Inc()
	}
	return val, StatusMiss, err
}

// buildPending puts a leader on a pending app onto the index before it
// computes, on the worker slot. The engine builds at most once, under
// its own lock: a leader that reaches the app while the start-up
// goroutine builds it waits for that build, and one that arrives first
// (or on a Frontdoor whose LoadSnapshots never ran) builds it, and the
// start-up goroutine then keeps that index. Either way the leader
// waits for at most one build, of its own app, and never scans. Engine
// queries never build, so only an app whose build failed (degraded)
// or that the index cannot serve (bypassed) answers from the scan.
func (f *Frontdoor) buildPending(app string, eng *core.Engine) {
	if st, _ := f.IndexStatusFor(app); st.State == IndexPending {
		eng.Frontier()
	}
}

// refreshIndexGauges re-derives the index gauges: the shape sums over
// engines with a published index, and the count of degraded apps. It
// runs where an index is published or a build fails — at mount, after
// LoadSnapshots' restores, after each start-up build, and after a
// leader during which the index appeared — not on every request.
// FrontierBuilt gates each Frontier call, so this never triggers a
// build.
func (f *Frontdoor) refreshIndexGauges() {
	var pairs, cands, buildMS int64
	for _, e := range f.engines {
		if !e.FrontierBuilt() {
			continue
		}
		if idx, ok := e.Frontier(); ok {
			st := idx.Stats()
			pairs += int64(st.Pairs)
			cands += int64(st.Staircase)
			buildMS += st.BuildMS
		}
	}
	_, degraded := f.IndexStatuses()
	f.idxPairs.Set(pairs)
	f.idxCandidates.Set(cands)
	f.idxBuildMS.Set(buildMS)
	f.idxDegraded.Set(int64(degraded))
}

// admitAndCompute is the leader path: take a queue token (fail fast
// with ErrOverloaded when the queue is full), wait for a worker slot,
// then run. A queued request whose deadline passes fails with
// ErrOverloaded (the server's admission budget ran out); one whose
// client walked away (context canceled) fails with the canceled error
// promptly instead of computing for a dead connection.
func (f *Frontdoor) admitAndCompute(ctx context.Context, app string, eng *core.Engine, compute func(context.Context, *core.Engine) ([]byte, error)) ([]byte, error) {
	select {
	case f.queue <- struct{}{}:
	default:
		f.rejected.Inc()
		return nil, fmt.Errorf("%w (queue full)", ErrOverloaded)
	}
	defer func() { <-f.queue }()

	f.queued.Add(1)
	select {
	case f.slots <- struct{}{}:
		f.queued.Add(-1)
	case <-ctx.Done():
		f.queued.Add(-1)
		if errors.Is(ctx.Err(), context.Canceled) {
			f.canceled.Inc()
			return nil, fmt.Errorf("serving: request canceled while queued: %w", ctx.Err())
		}
		f.rejected.Inc()
		return nil, fmt.Errorf("%w (queued past deadline: %v)", ErrOverloaded, ctx.Err())
	}
	f.inflight.Add(1)
	start := time.Now()
	defer func() {
		f.computeMS.Observe(float64(time.Since(start)) / float64(time.Millisecond))
		f.inflight.Add(-1)
		<-f.slots
	}()
	// The slot may have freed only after the client gave up; don't burn
	// a multi-second engine run on a dead request.
	if err := ctx.Err(); err != nil {
		if errors.Is(err, context.Canceled) {
			f.canceled.Inc()
		}
		return nil, fmt.Errorf("serving: request expired before compute: %w", err)
	}
	return f.guarded(ctx, app, eng, compute)
}

// guarded runs buildPending and then the compute callback
// with panic containment: a panicking request releases its admission
// tokens normally (the deferred bookkeeping above runs after recovery)
// and fails with ErrInternal instead of crashing the server.
func (f *Frontdoor) guarded(ctx context.Context, app string, eng *core.Engine, compute func(context.Context, *core.Engine) ([]byte, error)) (val []byte, err error) {
	defer func() {
		if r := recover(); r != nil {
			f.panics.Inc()
			val = nil
			err = fmt.Errorf("%w: compute panic: %v", ErrInternal, r)
		}
	}()
	f.buildPending(app, eng)
	return compute(ctx, eng)
}
