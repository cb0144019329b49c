package serving

import (
	"context"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/apps/galaxy"
	"repro/internal/chaos"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/demand"
	"repro/internal/ec2"
	"repro/internal/model"
	"repro/internal/snapshot"
)

// chaosEngine builds a small index-eligible engine (3^9 configurations,
// milliseconds to build) so lifecycle tests iterate fast. Every call
// returns an engine with the same catalog shape, hence the same index
// fingerprint — snapshots saved from one load into another.
func chaosEngine(t *testing.T) *core.Engine {
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

// saveArtifact builds a donor engine of the same shape and persists its
// index, giving tests a valid on-disk snapshot to corrupt or restore.
func saveArtifact(t *testing.T, dir string) string {
	t.Helper()
	donor := chaosEngine(t)
	path := snapshot.PathFor(dir, "galaxy")
	if err := snapshot.Save(path, donor); err != nil {
		t.Fatal(err)
	}
	return path
}

func chaosFrontdoor(t *testing.T, cfg Config) *Frontdoor {
	t.Helper()
	f, err := NewFrontdoor(map[string]*core.Engine{"galaxy": chaosEngine(t)}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// chaosApps names the apps threeAppFrontdoor mounts.
var chaosApps = []string{"galaxy", "sand", "x264"}

// threeAppFrontdoor is chaosFrontdoor with a fresh chaos engine under
// each of chaosApps.
func threeAppFrontdoor(t *testing.T, cfg Config) *Frontdoor {
	t.Helper()
	engines := map[string]*core.Engine{}
	for _, app := range chaosApps {
		engines[app] = chaosEngine(t)
	}
	f, err := NewFrontdoor(engines, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// heldChaosFrontdoor is chaosFrontdoor with its start-up build held
// until release is called. A test that asserts the pending state
// LoadSnapshots leaves behind looks before releasing: a free-running
// build of the small chaos engine can publish first. Cleanup releases
// the build and waits for it, so a failed assertion strands no
// goroutine writing into a removed snapshot directory.
func heldChaosFrontdoor(t *testing.T, cfg Config) (f *Frontdoor, release func()) {
	t.Helper()
	gate := make(chan struct{})
	var once sync.Once
	release = func() { once.Do(func() { close(gate) }) }
	cfg.Rebuild = func(e *core.Engine) (core.IndexStats, error) {
		<-gate
		return e.RebuildIndex()
	}
	f = chaosFrontdoor(t, cfg)
	t.Cleanup(func() {
		release()
		f.Wait()
	})
	return f, release
}

func statusFor(t *testing.T, f *Frontdoor, app string) IndexStatus {
	t.Helper()
	st, ok := f.IndexStatusFor(app)
	if !ok {
		t.Fatalf("no index status for %s", app)
	}
	return st
}

// TestQueuedCancelReturnsPromptly is the regression test for the
// queued-request cancellation fix: a request whose context is canceled
// while it waits for a worker slot must return the context error
// promptly — before the slot ever frees — not sit in the queue or get
// misreported as overload.
func TestQueuedCancelReturnsPromptly(t *testing.T) {
	f := newTestFrontdoor(t, Config{MaxConcurrent: 1, QueueDepth: 1, CacheBytes: -1})
	started := make(chan struct{})
	release := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _, _ = f.Do(context.Background(), Query{Kind: "analyze", App: "galaxy", Extra: `{"n":1}`},
			func(context.Context, *core.Engine) ([]byte, error) {
				close(started)
				<-release
				return []byte("leader"), nil
			})
	}()
	<-started

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, _, err := f.Do(ctx, Query{Kind: "analyze", App: "galaxy", Extra: `{"n":2}`},
			func(context.Context, *core.Engine) ([]byte, error) {
				t.Error("canceled request's compute ran")
				return nil, nil
			})
		done <- err
	}()
	time.Sleep(50 * time.Millisecond) // let the follower reach the queue
	cancel()

	select {
	case err := <-done:
		// The leader still holds the only slot, so this return proves
		// the wait observed ctx, not a freed worker.
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("queued cancel err = %v, want context.Canceled", err)
		}
		if errors.Is(err, ErrOverloaded) {
			t.Fatalf("cancellation misreported as overload: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("canceled queued request did not return")
	}
	close(release)
	wg.Wait()
}

// assertPendingNotDegraded checks the state LoadSnapshots leaves an app
// in whose artifact it could not restore while the start-up build is
// held: pending, so its leaders join the build, and not degraded.
func assertPendingNotDegraded(t *testing.T, f *Frontdoor) {
	t.Helper()
	if st := statusFor(t, f, "galaxy"); st.State != IndexPending {
		t.Fatalf("status = %+v while the start-up build is held, want pending", st)
	}
	if _, degraded := f.IndexStatuses(); degraded != 0 {
		t.Fatalf("%d degraded apps while the start-up build is held, want 0", degraded)
	}
}

// assertBuiltAndSaved checks the end of a start-up build: the app is
// built, nothing is degraded, and the snapshot at path was re-saved and
// decodes against the engine.
func assertBuiltAndSaved(t *testing.T, f *Frontdoor, path string) {
	t.Helper()
	if st := statusFor(t, f, "galaxy"); st.State != IndexBuilt {
		t.Fatalf("status after the start-up build = %+v, want built", st)
	}
	if _, degraded := f.IndexStatuses(); degraded != 0 {
		t.Fatalf("%d degraded apps after the start-up build, want 0", degraded)
	}
	eng, _ := f.Engine("galaxy")
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("the start-up build did not re-save the snapshot: %v", err)
	}
	if _, err := snapshot.Decode(blob, eng.IndexFingerprint()); err != nil {
		t.Fatalf("re-saved snapshot does not decode: %v", err)
	}
}

// TestSnapshotMissingBuildsAtStartup walks the cold start with no
// artifact: LoadSnapshots reports the missing file, the app is pending
// (not degraded) while the start-up build runs, the build publishes the
// index, and the snapshot is saved for the next process.
func TestSnapshotMissingBuildsAtStartup(t *testing.T) {
	dir := t.TempDir()
	f, release := heldChaosFrontdoor(t, Config{SnapshotDir: dir})
	problems := f.LoadSnapshots()
	if err := problems["galaxy"]; !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("problems[galaxy] = %v, want fs.ErrNotExist", err)
	}
	assertPendingNotDegraded(t, f)
	release()
	f.Wait()
	assertBuiltAndSaved(t, f, snapshot.PathFor(dir, "galaxy"))
}

// TestSnapshotCorruptRebuildsAtStartup: a bit-flipped artifact is
// rejected (never installed), the app waits pending for its start-up
// build, and the build's fresh save replaces the artifact.
func TestSnapshotCorruptRebuildsAtStartup(t *testing.T) {
	dir := t.TempDir()
	path := saveArtifact(t, dir)
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, chaos.FlipBit(blob, 8*200+5), 0o644); err != nil {
		t.Fatal(err)
	}

	f, release := heldChaosFrontdoor(t, Config{SnapshotDir: dir})
	problems := f.LoadSnapshots()
	if err := problems["galaxy"]; !errors.Is(err, snapshot.ErrCorrupt) {
		t.Fatalf("problems[galaxy] = %v, want ErrCorrupt", err)
	}
	assertPendingNotDegraded(t, f)
	release()
	f.Wait()
	assertBuiltAndSaved(t, f, path)
}

// TestSnapshotTornReadDegrades: a torn read (crashed non-atomic writer,
// or a filesystem that lies) is indistinguishable from corruption and
// takes the same ladder.
func TestSnapshotTornReadDegrades(t *testing.T) {
	dir := t.TempDir()
	saveArtifact(t, dir)
	f := chaosFrontdoor(t, Config{SnapshotDir: dir, ReadFile: chaos.TornReadFile(100)})
	problems := f.LoadSnapshots()
	if err := problems["galaxy"]; !errors.Is(err, snapshot.ErrCorrupt) {
		t.Fatalf("problems[galaxy] = %v, want ErrCorrupt", err)
	}
	f.Wait()
	if st := statusFor(t, f, "galaxy"); st.State != IndexBuilt {
		t.Fatalf("status after rebuild = %+v, want built", st)
	}
}

// TestSnapshotSlowLoadStillRestores: a slow disk delays startup but the
// artifact is intact, so the engine comes up built without paying the
// in-process build.
func TestSnapshotSlowLoadStillRestores(t *testing.T) {
	dir := t.TempDir()
	saveArtifact(t, dir)
	f := chaosFrontdoor(t, Config{SnapshotDir: dir, ReadFile: chaos.SlowReadFile(30 * time.Millisecond)})
	if problems := f.LoadSnapshots(); problems != nil {
		t.Fatalf("LoadSnapshots = %v, want nil", problems)
	}
	if st := statusFor(t, f, "galaxy"); st.State != IndexBuilt {
		t.Fatalf("status = %+v, want built", st)
	}
	eng, _ := f.Engine("galaxy")
	if !eng.FrontierBuilt() {
		t.Fatal("restored engine reports no index")
	}
}

// TestSnapshotReadFailureRebuildsAtStartup: an injected I/O failure
// (not corruption) takes the same path — pending, then built at
// start-up and re-saved.
func TestSnapshotReadFailureRebuildsAtStartup(t *testing.T) {
	dir := t.TempDir()
	path := saveArtifact(t, dir)
	f, release := heldChaosFrontdoor(t, Config{SnapshotDir: dir, ReadFile: chaos.FailReadFile()})
	problems := f.LoadSnapshots()
	if err := problems["galaxy"]; !errors.Is(err, chaos.ErrInjected) {
		t.Fatalf("problems[galaxy] = %v, want ErrInjected", err)
	}
	assertPendingNotDegraded(t, f)
	release()
	f.Wait()
	assertBuiltAndSaved(t, f, path)
}

// TestLoadSnapshotsWithoutDirBuildsEveryApp: with no snapshot
// directory, LoadSnapshots is still the start-up build. After Wait
// every app is built, and nothing was saved, neither counted nor as a
// file at the path an empty directory would name.
func TestLoadSnapshotsWithoutDirBuildsEveryApp(t *testing.T) {
	f := threeAppFrontdoor(t, Config{})
	if problems := f.LoadSnapshots(); problems != nil {
		t.Fatalf("LoadSnapshots = %v with no snapshot directory, want nil", problems)
	}
	f.Wait()
	for _, app := range chaosApps {
		if st := statusFor(t, f, app); st.State != IndexBuilt {
			t.Errorf("%s status = %+v after the start-up build, want built", app, st)
		}
		if _, err := os.Stat(snapshot.PathFor("", app)); !errors.Is(err, fs.ErrNotExist) {
			t.Errorf("%s: stat of the empty-directory snapshot path = %v, want not exist", app, err)
		}
	}
	if saved := f.Metrics().Counter("serving.snapshot.saved").Value(); saved != 0 {
		t.Errorf("serving.snapshot.saved = %d with no snapshot directory, want 0", saved)
	}
}

// TestSnapshotSaveFailureCounted: a snapshot directory that does not
// exist refuses every save. The start-up build still publishes each
// index, and each refused save is counted, so a restart that builds
// again has a cause to show.
func TestSnapshotSaveFailureCounted(t *testing.T) {
	f := threeAppFrontdoor(t, Config{SnapshotDir: filepath.Join(t.TempDir(), "missing")})
	f.LoadSnapshots()
	f.Wait()
	for _, app := range chaosApps {
		if st := statusFor(t, f, app); st.State != IndexBuilt {
			t.Errorf("%s status = %+v after the start-up build, want built", app, st)
		}
	}
	if failed := f.Metrics().Counter("serving.snapshot.save_failed").Value(); failed != int64(len(chaosApps)) {
		t.Errorf("serving.snapshot.save_failed = %d, want %d (one per app built)", failed, len(chaosApps))
	}
	if saved := f.Metrics().Counter("serving.snapshot.saved").Value(); saved != 0 {
		t.Errorf("serving.snapshot.saved = %d into a missing directory, want 0", saved)
	}
}

// TestLeadersDuringStartupBuildNeverScan races leaders on every app
// against a free-running start-up build of apps whose snapshots are
// missing. Each leader joins the build in flight or runs it, so every
// compute finds its app's index published: none scans.
func TestLeadersDuringStartupBuildNeverScan(t *testing.T) {
	f := threeAppFrontdoor(t, Config{SnapshotDir: t.TempDir()})
	f.LoadSnapshots()
	var wg sync.WaitGroup
	for i := 0; i < 2*len(chaosApps); i++ {
		app := chaosApps[i%len(chaosApps)]
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			q := Query{Kind: "mincost", App: app, Extra: strconv.Itoa(i)}
			if _, _, err := f.Do(context.Background(), q, func(_ context.Context, e *core.Engine) ([]byte, error) {
				if !e.FrontierBuilt() {
					t.Errorf("%s: a leader computed before the index was published: it scanned", app)
				}
				return []byte("v"), nil
			}); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	f.Wait()
	if _, degraded := f.IndexStatuses(); degraded != 0 {
		t.Fatalf("%d degraded apps after the start-up build, want 0", degraded)
	}
}

// TestStartupBuildsOneAppAtATime: the start-up goroutine builds the
// apps it could not restore one after another, so a cold process holds
// one build's working set at a time. The Rebuild hook counts how many
// builds are inside it at once.
func TestStartupBuildsOneAppAtATime(t *testing.T) {
	var inside, peak, calls atomic.Int32
	f := threeAppFrontdoor(t, Config{
		SnapshotDir: t.TempDir(),
		Rebuild: func(e *core.Engine) (core.IndexStats, error) {
			calls.Add(1)
			n := inside.Add(1)
			defer inside.Add(-1)
			for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
			}
			time.Sleep(20 * time.Millisecond) // widen the window an overlap would show in
			return e.RebuildIndex()
		},
	})
	f.LoadSnapshots()
	f.Wait()
	if got := calls.Load(); got != int32(len(chaosApps)) {
		t.Fatalf("%d start-up builds, want %d", got, len(chaosApps))
	}
	if got := peak.Load(); got != 1 {
		t.Fatalf("%d start-up builds ran at once, want 1", got)
	}
	for _, app := range chaosApps {
		if st := statusFor(t, f, app); st.State != IndexBuilt {
			t.Errorf("%s status = %+v after the start-up build, want built", app, st)
		}
	}
}

// TestRebuildFailureStaysDegraded: when the rebuild itself fails the
// app stays in declared degraded mode — still answering from the scan —
// instead of flapping to built or crashing.
func TestRebuildFailureStaysDegraded(t *testing.T) {
	dir := t.TempDir()
	f := chaosFrontdoor(t, Config{SnapshotDir: dir, Rebuild: chaos.FailRebuild()})
	f.LoadSnapshots()
	f.Wait()
	st := statusFor(t, f, "galaxy")
	if st.State != IndexDegraded || !strings.Contains(st.Reason, "rebuild failed") {
		t.Fatalf("status = %+v, want degraded/rebuild failed", st)
	}
	if _, degraded := f.IndexStatuses(); degraded != 1 {
		t.Fatalf("%d degraded apps after a failed rebuild, want 1", degraded)
	}
	if _, _, err := f.Do(context.Background(), Query{Kind: "analyze", App: "galaxy", Extra: `{"n":3}`},
		func(context.Context, *core.Engine) ([]byte, error) { return []byte("scan"), nil }); err != nil {
		t.Fatalf("degraded app stopped serving: %v", err)
	}
}

// TestRebuildPanicContained: a panicking rebuild is the fault the
// background rebuild's isolation exists for — it must surface as a
// degraded status, never unwind the process.
func TestRebuildPanicContained(t *testing.T) {
	dir := t.TempDir()
	f := chaosFrontdoor(t, Config{SnapshotDir: dir, Rebuild: chaos.PanicRebuild()})
	f.LoadSnapshots()
	f.Wait()
	st := statusFor(t, f, "galaxy")
	if st.State != IndexDegraded || !strings.Contains(st.Reason, "rebuild panic") {
		t.Fatalf("status = %+v, want degraded/rebuild panic", st)
	}
}

// TestComputePanicIsolated routes the chaos harness's panicking compute
// through the frontdoor: recovered at the worker boundary, reported as
// ErrInternal, process intact.
func TestComputePanicIsolated(t *testing.T) {
	f := newTestFrontdoor(t, Config{})
	_, _, err := f.Do(context.Background(), Query{Kind: "analyze", App: "galaxy", Extra: `{"n":9}`}, chaos.PanicCompute)
	if !errors.Is(err, ErrInternal) {
		t.Fatalf("err = %v, want ErrInternal", err)
	}
}

// TestHangComputeTimesOut: a compute that never returns on its own is
// bounded by the per-request deadline flowing through ctx — the worker
// is reclaimed, not hung forever.
func TestHangComputeTimesOut(t *testing.T) {
	f := newTestFrontdoor(t, Config{RequestTimeout: 50 * time.Millisecond, CacheBytes: -1})
	start := time.Now()
	_, _, err := f.Do(context.Background(), Query{Kind: "analyze", App: "galaxy", Extra: `{"n":10}`}, chaos.HangCompute)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if e := time.Since(start); e > 5*time.Second {
		t.Fatalf("hung compute held the worker %v", e)
	}
}
