package serving

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"strings"
	"sync"
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
	"repro/internal/units"
	"repro/internal/workload"
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
		_, _, _ = f.Do(context.Background(), Query{Kind: "analyze", App: "galaxy", N: 1},
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
		_, _, err := f.Do(ctx, Query{Kind: "analyze", App: "galaxy", N: 2},
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

// TestSnapshotMissingDegradesThenRebuilds walks the full degradation
// ladder from a cold start with no artifact: degraded at load, scan
// keeps serving, the background rebuild publishes the index, and the
// snapshot is re-saved for the next process.
func TestSnapshotMissingDegradesThenRebuilds(t *testing.T) {
	dir := t.TempDir()
	f := chaosFrontdoor(t, Config{SnapshotDir: dir})
	problems := f.LoadSnapshots()
	if err := problems["galaxy"]; !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("problems[galaxy] = %v, want fs.ErrNotExist", err)
	}
	if st := statusFor(t, f, "galaxy"); st.State != IndexDegraded || !strings.Contains(st.Reason, "missing") {
		t.Fatalf("status = %+v, want degraded/missing", st)
	}
	if _, degraded := f.IndexStatuses(); degraded != 1 {
		t.Fatalf("%d degraded apps while galaxy is degraded, want 1", degraded)
	}
	// Degraded mode still answers: the scan path is the fallback, not a
	// rejection.
	if _, _, err := f.Do(context.Background(), Query{Kind: "mincost", App: "galaxy", DeadlineHours: 24},
		func(_ context.Context, eng *core.Engine) ([]byte, error) {
			_, _, err := eng.MinCostForDeadline(workload.Params{N: 1e6, A: 100}, 24*3600)
			return []byte("ok"), err
		}); err != nil {
		t.Fatalf("degraded-mode query failed: %v", err)
	}

	f.Wait()
	if st := statusFor(t, f, "galaxy"); st.State != IndexBuilt {
		t.Fatalf("status after rebuild = %+v, want built", st)
	}
	if _, degraded := f.IndexStatuses(); degraded != 0 {
		t.Fatalf("%d degraded apps after the rebuild, want 0", degraded)
	}
	eng, _ := f.Engine("galaxy")
	blob, err := os.ReadFile(snapshot.PathFor(dir, "galaxy"))
	if err != nil {
		t.Fatalf("rebuild did not re-save the snapshot: %v", err)
	}
	if _, err := snapshot.Decode(blob, eng.IndexFingerprint()); err != nil {
		t.Fatalf("re-saved snapshot does not decode: %v", err)
	}
}

// TestSnapshotCorruptDegradesThenRebuilds: a bit-flipped artifact is
// rejected (never installed), declared degraded, and replaced by the
// rebuild's fresh save.
func TestSnapshotCorruptDegradesThenRebuilds(t *testing.T) {
	dir := t.TempDir()
	path := saveArtifact(t, dir)
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, chaos.FlipBit(blob, 8*200+5), 0o644); err != nil {
		t.Fatal(err)
	}

	f := chaosFrontdoor(t, Config{SnapshotDir: dir})
	problems := f.LoadSnapshots()
	if err := problems["galaxy"]; !errors.Is(err, snapshot.ErrCorrupt) {
		t.Fatalf("problems[galaxy] = %v, want ErrCorrupt", err)
	}
	if st := statusFor(t, f, "galaxy"); st.State != IndexDegraded {
		t.Fatalf("status = %+v, want degraded", st)
	}
	f.Wait()
	if st := statusFor(t, f, "galaxy"); st.State != IndexBuilt {
		t.Fatalf("status after rebuild = %+v, want built", st)
	}
	eng, _ := f.Engine("galaxy")
	fresh, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := snapshot.Decode(fresh, eng.IndexFingerprint()); err != nil {
		t.Fatalf("rebuilt snapshot does not decode: %v", err)
	}
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

// TestSnapshotReadFailureDegrades: an injected I/O failure (not
// corruption) lands on the same ladder — degraded, then rebuilt.
func TestSnapshotReadFailureDegrades(t *testing.T) {
	dir := t.TempDir()
	saveArtifact(t, dir)
	f := chaosFrontdoor(t, Config{SnapshotDir: dir, ReadFile: chaos.FailReadFile()})
	problems := f.LoadSnapshots()
	if err := problems["galaxy"]; !errors.Is(err, chaos.ErrInjected) {
		t.Fatalf("problems[galaxy] = %v, want ErrInjected", err)
	}
	if st := statusFor(t, f, "galaxy"); st.State != IndexDegraded {
		t.Fatalf("status = %+v, want degraded", st)
	}
	f.Wait()
	if st := statusFor(t, f, "galaxy"); st.State != IndexBuilt {
		t.Fatalf("status after rebuild = %+v, want built", st)
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
	if _, _, err := f.Do(context.Background(), Query{Kind: "analyze", App: "galaxy", N: 3},
		func(context.Context, *core.Engine) ([]byte, error) { return []byte("scan"), nil }); err != nil {
		t.Fatalf("degraded app stopped serving: %v", err)
	}
}

// TestRebuildPanicContained: a panicking rebuild is the fault the swap
// protocol's isolation exists for — it must surface as a degraded
// status, never unwind the process.
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
	_, _, err := f.Do(context.Background(), Query{Kind: "analyze", App: "galaxy", N: 9}, chaos.PanicCompute)
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
	_, _, err := f.Do(context.Background(), Query{Kind: "analyze", App: "galaxy", N: 10}, chaos.HangCompute)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if e := time.Since(start); e > 5*time.Second {
		t.Fatalf("hung compute held the worker %v", e)
	}
}

// TestSwapEnginePurgesCacheAndRebuilds: the zero-downtime catalog
// update. A cached answer priced against the old engine must not
// survive the swap, and the new engine's index builds in the background
// and re-saves its snapshot.
func TestSwapEnginePurgesCacheAndRebuilds(t *testing.T) {
	dir := t.TempDir()
	f := chaosFrontdoor(t, Config{SnapshotDir: dir})
	q := Query{Kind: "mincost", App: "galaxy", DeadlineHours: 24}
	identity := func(_ context.Context, eng *core.Engine) ([]byte, error) {
		return []byte(fmt.Sprintf("%p", eng)), nil
	}
	oldEng, _ := f.Engine("galaxy")
	first, st, err := f.Do(context.Background(), q, identity)
	if err != nil || st != StatusMiss {
		t.Fatalf("prime: %v %v", st, err)
	}
	if _, st, _ := f.Do(context.Background(), q, identity); st != StatusHit {
		t.Fatalf("warm read status = %v, want hit", st)
	}

	next := chaosEngine(t)
	f.SwapEngine("galaxy", next)
	if cur, _ := f.Engine("galaxy"); cur != next {
		t.Fatal("swap did not publish the new engine")
	}
	if st := statusFor(t, f, "galaxy"); st.State != IndexBuilding {
		t.Fatalf("post-swap status = %+v, want building", st)
	}
	body, st, err := f.Do(context.Background(), q, identity)
	if err != nil {
		t.Fatal(err)
	}
	if st != StatusMiss {
		t.Fatalf("post-swap status = %v, want miss (cache must be purged)", st)
	}
	if string(body) == string(first) {
		t.Fatalf("post-swap answer still priced against the old engine (%s)", body)
	}
	_ = oldEng

	f.Wait()
	if st := statusFor(t, f, "galaxy"); st.State != IndexBuilt {
		t.Fatalf("status after swap rebuild = %+v, want built", st)
	}
	blob, err := os.ReadFile(snapshot.PathFor(dir, "galaxy"))
	if err != nil {
		t.Fatalf("swap rebuild did not save a snapshot: %v", err)
	}
	if _, err := snapshot.Decode(blob, next.IndexFingerprint()); err != nil {
		t.Fatalf("swapped engine's snapshot does not decode: %v", err)
	}
}

// TestSwapEngineUnderTraffic hammers Do from many goroutines while the
// engine is swapped repeatedly. Every response must be the identity of
// a complete engine — never an error, a mixed answer, or a crash — and
// the run is meaningful under -race.
func TestSwapEngineUnderTraffic(t *testing.T) {
	f := chaosFrontdoor(t, Config{})
	engines := map[string]bool{}
	first, _ := f.Engine("galaxy")
	engines[fmt.Sprintf("%p", first)] = true
	identity := func(_ context.Context, eng *core.Engine) ([]byte, error) {
		return []byte(fmt.Sprintf("%p", eng)), nil
	}

	const workers = 8
	const perWorker = 100
	var wg sync.WaitGroup
	errc := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				q := Query{Kind: "mincost", App: "galaxy", DeadlineHours: units.Hours(1 + (w*perWorker+i)%7)}
				body, _, err := f.Do(context.Background(), q, identity)
				if err != nil {
					errc <- fmt.Errorf("worker %d iter %d: %w", w, i, err)
					return
				}
				if len(body) == 0 {
					errc <- fmt.Errorf("worker %d iter %d: empty body", w, i)
					return
				}
			}
		}(w)
	}
	for s := 0; s < 5; s++ {
		next := chaosEngine(t)
		engines[fmt.Sprintf("%p", next)] = true
		f.SwapEngine("galaxy", next)
		time.Sleep(2 * time.Millisecond)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	f.Wait()
	if st := statusFor(t, f, "galaxy"); st.State != IndexBuilt {
		t.Fatalf("final status = %+v, want built", st)
	}
	// The final published engine is the last swap's.
	cur, _ := f.Engine("galaxy")
	if !engines[fmt.Sprintf("%p", cur)] {
		t.Fatal("published engine is not one we mounted")
	}
}
