// The resilient index lifecycle: snapshot restore at startup,
// zero-downtime engine swap on catalog changes, and panic-isolated
// background rebuilds. The degradation ladder (DESIGN.md §11) is
// index → exhaustive scan (declared "degraded") → 503: a missing,
// corrupt, or stale snapshot never blocks serving, it only changes how
// honest the process is about its latency until the rebuild lands.
package serving

import (
	"errors"
	"fmt"
	"io/fs"

	"repro/internal/core"
	"repro/internal/snapshot"
)

// LoadSnapshots restores each mounted engine's frontier index from
// Config.SnapshotDir. Per app the outcome is one of:
//
//   - restored: the artifact decoded, matched the engine's catalog
//     fingerprint, and was installed — the app starts "built" and never
//     pays the scan-speed build;
//   - bypassed: the index cannot serve the engine (an uncertified
//     billing policy); no artifact is touched;
//   - degraded: the artifact was missing, unreadable, corrupt, or
//     stale. A background rebuild (panic-isolated) takes ownership of
//     the app, restores the index, then re-saves the snapshot; until an
//     index is published, by it or by anything else, the app serves
//     from the exhaustive scan.
//
// The returned map holds an entry per app that could not be restored
// (for startup logs); nil means every index-eligible app restored. A
// Frontdoor with no SnapshotDir leaves every app on the lazy in-process
// build and returns nil.
func (f *Frontdoor) LoadSnapshots() map[string]error {
	if f.cfg.SnapshotDir == "" {
		return nil
	}
	problems := make(map[string]error)
	for _, app := range f.Apps() {
		if st, _ := f.IndexStatusFor(app); st.State == IndexBypassed {
			continue
		}
		eng, _ := f.Engine(app)
		path := snapshot.PathFor(f.cfg.SnapshotDir, app)
		err := f.restoreOne(path, eng)
		if err == nil {
			f.snapLoaded.Inc()
			continue
		}
		f.snapRejected.Inc()
		problems[app] = err
		reason := "snapshot " + path + ": " + err.Error() + "; serving from exhaustive scan until rebuild completes"
		if errors.Is(err, fs.ErrNotExist) {
			reason = "snapshot missing; serving from exhaustive scan until rebuild completes"
		}
		f.mu.Lock()
		f.rebuilds[app] = IndexStatus{State: IndexDegraded, Reason: reason}
		f.mu.Unlock()
		f.spawnRebuild(app, eng)
	}
	f.refreshIndexGauges()
	if len(problems) == 0 {
		return nil
	}
	return problems
}

// restoreOne loads one artifact through the configured ReadFile hook
// and installs it. Strictness lives in snapshot.Decode; anything it
// rejects leaves the engine untouched.
func (f *Frontdoor) restoreOne(path string, eng *core.Engine) error {
	blob, err := f.cfg.ReadFile(path)
	if err != nil {
		return err
	}
	x, err := snapshot.Decode(blob, eng.IndexFingerprint())
	if err != nil {
		return err
	}
	return eng.InstallIndex(x)
}

// SwapEngine replaces (or mounts) the engine serving app under live
// traffic — the zero-downtime catalog/price update path. Queries
// observe the swap atomically: the engine map is copy-on-write behind
// an atomic pointer, so in-flight requests finish against the engine
// they started with while new requests see the replacement. The result
// cache is purged (every cached body priced against the old catalog is
// wrong) with a generation bump so an in-flight leader compute on the
// old engine cannot re-insert stale bytes. The new engine's index
// builds in a panic-isolated background goroutine and is published by
// an atomic pointer store when done; until then the app serves from the
// scan in the declared "building" state.
func (f *Frontdoor) SwapEngine(app string, eng *core.Engine) {
	rebuild := statusOf(eng, IndexStatus{}).State == IndexPending

	f.mu.Lock()
	old := *f.engines.Load()
	next := make(map[string]*core.Engine, len(old)+1)
	for k, v := range old {
		next[k] = v
	}
	next[app] = eng
	f.engines.Store(&next)
	delete(f.rebuilds, app)
	if rebuild {
		f.rebuilds[app] = IndexStatus{State: IndexBuilding, Reason: "catalog swapped; index rebuild in progress"}
	}
	f.mu.Unlock()
	f.refreshIndexGauges()

	if f.cache != nil {
		f.cache.purge()
	}
	if rebuild {
		f.spawnRebuild(app, eng)
	}
}

// spawnRebuild starts a tracked background rebuild for app's engine;
// Frontdoor.Wait joins it.
func (f *Frontdoor) spawnRebuild(app string, eng *core.Engine) {
	f.bg.Add(1)
	go func() {
		defer f.bg.Done()
		f.runRebuild(app, eng)
	}()
}

// runRebuild executes one background rebuild end-to-end: build (panic
// contained), settle the app's ownership, refresh gauges, re-save the
// snapshot. A success releases the app, whose published index now
// makes it built; a failure keeps it in declared degraded mode. A
// rebuild whose engine was swapped out while it ran discards its
// result silently — the newer swap owns the app's state.
func (f *Frontdoor) runRebuild(app string, eng *core.Engine) {
	_, err := f.guardedRebuild(eng)
	var reason string
	if err != nil {
		reason = "index rebuild failed: " + err.Error() + "; serving from exhaustive scan"
	}
	f.mu.Lock()
	current := (*f.engines.Load())[app] == eng
	if current && err != nil {
		f.rebuilds[app] = IndexStatus{State: IndexDegraded, Reason: reason}
	} else if current {
		delete(f.rebuilds, app)
	}
	f.mu.Unlock()
	if !current {
		return
	}
	f.refreshIndexGauges()
	if err == nil && f.cfg.SnapshotDir != "" {
		if err := snapshot.Save(snapshot.PathFor(f.cfg.SnapshotDir, app), eng); err == nil {
			f.snapSaved.Inc()
		}
	}
}

// guardedRebuild contains a panicking rebuild hook. core's own
// RebuildIndex already recovers build panics internally; this guard
// covers injected hooks and keeps the background goroutine from ever
// taking the process down.
func (f *Frontdoor) guardedRebuild(eng *core.Engine) (st core.IndexStats, err error) {
	defer func() {
		if r := recover(); r != nil {
			f.panics.Inc()
			err = fmt.Errorf("rebuild panic: %v", r)
		}
	}()
	return f.cfg.Rebuild(eng)
}
