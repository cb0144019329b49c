// The resilient index lifecycle: snapshot restore at startup and
// panic-isolated background rebuilds. The degradation ladder
// (DESIGN.md §11) is index → exhaustive scan (declared "degraded") →
// 503: a missing, corrupt, or stale snapshot never blocks serving, it
// only changes how honest the process is about its latency until the
// rebuild lands.
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
// makes it built; a failure keeps it in declared degraded mode.
func (f *Frontdoor) runRebuild(app string, eng *core.Engine) {
	_, err := f.guardedRebuild(eng)
	var reason string
	if err != nil {
		reason = "index rebuild failed: " + err.Error() + "; serving from exhaustive scan"
	}
	f.mu.Lock()
	if err != nil {
		f.rebuilds[app] = IndexStatus{State: IndexDegraded, Reason: reason}
	} else {
		delete(f.rebuilds, app)
	}
	f.mu.Unlock()
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
