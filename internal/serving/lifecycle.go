// The index lifecycle: the Frontdoor's start-up restores what the
// snapshot directory holds and builds every other index in the
// background, one app at a time. The degradation ladder (DESIGN.md
// §11) is index → exhaustive scan (declared "degraded") → 503: an app
// whose index is still building is "pending", and a leader on it joins
// or runs the build instead of scanning; only a build that failed
// leaves an app on the scan.
package serving

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/snapshot"
)

// LoadSnapshots is the Frontdoor's start-up. When Config.SnapshotDir is
// set, each pending engine's frontier index is restored from it; every
// pending engine it does not restore is then built by one background
// goroutine, one app after another, through Config.Rebuild, and its
// snapshot re-saved. Per app the outcome is one of:
//
//   - restored: the artifact decoded, matched the engine's catalog
//     fingerprint, and was installed — the app starts "built";
//   - skipped: the app is bypassed (an uncertified billing policy) or
//     its engine was mounted with an index already published;
//   - built at start-up: no directory is set, or its artifact was
//     missing, unreadable, corrupt, or stale. The app stays "pending"
//     until the build publishes its index; a leader that reaches it
//     first joins or runs that build (buildPending). A build that fails
//     leaves the app "degraded", serving from the exhaustive scan.
//
// The returned map holds an entry per app whose artifact could not be
// restored (for startup logs); nil means none failed. Wait joins the
// background builds.
func (f *Frontdoor) LoadSnapshots() map[string]error {
	problems := make(map[string]error)
	var build []string
	for _, app := range f.Apps() {
		eng := f.engines[app]
		if st, _ := f.IndexStatusFor(app); st.State != IndexPending {
			continue
		}
		if f.cfg.SnapshotDir != "" {
			err := f.restoreOne(snapshot.PathFor(f.cfg.SnapshotDir, app), eng)
			if err == nil {
				f.snapLoaded.Inc()
				continue
			}
			f.snapRejected.Inc()
			problems[app] = err
		}
		build = append(build, app)
	}
	f.refreshIndexGauges()
	if len(build) > 0 {
		f.bg.Add(1)
		go func() {
			defer f.bg.Done()
			for _, app := range build {
				f.runRebuild(app, f.engines[app])
			}
		}()
	}
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

// runRebuild executes one start-up build end-to-end: build (panic
// contained), record a failure as the app's degraded reason, refresh
// gauges, re-save the snapshot and count whether the save landed. A
// success publishes the index, which makes the app built.
func (f *Frontdoor) runRebuild(app string, eng *core.Engine) {
	_, err := f.guardedRebuild(eng)
	var failed IndexStatus // zero: the build succeeded
	if err != nil {
		failed = IndexStatus{State: IndexDegraded, Reason: "index rebuild failed: " + err.Error() + "; serving from exhaustive scan"}
	}
	f.mu.Lock()
	f.failed[app] = failed
	f.mu.Unlock()
	f.refreshIndexGauges()
	if err == nil && f.cfg.SnapshotDir != "" {
		if err := snapshot.Save(snapshot.PathFor(f.cfg.SnapshotDir, app), eng); err != nil {
			f.snapSaveFailed.Inc()
		} else {
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
