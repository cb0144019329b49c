package analysis

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// These tests are the negative controls for the flow-sensitive rules:
// re-introduce the exact production bugs the rules were built to catch
// — delete the ctx poll from core's scan loop, skip the clone in
// serving's SwapEngine — and assert lint fails. TestModuleIsClean is
// the positive control; together they show the rules separate the real
// tree from its own mutants rather than passing everything.

// copyPackageGo copies a package's non-test Go files into dst and
// returns their names.
func copyPackageGo(t *testing.T, src, dst string) {
	t.Helper()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		n := e.Name()
		if e.IsDir() || !strings.HasSuffix(n, ".go") || strings.HasSuffix(n, "_test.go") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, n))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, n), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// mutateFile rewrites one occurrence of from into to, failing loudly if
// the anchor text drifted (so a refactor of the production code breaks
// this test visibly instead of silently testing nothing).
func mutateFile(t *testing.T, path, from, to string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(data), from); n != 1 {
		t.Fatalf("mutation anchor occurs %d times in %s (want exactly 1); update the anchor to match the current source:\n%s", n, filepath.Base(path), from)
	}
	if err := os.WriteFile(path, []byte(strings.Replace(string(data), from, to, 1)), 0o644); err != nil {
		t.Fatal(err)
	}
}

// writeIdentity gives the mutated copy a module-internal import path in
// the rule's scope (a sibling of the real package, so the real one
// stays cached and untouched).
func writeIdentity(t *testing.T, dir, pkg, as string) {
	t.Helper()
	src := fmt.Sprintf("//celialint:as %s\n\npackage %s\n", as, pkg)
	if err := os.WriteFile(filepath.Join(dir, "zz_lint_identity.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestMutantsTripFlowRules(t *testing.T) {
	l := newTestLoader(t)

	t.Run("ctxflow/scanSearch-poll-deleted", func(t *testing.T) {
		dir := t.TempDir()
		copyPackageGo(t, "../core", dir)
		mutateFile(t, filepath.Join(dir, "core.go"),
			"\t\tif k&ctxPollMask == 0 && ctx.Err() != nil {\n"+
				"\t\t\tstop.Store(true)\n"+
				"\t\t\treturn\n"+
				"\t\t}\n",
			"")
		writeIdentity(t, dir, "core", "repro/internal/core/lintmutant")
		cp, err := l.LoadDir(dir)
		if err != nil {
			t.Fatalf("mutated core no longer type-checks: %v", err)
		}
		findings := Run([]*Analyzer{Ctxflow}, []*CheckedPackage{cp})
		if len(findings) == 0 {
			t.Fatal("deleting the ctx poll from scanSearch's scan closure must trip ctxflow, got 0 findings")
		}
		for _, f := range findings {
			if f.Rule != "ctxflow" {
				t.Errorf("unexpected rule %q: %s", f.Rule, f.String())
			}
		}
	})

	t.Run("atomicpub/SwapEngine-clone-skipped", func(t *testing.T) {
		dir := t.TempDir()
		copyPackageGo(t, "../serving", dir)
		mutateFile(t, filepath.Join(dir, "lifecycle.go"),
			"\tnext := make(map[string]*core.Engine, len(old)+1)\n"+
				"\tfor k, v := range old {\n"+
				"\t\tnext[k] = v\n"+
				"\t}\n",
			"\tnext := old\n")
		writeIdentity(t, dir, "serving", "repro/internal/serving/lintmutant")
		cp, err := l.LoadDir(dir)
		if err != nil {
			t.Fatalf("mutated serving no longer type-checks: %v", err)
		}
		findings := Run([]*Analyzer{Atomicpub}, []*CheckedPackage{cp})
		if len(findings) == 0 {
			t.Fatal("aliasing instead of cloning in SwapEngine must trip atomicpub, got 0 findings")
		}
		for _, f := range findings {
			if f.Rule != "atomicpub" {
				t.Errorf("unexpected rule %q: %s", f.Rule, f.String())
			}
		}
	})
}

// TestMutantsTripInterproceduralRules re-introduces the production
// bugs the interprocedural rules were built to catch: drop a Query
// field from the serving cache key, swap the context-threaded risk
// estimate back to the context-free one, and pull a lock-re-acquiring
// call inside the critical section. Each mutant must fail lint under
// exactly the rule built for it.
func TestMutantsTripInterproceduralRules(t *testing.T) {
	l := newTestLoader(t)
	// The interprocedural rules need the whole-module summary universe:
	// the schedule mutant's findings hinge on the summary of
	// risk.Estimate, which lives in a different package.
	if _, err := l.LoadModule(); err != nil {
		t.Fatal(err)
	}

	assertOnly := func(t *testing.T, findings []Finding, rule, what string) {
		t.Helper()
		if len(findings) == 0 {
			t.Fatalf("%s must trip %s, got 0 findings", what, rule)
		}
		for _, f := range findings {
			if f.Rule != rule {
				t.Errorf("unexpected rule %q: %s", f.Rule, f.String())
			}
		}
	}

	t.Run("cachekey/key-builder-drops-BudgetUSD", func(t *testing.T) {
		dir := t.TempDir()
		copyPackageGo(t, "../serving", dir)
		mutateFile(t, filepath.Join(dir, "serving.go"),
			"[5]float64{q.N, q.A, float64(q.DeadlineHours), float64(q.BudgetUSD), q.HazardPerHour}",
			"[4]float64{q.N, q.A, float64(q.DeadlineHours), q.HazardPerHour}")
		writeIdentity(t, dir, "serving", "repro/internal/serving/lintmutant_cachekey")
		cp, err := l.LoadDir(dir)
		if err != nil {
			t.Fatalf("mutated serving no longer type-checks: %v", err)
		}
		assertOnly(t, Run([]*Analyzer{Cachekey}, []*CheckedPackage{cp}),
			"cachekey", "dropping BudgetUSD from the key builder")
	})

	t.Run("ctxflowip/risk-timeline-drops-ctx", func(t *testing.T) {
		dir := t.TempDir()
		copyPackageGo(t, "../schedule", dir)
		mutateFile(t, filepath.Join(dir, "risk.go"),
			"est, err := risk.EstimateContext(ctx, app, tr.Params(t), st.Config, cat, risk.Options{",
			"est, err := risk.Estimate(app, tr.Params(t), st.Config, cat, risk.Options{")
		writeIdentity(t, dir, "schedule", "repro/internal/schedule/lintmutant_ctxflowip")
		cp, err := l.LoadDir(dir)
		if err != nil {
			t.Fatalf("mutated schedule no longer type-checks: %v", err)
		}
		assertOnly(t, Run([]*Analyzer{CtxflowIP}, []*CheckedPackage{cp}),
			"ctxflowip", "calling the context-free risk.Estimate from the timeline")
	})

	t.Run("lockdisciplineip/gauge-refresh-under-lock", func(t *testing.T) {
		dir := t.TempDir()
		copyPackageGo(t, "../serving", dir)
		mutateFile(t, filepath.Join(dir, "lifecycle.go"),
			"\tf.mu.Unlock()\n\tf.refreshIndexGauges()\n",
			"\tf.refreshIndexGauges()\n\tf.mu.Unlock()\n")
		writeIdentity(t, dir, "serving", "repro/internal/serving/lintmutant_lockip")
		cp, err := l.LoadDir(dir)
		if err != nil {
			t.Fatalf("mutated serving no longer type-checks: %v", err)
		}
		assertOnly(t, Run([]*Analyzer{LockdisciplineIP}, []*CheckedPackage{cp}),
			"lockdisciplineip", "re-acquiring f.mu via refreshIndexGauges while holding it")
	})
}
