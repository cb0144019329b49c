package analysis

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The fuzzers throw arbitrary (and partially type-checked) Go sources
// at the CFG builder and the summary engine. The invariants are
// structural, not semantic: no panic, the SCC fixpoint terminates, and
// dumps are stable across two independent builds — the properties every
// rule silently relies on. Seeds come from this repository's own
// sources, so the corpus starts with the exact language surface the
// production rules walk.

// seedRepoSources feeds every non-test .go file from a few production
// packages into the corpus.
func seedRepoSources(f *testing.F, dirs ...string) {
	f.Helper()
	for _, dir := range dirs {
		entries, err := os.ReadDir(dir)
		if err != nil {
			f.Fatal(err)
		}
		for _, e := range entries {
			n := e.Name()
			if e.IsDir() || !strings.HasSuffix(n, ".go") || strings.HasSuffix(n, "_test.go") {
				continue
			}
			data, err := os.ReadFile(filepath.Join(dir, n))
			if err != nil {
				f.Fatal(err)
			}
			f.Add(data)
		}
	}
}

// calleeFixtures are seeded after the production sources: small,
// complete instances of the shapes the summaries exist for — a
// blocking chain behind a context-free wrapper, a helper re-acquiring
// its caller's lock, a lock dropped around a drain in a range body.
var calleeFixtures = []string{
	"testdata/ctxflow_callee_bad",
	"testdata/ctxflow_callee_good",
	"testdata/lockdiscipline_callee_bad",
	"testdata/lockdiscipline_callee_good",
}

// FuzzCFGBuild asserts the CFG builder never panics on any function
// body that parses, and that Dump and Reachable are deterministic.
func FuzzCFGBuild(f *testing.F) {
	seedRepoSources(f, ".", "../core", "../serving", "../schedule")
	seedRepoSources(f, calleeFixtures...)
	f.Fuzz(func(t *testing.T, src []byte) {
		fset := token.NewFileSet()
		file, err := parser.ParseFile(fset, "fuzz.go", src, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			t.Skip()
		}
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			g := BuildCFG(fd.Body)
			if g.Entry == nil || g.Exit == nil {
				t.Fatalf("CFG for %s has nil entry/exit", fd.Name.Name)
			}
			if d1, d2 := g.Dump(fset), g.Dump(fset); d1 != d2 {
				t.Fatalf("CFG dump unstable for %s:\n%s\nvs\n%s", fd.Name.Name, d1, d2)
			}
			r1 := g.Reachable()
			if r2 := g.Reachable(); len(r1) != len(r2) {
				t.Fatalf("Reachable unstable for %s: %d vs %d blocks", fd.Name.Name, len(r1), len(r2))
			}
		}
	})
}

// fuzzCheck type-checks one fuzzed file leniently: type errors are
// swallowed so the summary engine sees the same partially resolved
// packages a broken tree would hand it mid-refactor.
func fuzzCheck(t *testing.T, src []byte) *CheckedPackage {
	t.Helper()
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "fuzz.go", src, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		t.Skip()
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	conf := types.Config{
		Error:    func(error) {},
		Importer: importer.Default(),
	}
	pkg, _ := conf.Check("repro/internal/fuzzpkg", fset, []*ast.File{file}, info)
	if pkg == nil {
		t.Skip()
	}
	return &CheckedPackage{Fset: fset, Path: "repro/internal/fuzzpkg", Files: []*ast.File{file}, Pkg: pkg, Info: info}
}

// FuzzSummaries asserts the interprocedural layer never panics, its
// SCC fixpoint terminates, and two independent module builds over the
// same package produce byte-identical summary dumps.
func FuzzSummaries(f *testing.F) {
	seedRepoSources(f, ".", "../core", "../serving", "../schedule", "../faults/risk")
	seedRepoSources(f, calleeFixtures...)
	f.Fuzz(func(t *testing.T, src []byte) {
		cp := fuzzCheck(t, src)
		m1 := BuildModule([]*CheckedPackage{cp})
		d1 := m1.DumpSummaries()
		m2 := BuildModule([]*CheckedPackage{cp})
		if d2 := m2.DumpSummaries(); d1 != d2 {
			t.Fatalf("summary dump unstable across builds:\n%s\nvs\n%s", d1, d2)
		}
		if s := m1.Stats(); s.FixpointIters > len(m1.Funcs)*maxSummaryFixpoint {
			t.Fatalf("fixpoint ran away: %d iterations for %d functions", s.FixpointIters, len(m1.Funcs))
		}
	})
}
