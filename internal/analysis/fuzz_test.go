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
// rule silently relies on. TestFuzzInvariantsOnRepoSources checks the
// same invariants on this repository's own sources, one subtest per
// file, so the exact language surface the production rules walk is
// always covered.

// fuzzSeeds adds the fixed corpus both fuzz targets start from: every
// CFG shape cfg_test.go pins, then every rule fixture under testdata.
// Go names seeds by position (seed#N), so the corpus is test data only:
// adding or deleting a production file renames or drops no seed.
func fuzzSeeds(f *testing.F) {
	f.Helper()
	for _, body := range cfgShapes {
		f.Add([]byte(cfgSource(body)))
	}
	files, err := filepath.Glob("testdata/*/*.go")
	if err != nil {
		f.Fatal(err)
	}
	for _, path := range files {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
}

// cfgShapes are the function bodies cfg_test.go pins, one per construct
// the CFG builder models.
var cfgShapes = []string{
	cfgIfElseMerge,
	cfgForLoop,
	cfgInfiniteFor,
	cfgRangeBackEdge,
	cfgLabeledBreak,
	cfgSwitchFallthrough,
	cfgSelect,
	cfgEmptySelect,
	cfgGotoForward,
	cfgDefer,
	cfgExplicitPanic,
	cfgDeadCode,
}

// TestFuzzInvariantsOnRepoSources runs both fuzz targets' checks over
// every non-test .go file of a few production packages, one subtest
// per file named by its module-relative path.
func TestFuzzInvariantsOnRepoSources(t *testing.T) {
	for _, dir := range []string{".", "../core", "../serving", "../schedule", "../faults/risk"} {
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			n := e.Name()
			if e.IsDir() || !strings.HasSuffix(n, ".go") || strings.HasSuffix(n, "_test.go") {
				continue
			}
			src, err := os.ReadFile(filepath.Join(dir, n))
			if err != nil {
				t.Fatal(err)
			}
			t.Run(filepath.ToSlash(filepath.Join("internal/analysis", dir, n)), func(t *testing.T) {
				checkCFGBuild(t, src)
				checkSummaries(t, src)
			})
		}
	}
}

// checkCFGBuild asserts the CFG builder never panics on any function
// body that parses, and that Dump and Reachable are deterministic.
func checkCFGBuild(t *testing.T, src []byte) {
	t.Helper()
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
}

// FuzzCFGBuild fuzzes checkCFGBuild.
func FuzzCFGBuild(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(checkCFGBuild)
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

// checkSummaries asserts the interprocedural layer never panics, its
// SCC fixpoint terminates, and two independent module builds over the
// same package produce byte-identical summary dumps.
func checkSummaries(t *testing.T, src []byte) {
	t.Helper()
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
}

// FuzzSummaries fuzzes checkSummaries.
func FuzzSummaries(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(checkSummaries)
}
