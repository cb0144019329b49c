package analysis

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// CheckedPackage is one parsed and type-checked package, ready for the
// analyzer suite.
type CheckedPackage struct {
	Fset *token.FileSet
	// Path is the effective import path used for rule applicability. A
	// fixture under testdata may override it with a
	// "//celialint:as <import-path>" comment so analyzers scoped to
	// production packages can be exercised on known-bad snippets.
	Path  string
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
	// Imports lists the package's module-internal imports (effective
	// import paths), for the -changed reverse-dependency closure.
	Imports []string
	// Universe is every module package checked by the same loader. The
	// interprocedural rules build their call graph and summaries over it,
	// so a single fixture or mutant package still sees the summaries of
	// the production functions it calls.
	Universe []*CheckedPackage
}

// Loader parses and type-checks module packages using only the
// standard library: module-internal imports resolve from the already
// checked set (packages are visited in dependency order) and
// everything else goes through the stdlib source importer. It exists
// because the module has a hard zero-external-dependency constraint,
// so golang.org/x/tools/go/packages is off the table.
type Loader struct {
	Fset *token.FileSet

	root     string // module root directory (holds go.mod)
	modPath  string // module path declared in go.mod
	checked  map[string]*types.Package
	packages map[string]*CheckedPackage
	fallback types.Importer

	moduleList []*CheckedPackage // LoadModule result, in dependency order

	// Per-phase wall time, for celia-lint -timing. Both accumulate (the
	// loader memoizes, so repeated loads add ~nothing).
	parseWall time.Duration
	checkWall time.Duration
}

// NewLoader locates the enclosing module of dir and prepares a loader
// for it.
func NewLoader(dir string) (*Loader, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	root, err := findModuleRoot(abs)
	if err != nil {
		return nil, err
	}
	modPath, err := readModulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	return &Loader{
		Fset:     fset,
		root:     root,
		modPath:  modPath,
		checked:  map[string]*types.Package{},
		packages: map[string]*CheckedPackage{},
		fallback: importer.ForCompiler(fset, "source", nil),
	}, nil
}

// ModulePath reports the module path declared in go.mod.
func (l *Loader) ModulePath() string { return l.modPath }

// Root reports the module root directory (the one holding go.mod) —
// celia-lint -changed resolves git paths against it.
func (l *Loader) Root() string { return l.root }

// Timing reports cumulative parse and type-check wall time — the first
// two phases of celia-lint -timing's breakdown.
func (l *Loader) Timing() (parse, check time.Duration) { return l.parseWall, l.checkWall }

func findModuleRoot(dir string) (string, error) {
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("analysis: no go.mod found above %s", dir)
		}
		dir = parent
	}
}

func readModulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("analysis: no module line in %s", gomod)
}

// Import implements types.Importer: module-internal paths come from
// the checked set, the rest from the source importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if path == l.modPath || strings.HasPrefix(path, l.modPath+"/") {
		if pkg, ok := l.checked[path]; ok {
			return pkg, nil
		}
		return nil, fmt.Errorf("analysis: internal package %s not loaded (import cycle?)", path)
	}
	return l.fallback.Import(path)
}

// LoadModule parses and type-checks every package in the module, in
// dependency order, skipping testdata trees and _test.go files.
// Results are memoized: a second call returns the first call's
// packages without walking or parsing the module again.
func (l *Loader) LoadModule() ([]*CheckedPackage, error) {
	if l.moduleList != nil {
		return l.moduleList, nil
	}
	dirs, err := l.discover()
	if err != nil {
		return nil, err
	}
	parsed := make(map[string]*parsedDir, len(dirs))
	for _, dir := range dirs {
		p, err := l.parseDir(dir)
		if err != nil {
			return nil, err
		}
		if p != nil {
			parsed[p.importPath] = p
		}
	}
	order, err := topoSort(parsed)
	if err != nil {
		return nil, err
	}
	var out []*CheckedPackage
	for _, path := range order {
		if cp, ok := l.packages[path]; ok {
			out = append(out, cp)
			continue
		}
		cp, err := l.check(parsed[path])
		if err != nil {
			return nil, err
		}
		out = append(out, cp)
	}
	l.moduleList = out
	for _, cp := range out {
		cp.Universe = out
	}
	return out, nil
}

// LoadDir parses and type-checks a single extra directory — typically
// an internal/analysis/testdata fixture — against the module's
// packages, which are loaded on demand.
func (l *Loader) LoadDir(dir string) (*CheckedPackage, error) {
	if _, err := l.LoadModule(); err != nil {
		return nil, err
	}
	p, err := l.parseDir(dir)
	if err != nil {
		return nil, err
	}
	if p == nil {
		return nil, fmt.Errorf("analysis: no Go files in %s", dir)
	}
	cp, err := l.check(p)
	if err != nil {
		return nil, err
	}
	cp.Universe = l.moduleList
	return cp, nil
}

// parsedDir is one directory's worth of parsed files.
type parsedDir struct {
	dir        string
	importPath string // effective path (honors //celialint:as)
	files      []*ast.File
	imports    []string // module-internal imports only
}

// discover walks the module and returns every directory that may hold
// a package. testdata trees, hidden and underscore directories, and
// .git are skipped, matching the go tool's conventions.
func (l *Loader) discover() ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(l.root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != l.root && (name == "testdata" || name == ".git" || name == "vendor" ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		dirs = append(dirs, path)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return dirs, nil
}

// parseDir parses the non-test Go files of one directory; nil when the
// directory holds none.
func (l *Loader) parseDir(dir string) (*parsedDir, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		n := e.Name()
		if e.IsDir() || !strings.HasSuffix(n, ".go") || strings.HasSuffix(n, "_test.go") ||
			strings.HasPrefix(n, ".") || strings.HasPrefix(n, "_") {
			continue
		}
		names = append(names, n)
	}
	if len(names) == 0 {
		return nil, nil
	}
	start := time.Now()
	defer func() { l.parseWall += time.Since(start) }()
	sort.Strings(names)
	p := &parsedDir{dir: dir, importPath: l.importPathFor(dir)}
	seen := map[string]bool{}
	for _, n := range names {
		file, err := parser.ParseFile(l.Fset, filepath.Join(dir, n), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		if as := asDirective(file); as != "" {
			p.importPath = as
		}
		p.files = append(p.files, file)
		for _, imp := range file.Imports {
			path := strings.Trim(imp.Path.Value, `"`)
			if (path == l.modPath || strings.HasPrefix(path, l.modPath+"/")) && !seen[path] {
				seen[path] = true
				p.imports = append(p.imports, path)
			}
		}
	}
	sort.Strings(p.imports)
	return p, nil
}

func (l *Loader) importPathFor(dir string) string {
	rel, err := filepath.Rel(l.root, dir)
	if err != nil || rel == "." {
		return l.modPath
	}
	return l.modPath + "/" + filepath.ToSlash(rel)
}

// asDirective returns the import path named by a
// "//celialint:as <path>" comment, if the file carries one.
func asDirective(file *ast.File) string {
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			text := strings.TrimPrefix(c.Text, "//")
			if rest, ok := strings.CutPrefix(strings.TrimSpace(text), "celialint:as "); ok {
				return strings.TrimSpace(rest)
			}
		}
	}
	return ""
}

// topoSort orders import paths so every package follows its
// module-internal dependencies.
func topoSort(parsed map[string]*parsedDir) ([]string, error) {
	const (
		white = iota // unvisited
		grey         // on the current DFS path
		black        // done
	)
	state := make(map[string]int, len(parsed))
	var order []string
	var visit func(path string) error
	visit = func(path string) error {
		p, ok := parsed[path]
		if !ok {
			return nil // resolved later by the importer (or a missing dir error there)
		}
		switch state[path] {
		case grey:
			return fmt.Errorf("analysis: import cycle through %s", path)
		case black:
			return nil
		}
		state[path] = grey
		for _, dep := range p.imports {
			if dep == path {
				continue
			}
			if err := visit(dep); err != nil {
				return err
			}
		}
		state[path] = black
		order = append(order, path)
		return nil
	}
	paths := make([]string, 0, len(parsed))
	for path := range parsed {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	for _, path := range paths {
		if err := visit(path); err != nil {
			return nil, err
		}
	}
	return order, nil
}

// check type-checks one parsed directory and caches the result.
func (l *Loader) check(p *parsedDir) (*CheckedPackage, error) {
	start := time.Now()
	defer func() { l.checkWall += time.Since(start) }()
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Instances:  map[*ast.Ident]types.Instance{},
	}
	var errs []error
	conf := types.Config{
		Importer: l,
		Error:    func(err error) { errs = append(errs, err) },
	}
	pkg, _ := conf.Check(p.importPath, l.Fset, p.files, info)
	if len(errs) > 0 {
		msgs := make([]string, 0, len(errs))
		for i, e := range errs {
			if i == 8 {
				msgs = append(msgs, fmt.Sprintf("... and %d more", len(errs)-i))
				break
			}
			msgs = append(msgs, e.Error())
		}
		return nil, fmt.Errorf("analysis: type errors in %s:\n  %s", p.importPath, strings.Join(msgs, "\n  "))
	}
	cp := &CheckedPackage{Fset: l.Fset, Path: p.importPath, Files: p.files, Pkg: pkg, Info: info, Imports: p.imports}
	l.checked[p.importPath] = pkg
	l.packages[p.importPath] = cp
	return cp, nil
}
