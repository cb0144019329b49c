// Package analysis is celia-lint: a zero-dependency static-analysis
// suite that machine-checks the repository's determinism, float-safety,
// dimensional-soundness, and serving invariants. CELIA's value rests on bit-for-bit replayable
// model output — the Eq. 2–6 cost/time census, the seeded Monte-Carlo
// deadline-risk estimator, and the byte-exact serving cache — and those
// guarantees die silently the first time someone reads the wall clock
// inside a simulation path or compares floats with ==. Reviewer
// vigilance does not scale; these analyzers do.
//
// The suite is built purely on go/parser, go/ast, go/token, and
// go/types (the module has a hard zero-external-dependency rule, so
// golang.org/x/tools is not available). Each analyzer reports findings
// as "file:line:col: [rule] message"; cmd/celia-lint exits non-zero on
// any finding.
//
// # Escape hatch
//
// A finding can be suppressed with a comment on the same line or the
// line directly above:
//
//	//lint:allow <rule> <reason>
//
// The reason is mandatory: an allow without one is itself a finding.
// Unknown rule names in allow comments are findings too, so typos
// cannot silently disable a rule.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// A Finding is one rule violation at one source position.
type Finding struct {
	Pos  token.Position
	Rule string
	Msg  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Rule, f.Msg)
}

// An Analyzer is one named rule over a type-checked package.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass)
	// NeedsModule marks interprocedural rules: the driver builds the
	// call graph + summaries (once per run, shared read-only across the
	// parallel workers) and hands them to the pass as Pass.Module.
	NeedsModule bool
}

// Pass hands one type-checked package to one analyzer.
type Pass struct {
	Fset  *token.FileSet
	Path  string // effective import path (see CheckedPackage.Path)
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
	// Module is the shared call graph + summary cache; nil unless the
	// analyzer declared NeedsModule.
	Module *Module

	rule     string
	findings *[]Finding
	seen     map[Finding]bool
}

// Reportf records a finding at pos under the running analyzer's rule.
// An exact repeat (same position and message) is dropped: the flow
// rules replay shared blocks once per path state, and each path that
// reaches a violation would otherwise report it again.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	f := Finding{
		Pos:  p.Fset.Position(pos),
		Rule: p.rule,
		Msg:  fmt.Sprintf(format, args...),
	}
	if p.seen[f] {
		return
	}
	p.seen[f] = true
	*p.findings = append(*p.findings, f)
}

// Suite returns the full rule set in stable order.
func Suite() []*Analyzer {
	return []*Analyzer{Nodeterm, Floateq, Metricname, Httpenvelope, Nakedgo, Unitsafe, Ctxflow, Atomicpub, Lockdiscipline}
}

// Run applies the analyzers to every package and returns the findings
// that survive //lint:allow suppression, sorted by position, rule, and
// message.
func Run(analyzers []*Analyzer, pkgs []*CheckedPackage) []Finding {
	findings, _, _ := RunTimedStats(analyzers, pkgs)
	return findings
}

// RunStats reports the non-rule costs of a run: the shared
// interprocedural module build (zero when no selected rule needed it)
// and the module's own counters.
type RunStats struct {
	SummaryBuild time.Duration
	Module       ModuleStats
}

// RuleTiming is one rule's cumulative wall time across every package
// of a run (summed over concurrent passes, so the total can exceed the
// run's wall clock).
type RuleTiming struct {
	Rule    string
	Elapsed time.Duration
}

// RunTimedStats is Run plus per-rule timings and RunStats. The
// (package × analyzer) passes are independent — every pass gets a
// private findings slice and analyzers keep their state on the Pass —
// so they run concurrently across GOMAXPROCS workers; suppression
// filtering and ordering stay deterministic because merging is a serial
// pass over the grid in suite order.
//
// Suppression accounting doubles as stale-waiver detection: a
// well-formed //lint:allow whose rule ran in this invocation but
// suppressed nothing is itself a lintallow finding — dead waivers rot
// into false documentation. Waivers for suite rules that were NOT
// selected this run (celia-lint -rule) are left alone: the rule not
// running is no evidence the waiver is dead.
//
// When any selected analyzer declares NeedsModule, the call graph and
// summaries are built once up front — over the union of the target
// packages and their loader universe, so a lone fixture package still
// sees the production functions it calls — and shared read-only by
// every worker.
func RunTimedStats(analyzers []*Analyzer, pkgs []*CheckedPackage) ([]Finding, []RuleTiming, RunStats) {
	// "Known" rules for allow validation are the full suite, not just
	// the selected analyzers: -rule must not turn valid waivers into
	// unknown-rule findings.
	known := map[string]bool{}
	for _, a := range Suite() {
		known[a.Name] = true
	}
	active := map[string]bool{}
	needsModule := false
	for _, a := range analyzers {
		known[a.Name] = true
		active[a.Name] = true
		if a.NeedsModule {
			needsModule = true
		}
	}

	var stats RunStats
	var module *Module
	if needsModule {
		start := time.Now()
		seen := map[*CheckedPackage]bool{}
		var universe []*CheckedPackage
		for _, cp := range pkgs {
			for _, u := range append(cp.Universe, cp) {
				if !seen[u] {
					seen[u] = true
					universe = append(universe, u)
				}
			}
		}
		module = BuildModule(universe)
		stats.SummaryBuild = time.Since(start)
	}

	grid := make([][][]Finding, len(pkgs))
	for pi := range grid {
		grid[pi] = make([][]Finding, len(analyzers))
	}
	elapsed := make([]int64, len(analyzers))
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for pi, cp := range pkgs {
		for ai, a := range analyzers {
			wg.Add(1)
			go func(pi, ai int, cp *CheckedPackage, a *Analyzer) {
				defer wg.Done()
				sem <- struct{}{}
				defer func() { <-sem }()
				start := time.Now()
				var raw []Finding
				var mod *Module
				if a.NeedsModule {
					mod = module
				}
				a.Run(&Pass{
					Fset:   cp.Fset,
					Path:   cp.Path,
					Files:  cp.Files,
					Pkg:    cp.Pkg,
					Info:   cp.Info,
					Module: mod,

					rule:     a.Name,
					findings: &raw,
					seen:     map[Finding]bool{},
				})
				atomic.AddInt64(&elapsed[ai], int64(time.Since(start)))
				grid[pi][ai] = raw
			}(pi, ai, cp, a)
		}
	}
	wg.Wait()

	var all []Finding
	for pi, cp := range pkgs {
		allows, directives, allowFindings := collectAllows(cp, known)
		all = append(all, allowFindings...)
		for ai := range analyzers {
			for _, f := range grid[pi][ai] {
				if d := allows[allowKey{file: f.Pos.Filename, line: f.Pos.Line, rule: f.Rule}]; d != nil {
					d.used = true
					continue
				}
				all = append(all, f)
			}
		}
		for _, d := range directives {
			if !d.used && active[d.rule] {
				all = append(all, Finding{
					Pos:  cp.Fset.Position(d.pos),
					Rule: "lintallow",
					Msg:  fmt.Sprintf("lint:allow %s suppresses nothing here (stale waiver): fix the line it used to excuse, or delete it", d.rule),
				})
			}
		}
	}
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		return a.Msg < b.Msg
	})
	timings := make([]RuleTiming, len(analyzers))
	for ai, a := range analyzers {
		timings[ai] = RuleTiming{Rule: a.Name, Elapsed: time.Duration(elapsed[ai])}
	}
	if module != nil {
		stats.Module = module.Stats()
	}
	return all, timings, stats
}

// allowKey identifies one suppressed (file, line, rule) triple.
type allowKey struct {
	file string
	line int
	rule string
}

// allowDirective is one well-formed //lint:allow comment; used records
// whether it suppressed at least one finding this run (stale-waiver
// detection).
type allowDirective struct {
	pos  token.Pos
	rule string
	used bool
}

// collectAllows scans a package's comments for //lint:allow directives.
// Each well-formed directive suppresses its rule on the comment's line
// and the line below (so it can trail the offending expression or sit
// on its own line above it); both keys share one directive so
// consumption is tracked per comment. Malformed directives are
// findings.
func collectAllows(cp *CheckedPackage, known map[string]bool) (map[allowKey]*allowDirective, []*allowDirective, []Finding) {
	allows := map[allowKey]*allowDirective{}
	var directives []*allowDirective
	var findings []Finding
	report := func(pos token.Pos, msg string) {
		findings = append(findings, Finding{Pos: cp.Fset.Position(pos), Rule: "lintallow", Msg: msg})
	}
	for _, file := range cp.Files {
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				rest, ok := strings.CutPrefix(text, "lint:allow")
				if !ok {
					continue
				}
				fields := strings.Fields(rest)
				if len(fields) == 0 {
					report(c.Pos(), "lint:allow needs a rule and a reason: //lint:allow <rule> <reason>")
					continue
				}
				rule := fields[0]
				if !known[rule] {
					report(c.Pos(), fmt.Sprintf("lint:allow names unknown rule %q", rule))
					continue
				}
				if len(fields) == 1 {
					report(c.Pos(), fmt.Sprintf("lint:allow %s needs a reason: //lint:allow %s <why this is safe>", rule, rule))
					continue
				}
				pos := cp.Fset.Position(c.Pos())
				d := &allowDirective{pos: c.Pos(), rule: rule}
				directives = append(directives, d)
				allows[allowKey{file: pos.Filename, line: pos.Line, rule: rule}] = d
				allows[allowKey{file: pos.Filename, line: pos.Line + 1, rule: rule}] = d
			}
		}
	}
	return allows, directives, findings
}

// pathWithin reports whether an import path falls inside the package
// tree named by a module-relative prefix such as "internal/des":
// true for the package itself and any subpackage, with matches aligned
// on path-segment boundaries.
func pathWithin(path, prefix string) bool {
	i := strings.Index(path, prefix)
	if i < 0 {
		return false
	}
	if i > 0 && path[i-1] != '/' {
		return false
	}
	rest := path[i+len(prefix):]
	return rest == "" || rest[0] == '/'
}

// pkgSelector resolves X in X.Sel to an imported package, returning its
// import path when X names a package.
func pkgSelector(info *types.Info, sel *ast.SelectorExpr) (string, bool) {
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", false
	}
	pn, ok := info.Uses[id].(*types.PkgName)
	if !ok {
		return "", false
	}
	return pn.Imported().Path(), true
}

// isFloat reports whether a type's underlying kind is float32/float64
// (including named types such as units.Seconds and untyped float
// constants).
func isFloat(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// enclosingFuncName names the innermost function declaration containing
// pos, as "Name" or "Recv.Name" for methods; "" at package scope.
func enclosingFuncName(files []*ast.File, pos token.Pos) string {
	for _, file := range files {
		if pos < file.Pos() || pos > file.End() {
			continue
		}
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || pos < fd.Pos() || pos > fd.End() {
				continue
			}
			if fd.Recv != nil && len(fd.Recv.List) > 0 {
				return recvTypeName(fd.Recv.List[0].Type) + "." + fd.Name.Name
			}
			return fd.Name.Name
		}
	}
	return ""
}

func recvTypeName(expr ast.Expr) string {
	switch e := expr.(type) {
	case *ast.StarExpr:
		return recvTypeName(e.X)
	case *ast.Ident:
		return e.Name
	case *ast.IndexExpr: // generic receiver
		return recvTypeName(e.X)
	case *ast.IndexListExpr:
		return recvTypeName(e.X)
	}
	return ""
}
