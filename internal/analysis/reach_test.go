package analysis

import (
	"go/ast"
	"go/types"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
)

// Reasons a function that no binary reaches may stay, one per kind of
// test support.
const (
	reachChaos    = "fault injector for the chaos suite"
	reachGolden   = "golden dump that a test compares"
	reachEntry    = "entry point that tests drive"
	reachMutation = "ctxflow mutation control: the rule must fire on a mutant of its body"
	reachOracle   = "oracle that a test checks the program against"
	reachRemedy   = "the comparison helper that floateq's message names as the remedy"
	reachAccessor = "accessor or setter that tests read or call"
)

// reachAllowed names every function that may stay although no binary
// reaches it, keyed as reachKey prints it.
var reachAllowed = map[string]string{
	"chaos.Corruptions":  reachChaos,
	"chaos.FailReadFile": reachChaos,
	"chaos.FailRebuild":  reachChaos,
	"chaos.FlipBit":      reachChaos,
	"chaos.HangCompute":  reachChaos,
	"chaos.PanicCompute": reachChaos,
	"chaos.PanicRebuild": reachChaos,
	"chaos.SlowCompute":  reachChaos,
	"chaos.SlowReadFile": reachChaos,
	"chaos.TornReadFile": reachChaos,
	"chaos.Truncate":     reachChaos,

	"analysis.CFG.Dump":             reachGolden,
	"analysis.Summary.Dump":         reachGolden,
	"analysis.Module.DumpSummaries": reachGolden,
	"analysis.nodeLabel":            reachGolden,

	"analysis.Run":               reachEntry,
	"api.NewServerFromEngines":   reachEntry,
	"risk.Estimate":              reachMutation,
	"config.Space.IndexOf":       reachOracle,
	"pareto.Point.Dominates":     reachOracle,
	"workload.Plan.TotalInstr":   reachOracle,
	"sweep.CostDemandElasticity": reachOracle,
	"sweep.MaxElasticity":        reachOracle,
	"stats.ApproxEqual":          reachRemedy,

	"ec2.Catalog.IndexOf":            reachAccessor,
	"ec2.Catalog.Lookup":             reachAccessor,
	"ec2.Categories":                 reachAccessor,
	"model.Capacities.Capacity":      reachAccessor,
	"model.Capacities.W":             reachAccessor,
	"pareto.Stream2D.Seen":           reachAccessor,
	"perf.Account.Count":             reachAccessor,
	"report.Table.Rows":              reachAccessor,
	"serving.resultCache.len":        reachAccessor,
	"units.GI":                       reachAccessor,
	"vm.Instance.ExecTime":           reachAccessor,
	"vm.Instance.Jitter":             reachAccessor,
	"vm.Instance.Rate":               reachAccessor,
	"demand.FromFunc":                reachAccessor,
	"localserver.Server.MeasureGrid": reachAccessor,
	"workqueue.Master.SetMaxRetries": reachAccessor,
}

// stdlibCalled are the method names that the standard library calls on
// module types through its own interfaces, so a module method of one of
// these names is reached even when no module code calls it.
var stdlibCalled = map[string]string{
	"Error":     "error: fmt and errors format and wrap error values",
	"String":    "fmt.Stringer: fmt prints Stringers",
	"ServeHTTP": "http.Handler: net/http dispatches requests to it",
	"Import":    "types.Importer: go/types resolves imports through it",
}

// perfbenchPkg is the benchmark harness in _perfbench, a module of its
// own that compiles against this one's internals. Like sharedLoader it
// is type-checked once per test binary.
var perfbenchPkg = sync.OnceValues(func() (*CheckedPackage, error) {
	l, err := sharedLoader()
	if err != nil {
		return nil, err
	}
	return l.LoadDir(filepath.Join(l.Root(), "_perfbench"))
})

// TestEveryFunctionReachable fails on any module function that no
// binary reaches, unless reachAllowed names it, on any reachAllowed
// entry that no longer names such a function, and on any stdlibCalled
// name that no module method has. The roots
// are the main of every program under cmd/ and examples/ and of
// _perfbench, every init, every function that a package-level
// declaration references, and every method that the standard library
// calls through one of its interfaces (stdlibCalled). A function
// reaches its call-graph callees (calls, method values and function
// references), the declarations behind generic instantiations, and,
// for a call through an interface that no module type implements
// (Forward's Lattice[S]), every module method of that name.
func TestEveryFunctionReachable(t *testing.T) {
	l := newTestLoader(t)
	pkgs, err := l.LoadModule()
	if err != nil {
		t.Fatalf("LoadModule: %v", err)
	}
	pb, err := perfbenchPkg()
	if err != nil {
		t.Fatalf("LoadDir(_perfbench): %v", err)
	}
	m := BuildModule(append(pkgs[:len(pkgs):len(pkgs)], pb))

	byName := map[string][]*types.Func{}
	for fn := range m.Funcs {
		if sig := fn.Type().(*types.Signature); sig.Recv() != nil {
			byName[fn.Name()] = append(byName[fn.Name()], fn)
		}
	}
	reached := map[*types.Func]bool{}
	var queue []*types.Func
	reach := func(fn *types.Func) {
		fn = fn.Origin()
		if _, ok := m.Funcs[fn]; ok && !reached[fn] {
			reached[fn] = true
			queue = append(queue, fn)
		}
	}

	for _, cp := range m.Pkgs {
		program := cp == pb || cp.Pkg.Name() == "main" &&
			(strings.HasPrefix(cp.Path, l.ModulePath()+"/cmd/") || strings.HasPrefix(cp.Path, l.ModulePath()+"/examples/"))
		for _, file := range cp.Files {
			for _, decl := range file.Decls {
				switch decl := decl.(type) {
				case *ast.GenDecl:
					ast.Inspect(decl, func(n ast.Node) bool {
						if id, ok := n.(*ast.Ident); ok {
							if fn, ok := cp.Info.Uses[id].(*types.Func); ok {
								reach(fn)
							}
						}
						return true
					})
				case *ast.FuncDecl:
					fn, _ := cp.Info.Defs[decl.Name].(*types.Func)
					if fn == nil {
						continue
					}
					if decl.Recv == nil && (fn.Name() == "init" || program && fn.Name() == "main") {
						reach(fn)
					}
					if _, ok := stdlibCalled[fn.Name()]; ok && decl.Recv != nil {
						reach(fn)
					}
				}
			}
		}
	}

	for len(queue) > 0 {
		fi := m.Funcs[queue[0]]
		queue = queue[1:]
		for _, callee := range fi.Callees {
			reach(callee)
		}
		ast.Inspect(fi.Decl, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			fn, ok := fi.Pkg.Info.Uses[id].(*types.Func)
			if !ok {
				return true
			}
			reach(fn)
			if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
				if iface, ok := recv.Type().Underlying().(*types.Interface); ok && len(m.implementers(iface, fn.Name())) == 0 {
					for _, impl := range byName[fn.Name()] {
						reach(impl)
					}
				}
			}
			return true
		})
	}

	var unreached []string
	seen := map[string]bool{}
	for fn, fi := range m.Funcs {
		if reached[fn] {
			continue
		}
		key := reachKey(fn)
		seen[key] = true
		if _, ok := reachAllowed[key]; !ok {
			unreached = append(unreached, key+" ("+fi.Pkg.Fset.Position(fi.Decl.Pos()).String()+")")
		}
	}
	sort.Strings(unreached)
	for _, u := range unreached {
		t.Errorf("no binary reaches %s: delete it, or name it in reachAllowed with a reason", u)
	}
	var stale []string
	for key := range reachAllowed {
		if !seen[key] {
			stale = append(stale, key)
		}
	}
	sort.Strings(stale)
	for _, key := range stale {
		t.Errorf("reachAllowed names %s, which is not an unreached module function: drop the entry", key)
	}
	var unused []string
	for name := range stdlibCalled {
		if len(byName[name]) == 0 {
			unused = append(unused, name)
		}
	}
	sort.Strings(unused)
	for _, name := range unused {
		t.Errorf("stdlibCalled names %s, which no module method has: drop the entry", name)
	}
}

// reachKey names a function as dir.Func or dir.Type.Method, where dir
// is the last element of its package's path: unlike package names
// (every program is main), those are unique in this module.
func reachKey(fn *types.Func) string {
	name := fn.Name()
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		t := recv.Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if n, ok := t.(*types.Named); ok {
			name = n.Obj().Name() + "." + name
		}
	}
	return path.Base(fn.Pkg().Path()) + "." + name
}
