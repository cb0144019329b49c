// The interprocedural layer: a module-wide call graph over every
// checked package, feeding the bottom-up function summaries in
// summary.go and the two rules that consult them (ctxflow,
// lockdiscipline).
//
// Resolution is deliberately conservative and purely go/types-based
// (the zero-dependency rule keeps golang.org/x/tools/go/ssa and
// go/callgraph off the table):
//
//   - direct function and method calls resolve statically through
//     types.Info (Uses / Selections);
//   - interface method calls resolve by a type-set approximation: every
//     named type declared in the module that implements the interface
//     contributes its method as a possible callee. The module is treated
//     as a closed world — an interface satisfied only outside the module
//     resolves to nothing and callers fall back to worst-case
//     assumptions (see summary.go);
//   - calls through function values are unresolved: readers of the
//     graph must treat their effects as unknown.
//
// Edges are collected from the entire body including nested function
// literals — a superset of what the summary walker attributes to the
// function — so Tarjan's SCC order is always safe to compute summaries
// bottom-up over. Method values referenced without a call (handler
// registration, callbacks) contribute reference edges too, so the
// -changed reverse-dependency closure survives dynamic dispatch through
// http.ServeMux and friends.
package analysis

import (
	"go/ast"
	"go/types"
	"sort"
	"sync"
)

// FuncInfo is one module function or method with a body.
type FuncInfo struct {
	Obj  *types.Func
	Decl *ast.FuncDecl
	Pkg  *CheckedPackage
	// Callees are the statically resolved outgoing edges (calls and
	// method-value references), deduplicated, in first-seen order.
	Callees []*types.Func
}

// ModuleStats summarizes the shared interprocedural state for the
// -timing report and the CI lint-report artifact.
type ModuleStats struct {
	Packages   int
	Functions  int
	Edges      int
	SCCs       int
	LargestSCC int
	// FixpointIters counts summary recomputations beyond the first pass
	// (non-zero only when recursion forced extra rounds).
	FixpointIters int
	// Lookups counts SummaryOf hits from rule workers — how much the
	// shared summary cache was reused across the parallel passes.
	Lookups int64
}

// Module is the interprocedural view shared (read-only) by every rule
// worker of a run: function index, call graph, SCCs, and summaries.
type Module struct {
	Pkgs  []*CheckedPackage
	Funcs map[*types.Func]*FuncInfo

	// sccOf maps each function to its SCC index; sccs lists members in
	// reverse-topological order (callees before callers).
	sccOf map[*types.Func]int
	sccs  [][]*types.Func

	summaries map[*types.Func]*Summary
	stats     ModuleStats
	lookups   int64 // atomic; folded into stats on Stats()

	// namedTypes are the module's named (non-interface) types, the
	// closed world for interface dispatch.
	namedTypes []types.Type

	implMu    sync.Mutex
	implCache map[implKey][]*types.Func
}

type implKey struct {
	iface  *types.Interface
	method string
}

// BuildModule indexes the packages, resolves the call graph, and
// computes every function summary bottom-up. The result is immutable
// and safe for concurrent readers.
func BuildModule(pkgs []*CheckedPackage) *Module {
	// Deduplicate (Universe sets overlap) and order deterministically.
	seen := map[*CheckedPackage]bool{}
	var uniq []*CheckedPackage
	for _, cp := range pkgs {
		if cp == nil || seen[cp] {
			continue
		}
		seen[cp] = true
		uniq = append(uniq, cp)
	}
	sort.SliceStable(uniq, func(i, j int) bool { return uniq[i].Path < uniq[j].Path })

	m := &Module{
		Pkgs:      uniq,
		Funcs:     map[*types.Func]*FuncInfo{},
		sccOf:     map[*types.Func]int{},
		summaries: map[*types.Func]*Summary{},
		implCache: map[implKey][]*types.Func{},
	}
	m.stats.Packages = len(uniq)
	for _, cp := range uniq {
		m.indexPackage(cp)
		m.collectNamedTypes(cp)
	}
	for _, cp := range uniq {
		for _, file := range cp.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, ok := cp.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				fi := m.Funcs[obj]
				fi.Callees = m.collectCallees(cp, fd)
				m.stats.Edges += len(fi.Callees)
			}
		}
	}
	m.condense()
	m.computeSummaries()
	return m
}

// indexPackage registers every declared function/method with a body.
func (m *Module) indexPackage(cp *CheckedPackage) {
	for _, file := range cp.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, ok := cp.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			m.Funcs[obj] = &FuncInfo{Obj: obj, Decl: fd, Pkg: cp}
		}
	}
	m.stats.Functions = len(m.Funcs)
}

// collectNamedTypes records the package's named non-interface types —
// the candidate implementers for interface dispatch.
func (m *Module) collectNamedTypes(cp *CheckedPackage) {
	if cp.Pkg == nil {
		return
	}
	scope := cp.Pkg.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok {
			continue
		}
		if _, isIface := named.Underlying().(*types.Interface); isIface {
			continue
		}
		m.namedTypes = append(m.namedTypes, named)
	}
}

// collectCallees resolves every call and method-value reference in the
// declaration, nested literals included (a superset of the summary
// walker's sync-call set, so SCC order is always safe).
func (m *Module) collectCallees(cp *CheckedPackage, fd *ast.FuncDecl) []*types.Func {
	var out []*types.Func
	added := map[*types.Func]bool{}
	add := func(fns []*types.Func) {
		for _, fn := range fns {
			if fn == nil || added[fn] {
				continue
			}
			if _, inModule := m.Funcs[fn]; !inModule {
				continue
			}
			added[fn] = true
			out = append(out, fn)
		}
	}
	ast.Inspect(fd, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			fns, _ := m.ResolveCall(cp.Info, n)
			add(fns)
		case *ast.SelectorExpr:
			// Method value (s.handleX passed as a callback): a reference
			// edge even though it is not a call here.
			if sel, ok := cp.Info.Selections[n]; ok && sel.Kind() == types.MethodVal {
				if fn, ok := sel.Obj().(*types.Func); ok {
					add([]*types.Func{fn})
				}
			}
		case *ast.Ident:
			if fn, ok := cp.Info.Uses[n].(*types.Func); ok && fn.Type() != nil {
				if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() == nil {
					add([]*types.Func{fn})
				}
			}
		}
		return true
	})
	return out
}

// ResolveCall statically resolves a call expression to its possible
// module callees. allKnown reports whether the returned set is believed
// complete (closed-world): false for calls through function values and
// for interface methods with no module implementer, in which case
// callers must assume the worst.
func (m *Module) ResolveCall(info *types.Info, call *ast.CallExpr) ([]*types.Func, bool) {
	fun := ast.Unparen(call.Fun)
	switch fun := fun.(type) {
	case *ast.Ident:
		switch obj := info.Uses[fun].(type) {
		case *types.Func:
			return []*types.Func{obj}, true
		case *types.Builtin:
			return nil, true
		case *types.TypeName:
			return nil, true // conversion
		}
		if tv, ok := info.Types[fun]; ok && tv.IsType() {
			return nil, true
		}
		return nil, false // function value
	case *ast.SelectorExpr:
		if tv, ok := info.Types[fun]; ok && tv.IsType() {
			return nil, true // qualified conversion
		}
		if sel, ok := info.Selections[fun]; ok {
			fn, ok := sel.Obj().(*types.Func)
			if !ok {
				return nil, false // func-typed field
			}
			recv := sel.Recv()
			if recv != nil {
				if iface, ok := recv.Underlying().(*types.Interface); ok {
					impls := m.implementers(iface, fn.Name())
					return impls, len(impls) > 0
				}
			}
			return []*types.Func{fn}, true
		}
		// Package-qualified call.
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return []*types.Func{fn}, true
		}
		if _, ok := info.Uses[fun.Sel].(*types.TypeName); ok {
			return nil, true // pkg.Type(x) conversion
		}
		return nil, false
	case *ast.FuncLit:
		return nil, true // handled inline by the walkers
	}
	return nil, false
}

// implementers returns the module methods satisfying an interface
// method, under the closed-world approximation.
func (m *Module) implementers(iface *types.Interface, method string) []*types.Func {
	key := implKey{iface: iface, method: method}
	m.implMu.Lock()
	defer m.implMu.Unlock()
	if fns, ok := m.implCache[key]; ok {
		return fns
	}
	var fns []*types.Func
	for _, t := range m.namedTypes {
		var impl types.Type
		switch {
		case types.Implements(t, iface):
			impl = t
		case types.Implements(types.NewPointer(t), iface):
			impl = types.NewPointer(t)
		default:
			continue
		}
		obj, _, _ := types.LookupFieldOrMethod(impl, true, nil, method)
		if fn, ok := obj.(*types.Func); ok {
			if _, inModule := m.Funcs[fn]; inModule {
				fns = append(fns, fn)
			}
		}
	}
	sort.Slice(fns, func(i, j int) bool { return fns[i].FullName() < fns[j].FullName() })
	m.implCache[key] = fns
	return fns
}

// condense runs Tarjan's algorithm; m.sccs ends up in reverse
// topological order (every SCC after all SCCs it calls into), which is
// exactly the bottom-up summary order.
func (m *Module) condense() {
	fns := make([]*types.Func, 0, len(m.Funcs))
	for fn := range m.Funcs {
		fns = append(fns, fn)
	}
	sort.Slice(fns, func(i, j int) bool { return fns[i].FullName() < fns[j].FullName() })

	index := map[*types.Func]int{}
	low := map[*types.Func]int{}
	onStack := map[*types.Func]bool{}
	var stack []*types.Func
	next := 0

	// Iterative Tarjan: recursion depth on a deep call chain could
	// otherwise overflow the goroutine stack inside a fuzzer.
	type frame struct {
		fn *types.Func
		ci int // next callee index to visit
	}
	var visit func(root *types.Func)
	visit = func(root *types.Func) {
		frames := []frame{{fn: root}}
		index[root] = next
		low[root] = next
		next++
		stack = append(stack, root)
		onStack[root] = true
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			callees := m.Funcs[f.fn].Callees
			if f.ci < len(callees) {
				c := callees[f.ci]
				f.ci++
				if _, seen := index[c]; !seen {
					index[c] = next
					low[c] = next
					next++
					stack = append(stack, c)
					onStack[c] = true
					frames = append(frames, frame{fn: c})
				} else if onStack[c] {
					if index[c] < low[f.fn] {
						low[f.fn] = index[c]
					}
				}
				continue
			}
			// All callees done: maybe pop an SCC, then propagate lowlink.
			if low[f.fn] == index[f.fn] {
				var scc []*types.Func
				for {
					n := len(stack) - 1
					fn := stack[n]
					stack = stack[:n]
					onStack[fn] = false
					scc = append(scc, fn)
					if fn == f.fn {
						break
					}
				}
				sort.Slice(scc, func(i, j int) bool { return scc[i].FullName() < scc[j].FullName() })
				id := len(m.sccs)
				for _, fn := range scc {
					m.sccOf[fn] = id
				}
				m.sccs = append(m.sccs, scc)
			}
			done := *f
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				parent := &frames[len(frames)-1]
				if low[done.fn] < low[parent.fn] {
					low[parent.fn] = low[done.fn]
				}
			}
		}
	}
	for _, fn := range fns {
		if _, seen := index[fn]; !seen {
			visit(fn)
		}
	}
	m.stats.SCCs = len(m.sccs)
	for _, scc := range m.sccs {
		if len(scc) > m.stats.LargestSCC {
			m.stats.LargestSCC = len(scc)
		}
	}
}

// PackageDeps projects the call graph onto packages: for each package
// path, the set of package paths it calls or references into. Import
// edges are included, so the -changed closure covers both static
// imports and interface-dispatch edges.
func (m *Module) PackageDeps() map[string]map[string]bool {
	deps := map[string]map[string]bool{}
	edge := func(from, to string) {
		if from == to || from == "" || to == "" {
			return
		}
		if deps[from] == nil {
			deps[from] = map[string]bool{}
		}
		deps[from][to] = true
	}
	pathOf := map[*types.Package]string{}
	for _, cp := range m.Pkgs {
		pathOf[cp.Pkg] = cp.Path
		for _, imp := range cp.Imports {
			edge(cp.Path, imp)
		}
	}
	for fn, fi := range m.Funcs {
		for _, callee := range fi.Callees {
			ci, ok := m.Funcs[callee]
			if !ok {
				continue
			}
			_ = fn
			edge(fi.Pkg.Path, ci.Pkg.Path)
		}
	}
	return deps
}
