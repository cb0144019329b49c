// The cachekey rule: the Frontdoor cache (internal/serving) is sound
// only if two requests that can produce different response bytes never
// share a cache key. The rule proves that in two composable halves,
// both built on the interprocedural summaries (summary.go):
//
//  1. Call-site coverage. At every cache call — a call passing both a
//     serving.Query value and a compute closure — every request-struct
//     field the closure transitively reads (via function summaries:
//     reads propagate through module callees, unknown callees read
//     their arguments wholesale) must also be read by the expressions
//     that build the Query literal. A field the closure consumes but
//     the key omits is a stale-cache bug: the cached bytes answer a
//     different request.
//  2. Key completeness. In the serving package, the canonical key
//     builder (a function named "key" taking a Query) must read every
//     field of the Query struct, so a field added to Query cannot
//     silently stop distinguishing requests. This proves the key
//     builder *consumes* each field — exact for the straight-line
//     byte-append builder serving uses (every read there flows into
//     the returned bytes); a pathological builder that reads a field
//     and discards it would still pass, which is why the builder stays
//     straight-line.
//
// Together: closure reads ⊆ Query-literal reads (half 1) and Query
// fields ⊆ key bytes (half 2), so closure reads reach the key bytes.
//
// Request structs are recognized by how the data arrives, not by
// naming alone: a local whose address flows into an encoding/json
// Decode/Unmarshal in the same function, or a value whose named struct
// type ends in "Request" (the decode-helper idiom). Handler locals
// derived from request fields (boot := req.BootSeconds) are tracked by
// a small taint pass so defaulted knobs count as reads of their source
// field on both sides of the comparison.
//
// A cache call whose Query or compute function cannot be traced to a
// literal in the enclosing function is itself a finding (the proof
// obligation cannot be discharged) — except pure plumbing, where both
// are parameters passed straight through (serve, Frontdoor.Do).
package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Cachekey is the tenth analyzer; see the comment above.
var Cachekey = &Analyzer{
	Name:        "cachekey",
	Doc:         "Every request field a compute closure reads must reach the cache key; the canonical key builder must consume every Query field",
	Run:         runCachekey,
	NeedsModule: true,
}

// cachekeyScope: packages that build cache queries or the key itself.
var cachekeyScope = []string{
	"internal/api",
	"internal/serving",
	"internal/localserver",
}

// maxTaintsPerVar caps how many (root, path) taints one handler local
// can carry before collapsing to a wholesale read of each root.
const maxTaintsPerVar = 32

func runCachekey(pass *Pass) {
	in := false
	for _, prefix := range cachekeyScope {
		if pathWithin(pass.Path, prefix) {
			in = true
			break
		}
	}
	if !in || pass.Module == nil {
		return
	}
	c := &cachekeyChecker{pass: pass}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			c.checkCacheCalls(fd)
			c.checkKeyBuilder(fd)
		}
	}
}

type cachekeyChecker struct {
	pass *Pass
}

// walkerPkg wraps the pass as a CheckedPackage so the summary engine's
// effect walker can run over handler snippets.
func (c *cachekeyChecker) walkerPkg() *CheckedPackage {
	return &CheckedPackage{Fset: c.pass.Fset, Path: c.pass.Path, Info: c.pass.Info}
}

// isQueryType reports whether t is the serving cache-query struct (or
// a fixture's stand-in): a named struct type called Query.
func isQueryType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	if named.Obj().Name() != "Query" {
		return false
	}
	_, isStruct := named.Underlying().(*types.Struct)
	return isStruct
}

// ---- Half 1: call-site coverage ----

func (c *cachekeyChecker) checkCacheCalls(fd *ast.FuncDecl) {
	info := c.pass.Info
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		queryIdx, computeIdx := -1, -1
		for i, arg := range call.Args {
			t := info.TypeOf(arg)
			if t == nil {
				continue
			}
			if queryIdx < 0 && isQueryType(t) {
				queryIdx = i
			}
			if computeIdx < 0 && i != queryIdx {
				if _, isFunc := t.Underlying().(*types.Signature); isFunc {
					computeIdx = i
				}
			}
		}
		if queryIdx < 0 || computeIdx < 0 {
			return true
		}
		c.checkOneCacheCall(fd, call, call.Args[queryIdx], call.Args[computeIdx])
		return true
	})
}

func (c *cachekeyChecker) checkOneCacheCall(fd *ast.FuncDecl, call *ast.CallExpr, queryArg, computeArg ast.Expr) {
	// Plumbing exemption: both the query and the compute function are
	// parameters forwarded unchanged — the proof obligation lives at the
	// frame that built them.
	if c.isParamOf(fd, queryArg) && c.isParamOf(fd, computeArg) {
		return
	}

	roots, taints := c.requestRoots(fd)
	if len(roots) == 0 {
		return // no wire-decoded request in this function: nothing to prove
	}

	queryExprs, ok := c.resolveQueryExprs(fd, queryArg)
	if !ok {
		c.pass.Reportf(call.Pos(), "cannot prove cache-key coverage: the query is not a struct literal traceable within this function — build the serving.Query inline or waive with a reason")
		return
	}
	lit := c.resolveComputeLit(fd, computeArg)
	if lit == nil {
		c.pass.Reportf(call.Pos(), "cannot prove cache-key coverage: the compute function is not a literal traceable within this function — inline the closure or waive with a reason")
		return
	}

	// Keyed set: everything the Query-literal expressions read from the
	// request roots (through summaries — req.Trace.Hash() keys exactly
	// the fields Hash reads).
	keyed := c.collectReads(taints, func(w *effectWalker) {
		for _, e := range queryExprs {
			w.expr(e)
		}
	}, nil)

	// Read set: everything the compute closure reads, with positions.
	type readSite struct {
		root int
		path string
		pos  token.Pos
	}
	var sites []readSite
	c.collectReads(taints, func(w *effectWalker) {
		w.stmtList(lit.Body.List)
	}, func(root int, path string, pos token.Pos) {
		sites = append(sites, readSite{root, path, pos})
	})

	seen := map[string]bool{}
	for _, site := range sites {
		ks := keyed[site.root]
		if ks != nil && ks.Covers(site.path) {
			continue
		}
		reqName := roots[site.root].Name()
		display := reqName
		if site.path != "" {
			display = reqName + "." + site.path
		}
		dedup := display
		if seen[dedup] {
			continue
		}
		seen[dedup] = true
		if site.path == "" {
			c.pass.Reportf(site.pos, "compute closure consumes %s wholesale but the cache key does not cover the whole request: key every field it can reach or waive with a reason", display)
			continue
		}
		c.pass.Reportf(site.pos, "compute closure reads request field %s but it never reaches the cache key: responses for requests differing in %s would share a cache entry — fold it into the serving.Query", display, site.path)
	}
}

// isParamOf reports whether e is a bare reference to one of fd's
// parameters.
func (c *cachekeyChecker) isParamOf(fd *ast.FuncDecl, e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return false
	}
	obj := c.pass.Info.Uses[id]
	if obj == nil {
		return false
	}
	if fd.Type.Params == nil {
		return false
	}
	for _, field := range fd.Type.Params.List {
		for _, name := range field.Names {
			if c.pass.Info.Defs[name] == obj {
				return true
			}
		}
	}
	return false
}

// resolveQueryExprs traces the query argument to the element
// expressions of the struct literal(s) that built it.
func (c *cachekeyChecker) resolveQueryExprs(fd *ast.FuncDecl, arg ast.Expr) ([]ast.Expr, bool) {
	arg = ast.Unparen(arg)
	if lit, ok := arg.(*ast.CompositeLit); ok {
		return queryLitElements(lit), true
	}
	id, ok := arg.(*ast.Ident)
	if !ok {
		return nil, false
	}
	v, ok := objOf(c.pass.Info, id).(*types.Var)
	if !ok {
		return nil, false
	}
	var out []ast.Expr
	ok = true
	forEachAssignmentTo(c.pass.Info, fd.Body, v, func(rhs ast.Expr) {
		if lit, isLit := ast.Unparen(rhs).(*ast.CompositeLit); isLit {
			out = append(out, queryLitElements(lit)...)
			return
		}
		ok = false
	})
	if !ok || out == nil {
		return nil, false
	}
	return out, true
}

// queryLitElements returns the value expressions of a struct literal
// (struct-field keys are names, not reads).
func queryLitElements(lit *ast.CompositeLit) []ast.Expr {
	var out []ast.Expr
	for _, el := range lit.Elts {
		if kv, ok := el.(*ast.KeyValueExpr); ok {
			out = append(out, kv.Value)
			continue
		}
		out = append(out, el)
	}
	return out
}

// resolveComputeLit traces the compute argument to a function literal.
func (c *cachekeyChecker) resolveComputeLit(fd *ast.FuncDecl, arg ast.Expr) *ast.FuncLit {
	arg = ast.Unparen(arg)
	if lit, ok := arg.(*ast.FuncLit); ok {
		return lit
	}
	id, ok := arg.(*ast.Ident)
	if !ok {
		return nil
	}
	v, ok := objOf(c.pass.Info, id).(*types.Var)
	if !ok {
		return nil
	}
	var found *ast.FuncLit
	count := 0
	forEachAssignmentTo(c.pass.Info, fd.Body, v, func(rhs ast.Expr) {
		count++
		if lit, isLit := ast.Unparen(rhs).(*ast.FuncLit); isLit {
			found = lit
		}
	})
	if count != 1 {
		return nil
	}
	return found
}

func objOf(info *types.Info, id *ast.Ident) types.Object {
	if o := info.Uses[id]; o != nil {
		return o
	}
	return info.Defs[id]
}

// forEachAssignmentTo invokes fn with the right-hand side of every
// 1:1 assignment (or var initializer) to v inside body. Multi-value
// assignments are reported as a nil-safe non-literal (fn sees the call
// expression, which will fail literal resolution — correctly: the
// value is not traceable).
func forEachAssignmentTo(info *types.Info, body *ast.BlockStmt, v *types.Var, fn func(rhs ast.Expr)) {
	isV := func(e ast.Expr) bool {
		id, ok := ast.Unparen(e).(*ast.Ident)
		return ok && objOf(info, id) == v
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				if !isV(lhs) {
					continue
				}
				if len(n.Rhs) == len(n.Lhs) {
					fn(n.Rhs[i])
				} else if len(n.Rhs) == 1 {
					fn(n.Rhs[0])
				}
			}
		case *ast.ValueSpec:
			for i, name := range n.Names {
				if info.Defs[name] != v {
					continue
				}
				if len(n.Values) == len(n.Names) {
					fn(n.Values[i])
				} else if len(n.Values) == 1 {
					fn(n.Values[0])
				}
			}
		}
		return true
	})
}

// requestRoots finds the function's wire-decoded request values and
// returns them with a taint map covering derived locals.
func (c *cachekeyChecker) requestRoots(fd *ast.FuncDecl) ([]*types.Var, map[*types.Var][]rootTaint) {
	info := c.pass.Info
	var roots []*types.Var
	seen := map[*types.Var]bool{}
	addRoot := func(v *types.Var) {
		if v != nil && !seen[v] {
			seen[v] = true
			roots = append(roots, v)
		}
	}

	// Marker 1: address flows into encoding/json Decode/Unmarshal.
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		for _, arg := range call.Args {
			un, ok := ast.Unparen(arg).(*ast.UnaryExpr)
			if !ok || un.Op != token.AND {
				continue
			}
			id, ok := ast.Unparen(un.X).(*ast.Ident)
			if !ok {
				continue
			}
			if jsonDecodeCall(info, call) {
				if v, ok := objOf(info, id).(*types.Var); ok {
					addRoot(v)
				}
			}
		}
		return true
	})

	// Marker 2: any local or parameter whose named struct type ends in
	// "Request" (the decode-helper idiom: req, ok := s.decode(w, r)).
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := info.Defs[id].(*types.Var)
		if !ok {
			return true
		}
		if named, ok := v.Type().(*types.Named); ok {
			if strings.HasSuffix(named.Obj().Name(), "Request") {
				if _, isStruct := named.Underlying().(*types.Struct); isStruct {
					addRoot(v)
				}
			}
		}
		return true
	})
	if fd.Type.Params != nil {
		for _, field := range fd.Type.Params.List {
			for _, name := range field.Names {
				v, ok := info.Defs[name].(*types.Var)
				if !ok {
					continue
				}
				if named, ok := v.Type().(*types.Named); ok && strings.HasSuffix(named.Obj().Name(), "Request") {
					if _, isStruct := named.Underlying().(*types.Struct); isStruct {
						addRoot(v)
					}
				}
			}
		}
	}
	if len(roots) == 0 {
		return nil, nil
	}
	sort.Slice(roots, func(i, j int) bool { return roots[i].Pos() < roots[j].Pos() })

	taints := map[*types.Var][]rootTaint{}
	for i, v := range roots {
		taints[v] = []rootTaint{{root: i}}
	}
	c.propagateLocalTaints(fd, taints)
	return roots, taints
}

func jsonDecodeCall(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	if msel, isSel := info.Selections[sel]; isSel {
		fn, ok := msel.Obj().(*types.Func)
		return ok && fn.Pkg() != nil && fn.Pkg().Path() == "encoding/json" && fn.Name() == "Decode"
	}
	path, ok := pkgSelector(info, sel)
	return ok && path == "encoding/json" && (sel.Sel.Name == "Unmarshal" || sel.Sel.Name == "NewDecoder")
}

// propagateLocalTaints extends the taint map to locals derived from
// request fields: boot := req.BootSeconds makes reading boot a read of
// req.BootSeconds. A right-hand side that is a pure selector chain
// yields a chain taint (the local aliases the root's structure); any
// other RHS yields opaque taints — reading the local, however deeply,
// reads exactly the source paths the RHS read (est.Failed depends on
// req.Seed, not on a field of req called Failed). Three passes resolve
// assignment chains; iteration inside one pass is source order, so
// most settle in one.
func (c *cachekeyChecker) propagateLocalTaints(fd *ast.FuncDecl, taints map[*types.Var][]rootTaint) {
	info := c.pass.Info
	for pass := 0; pass < 3; pass++ {
		changed := false
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok {
				return true
			}
			for i, lhs := range as.Lhs {
				id, ok := ast.Unparen(lhs).(*ast.Ident)
				if !ok {
					continue
				}
				v, ok := objOf(info, id).(*types.Var)
				if !ok || v == nil {
					continue
				}
				if len(taints[v]) == 1 && taints[v][0].prefix == "" {
					continue // a root itself: never re-taint
				}
				var rhs []ast.Expr
				if len(as.Rhs) == len(as.Lhs) {
					rhs = []ast.Expr{as.Rhs[i]}
				} else {
					rhs = as.Rhs // multi-value: every LHS gets the union
				}
				for _, r := range rhs {
					for _, t := range c.exprTaints(taints, r) {
						if addTaint(taints, v, t) {
							changed = true
						}
					}
				}
			}
			return true
		})
		if !changed {
			break
		}
	}
}

// addTaint unions one taint into a var's set, collapsing oversized
// sets to wholesale reads of each distinct root.
func addTaint(taints map[*types.Var][]rootTaint, v *types.Var, t rootTaint) bool {
	for _, have := range taints[v] {
		if have == t || (have.root == t.root && have.prefix == "" && !have.opaque) {
			return false
		}
	}
	taints[v] = append(taints[v], t)
	if len(taints[v]) > maxTaintsPerVar {
		rootsSeen := map[int]bool{}
		var collapsed []rootTaint
		for _, have := range taints[v] {
			if !rootsSeen[have.root] {
				rootsSeen[have.root] = true
				collapsed = append(collapsed, rootTaint{root: have.root})
			}
		}
		taints[v] = collapsed
	}
	return true
}

// exprTaints computes the taints an assignment's right-hand side
// confers on its target: a chain taint for a pure selector chain from
// a chain-tainted var, opaque taints (one per read path) otherwise.
func (c *cachekeyChecker) exprTaints(taints map[*types.Var][]rootTaint, e ast.Expr) []rootTaint {
	probe := &effectWalker{
		m:    c.pass.Module,
		pkg:  c.walkerPkg(),
		out:  &Summary{Reads: map[int]PathSet{}},
		vars: taints,
	}
	if ts, path, ok := probe.chain(e); ok {
		out := make([]rootTaint, 0, len(ts))
		for _, t := range ts {
			out = append(out, rootTaint{root: t.root, prefix: t.extend(path), opaque: t.opaque})
		}
		return out
	}
	reads := c.collectReads(taints, func(w *effectWalker) { w.expr(e) }, nil)
	var out []rootTaint
	for root, ps := range reads {
		for p := range ps {
			out = append(out, rootTaint{root: root, prefix: p, opaque: true})
		}
	}
	return out
}

// collectReads runs the summary engine's effect walker over a snippet
// with the given taint seeding and returns the per-root read sets.
func (c *cachekeyChecker) collectReads(taints map[*types.Var][]rootTaint, walk func(*effectWalker), onRead func(root int, path string, pos token.Pos)) map[int]PathSet {
	vars := make(map[*types.Var][]rootTaint, len(taints))
	for v, ts := range taints {
		vars[v] = ts
	}
	w := &effectWalker{
		m:      c.pass.Module,
		pkg:    c.walkerPkg(),
		out:    &Summary{Reads: map[int]PathSet{}},
		vars:   vars,
		onRead: onRead,
	}
	walk(w)
	return w.out.Reads
}

// ---- Half 2: key-builder completeness ----

func (c *cachekeyChecker) checkKeyBuilder(fd *ast.FuncDecl) {
	if fd.Name.Name != "key" {
		return
	}
	fn, ok := c.pass.Info.Defs[fd.Name].(*types.Func)
	if !ok {
		return
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return
	}
	paramIdx := -1
	var queryStruct *types.Struct
	for i := 0; i < sig.Params().Len(); i++ {
		t := sig.Params().At(i).Type()
		if isQueryType(t) {
			paramIdx = i
			queryStruct, _ = t.Underlying().(*types.Struct)
			break
		}
	}
	if paramIdx < 0 || queryStruct == nil {
		return
	}
	sum := c.pass.Module.SummaryOf(fn)
	if sum == nil {
		return
	}
	reads := sum.Reads[paramIdx]
	for i := 0; i < queryStruct.NumFields(); i++ {
		field := queryStruct.Field(i)
		if reads != nil && reads.Covers(field.Name()) {
			continue
		}
		c.pass.Reportf(fd.Name.Pos(), "canonical key builder never reads Query.%s: two queries differing only in %s would collide in the cache — fold the field into the key bytes", field.Name(), field.Name())
	}
}
