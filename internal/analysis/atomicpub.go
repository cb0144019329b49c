// The atomicpub rule: a value stored through atomic.Pointer[T] or
// atomic.Value is frozen at the store site. core.Engine's lock-free
// frontier-index handoff (Engine.idx) relies on it: readers Load the
// published index and may read it forever without synchronization,
// which is only sound if nobody writes to the published value again. The data race that breaks this
// is invisible to the race detector unless a test happens to overlap
// the reader and the writer; this rule makes it a lint finding
// instead.
//
// Mechanically: a forward taint analysis over each function's CFG
// (cfg.go, flow.go). The lattice maps local variables to taint flags —
//
//   - snapshot:  the variable aliases a value obtained from Load();
//   - published: the variable was (or aliases what was) passed to
//     Store(), Swap(), or CompareAndSwap().
//
// Taint propagates through assignment, dereference, indexing, field
// selection, range, and append — but only when the resulting type
// shares storage (map/slice/pointer/chan); copying a struct or scalar
// detaches it. Rebinding an identifier (x = make(...)) is a strong
// update that clears its taint: that is precisely the clone idiom the
// rule wants to certify. Findings are direct writes through a tainted
// base: m[k] = v, *p = v, p.f = v, delete(m, k), m[k]++.
//
// Method calls on tainted receivers are deliberately not findings —
// intra-procedurally we cannot see whether the method writes, and the
// legitimate construction pattern (build, Store, then call
// configuration methods before the value is shared) would drown the
// rule in false positives. The escape is documented in DESIGN.md §12.
package analysis

import (
	"go/ast"
	"go/types"
)

// Atomicpub is the eighth analyzer; see the package comment above.
var Atomicpub = &Analyzer{
	Name: "atomicpub",
	Doc:  "Values published via atomic.Pointer/atomic.Value are frozen: no writes through stored pointers or Loaded snapshots without cloning",
	Run:  runAtomicpub,
}

// atomicpubScope: every package that publishes or consumes values
// through sync/atomic cells.
var atomicpubScope = []string{
	"internal/api",
	"internal/serving",
	"internal/core",
	"internal/snapshot",
	"internal/telemetry",
	"internal/workqueue",
	"internal/localserver",
}

// Taint flags.
const (
	taintSnapshot  = 1 << iota // aliases a Load()ed value
	taintPublished             // aliases a Store()d value
)

// taintState maps a function's variables to their taint flags; absent
// means untainted. The lattice join is pointwise flag union.
type taintState map[*types.Var]int

type taintLattice struct{}

func (taintLattice) Bottom() taintState { return nil }

func (taintLattice) Join(a, b taintState) taintState {
	if len(a) == 0 {
		return b
	}
	if len(b) == 0 {
		return a
	}
	out := make(taintState, len(a)+len(b))
	for v, t := range a {
		out[v] = t
	}
	for v, t := range b {
		out[v] |= t
	}
	return out
}

func (taintLattice) Equal(a, b taintState) bool {
	if len(a) != len(b) {
		return false
	}
	for v, t := range a {
		if b[v] != t {
			return false
		}
	}
	return true
}

func runAtomicpub(pass *Pass) {
	in := false
	for _, prefix := range atomicpubScope {
		if pathWithin(pass.Path, prefix) {
			in = true
			break
		}
	}
	if !in {
		return
	}
	c := &taintChecker{pass: pass}
	forEachFuncBody(pass, func(body *ast.BlockStmt) {
		c.checkFunc(body)
	})
}

type taintChecker struct {
	pass *Pass
}

func (c *taintChecker) checkFunc(body *ast.BlockStmt) {
	g := BuildCFG(body)
	res := Forward[taintState](g, taintLattice{}, taintState{}, func(b *CFGBlock, in taintState) taintState {
		return c.apply(b, in, false)
	})
	for _, b := range g.Reachable() {
		c.apply(b, res.In[b], true)
	}
}

// apply replays a block's statements over a taint state; with report
// set it emits findings for writes through tainted bases.
func (c *taintChecker) apply(b *CFGBlock, in taintState, report bool) taintState {
	st := make(taintState, len(in))
	for v, t := range in {
		st[v] = t
	}
	for _, n := range b.Stmts {
		c.applyNode(n, st, report)
	}
	return st
}

func (c *taintChecker) applyNode(n ast.Node, st taintState, report bool) {
	switch n := n.(type) {
	case *ast.AssignStmt:
		c.applyCalls(n, st, report) // Store()/delete() on the RHS run first
		c.applyAssign(n, st, report)
		return
	case *ast.DeclStmt:
		if gd, ok := n.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, name := range vs.Names {
					v, ok := c.pass.Info.Defs[name].(*types.Var)
					if !ok {
						continue
					}
					t := 0
					if i < len(vs.Values) {
						t = c.taintOf(vs.Values[i], st)
					}
					st[v] = t
				}
			}
		}
		c.applyCalls(n, st, report)
		return
	case *ast.IncDecStmt:
		c.checkWrite(n.X, st, report, "update")
	case *ast.RangeStmt:
		// Only the range clause lives in this block; the body has its
		// own blocks. Taint the loop variables from the subject.
		t := c.taintOf(n.X, st)
		if n.Tok.String() == ":=" && t != 0 {
			for _, e := range []ast.Expr{n.Key, n.Value} {
				id, ok := e.(*ast.Ident)
				if !ok {
					continue
				}
				v, ok := c.pass.Info.Defs[id].(*types.Var)
				if ok && isRefType(v.Type()) {
					st[v] |= t
				}
			}
		}
		return
	}
	c.applyCalls(n, st, report)
}

// applyAssign handles every LHS of an assignment: identifier
// assignments are strong updates (rebinding clears taint — the clone
// idiom); writes through tainted index/star/selector bases are
// findings.
func (c *taintChecker) applyAssign(a *ast.AssignStmt, st taintState, report bool) {
	// Taints of the RHS, evaluated against the pre-assignment state.
	taints := make([]int, len(a.Lhs))
	if len(a.Rhs) == len(a.Lhs) {
		for i, r := range a.Rhs {
			taints[i] = c.taintOf(r, st)
		}
	} else if len(a.Rhs) == 1 {
		// x, ok := m[k] / v, err := f() — the first result carries the
		// subject's taint for map reads and type asserts; calls yield
		// fresh values.
		t := c.taintOf(a.Rhs[0], st)
		taints[0] = t
	}
	for i, l := range a.Lhs {
		switch l := l.(type) {
		case *ast.Ident:
			if l.Name == "_" {
				continue
			}
			v, ok := c.pass.Info.Defs[l].(*types.Var)
			if !ok {
				v, ok = c.pass.Info.Uses[l].(*types.Var)
			}
			if !ok {
				continue
			}
			if !isRefType(v.Type()) {
				delete(st, v)
				continue
			}
			if a.Tok.String() == "=" || a.Tok.String() == ":=" {
				if taints[i] == 0 {
					delete(st, v)
				} else {
					st[v] = taints[i]
				}
			} else if taints[i] != 0 {
				st[v] |= taints[i] // s += ... on a ref type keeps both aliases
			}
		default:
			c.checkWrite(l, st, report, "write")
		}
	}
}

// checkWrite reports a write through a tainted base: m[k]=v, *p=v,
// p.f=v, m[k]++.
func (c *taintChecker) checkWrite(lhs ast.Expr, st taintState, report bool, verb string) {
	if !report {
		return
	}
	var base ast.Expr
	var shape string
	switch l := lhs.(type) {
	case *ast.IndexExpr:
		base, shape = l.X, "an element"
	case *ast.StarExpr:
		base, shape = l.X, "the pointee"
	case *ast.SelectorExpr:
		base, shape = l.X, "a field"
	case *ast.ParenExpr:
		c.checkWrite(l.X, st, report, verb)
		return
	default:
		return
	}
	t := c.taintOf(base, st)
	if t == 0 {
		return
	}
	c.pass.Reportf(lhs.Pos(), "%s of %s through %s, which %s: clone before mutating (copy-on-write)", verb, shape, exprKey(base), taintSource(t))
}

func taintSource(t int) string {
	switch {
	case t&taintPublished != 0 && t&taintSnapshot != 0:
		return "was published via atomic Store and aliases a Loaded snapshot"
	case t&taintPublished != 0:
		return "was published via atomic Store and is frozen"
	default:
		return "aliases an atomically Loaded snapshot shared with concurrent readers"
	}
}

// applyCalls finds atomic Store/Swap/CompareAndSwap publications and
// delete() through tainted maps anywhere in the statement.
func (c *taintChecker) applyCalls(n ast.Node, st taintState, report bool) {
	ast.Inspect(n, func(x ast.Node) bool {
		if _, ok := x.(*ast.FuncLit); ok {
			return false
		}
		call, ok := x.(*ast.CallExpr)
		if !ok {
			return true
		}
		if name, _, ok := atomicMethod(c.pass.Info, call); ok {
			argIdx := -1
			switch name {
			case "Store", "Swap":
				argIdx = 0
			case "CompareAndSwap":
				argIdx = 1 // the new value
			}
			if argIdx >= 0 && argIdx < len(call.Args) {
				c.markPublished(call.Args[argIdx], st)
			}
			return true
		}
		if id, ok := call.Fun.(*ast.Ident); ok {
			if b, ok := c.pass.Info.Uses[id].(*types.Builtin); ok && b.Name() == "delete" && len(call.Args) == 2 {
				if report {
					if t := c.taintOf(call.Args[0], st); t != 0 {
						c.pass.Reportf(call.Pos(), "delete from %s, which %s: clone before mutating (copy-on-write)", exprKey(call.Args[0]), taintSource(t))
					}
				}
			}
		}
		return true
	})
}

// markPublished taints the variable behind a Store argument: Store(x)
// and Store(&x) both freeze x.
func (c *taintChecker) markPublished(arg ast.Expr, st taintState) {
	switch a := arg.(type) {
	case *ast.UnaryExpr:
		c.markPublished(a.X, st)
	case *ast.ParenExpr:
		c.markPublished(a.X, st)
	case *ast.Ident:
		if v, ok := c.pass.Info.Uses[a].(*types.Var); ok {
			st[v] |= taintPublished
		}
	}
}

// taintOf computes the taint of an expression under the current state.
func (c *taintChecker) taintOf(e ast.Expr, st taintState) int {
	switch e := e.(type) {
	case *ast.Ident:
		if v, ok := c.pass.Info.Uses[e].(*types.Var); ok {
			return st[v]
		}
	case *ast.ParenExpr:
		return c.taintOf(e.X, st)
	case *ast.UnaryExpr:
		return c.taintOf(e.X, st) // &x aliases x
	case *ast.StarExpr:
		if isRefType(c.pass.Info.TypeOf(e)) {
			return c.taintOf(e.X, st)
		}
	case *ast.IndexExpr:
		if isRefType(c.pass.Info.TypeOf(e)) {
			return c.taintOf(e.X, st)
		}
	case *ast.SelectorExpr:
		if sel, ok := c.pass.Info.Selections[e]; ok && sel.Kind() != types.FieldVal {
			return 0 // method value, not a field
		}
		if isRefType(c.pass.Info.TypeOf(e)) {
			return c.taintOf(e.X, st)
		}
	case *ast.TypeAssertExpr:
		if e.Type != nil && isRefType(c.pass.Info.TypeOf(e)) {
			return c.taintOf(e.X, st)
		}
	case *ast.SliceExpr:
		return c.taintOf(e.X, st) // a slice reslices the same array
	case *ast.CallExpr:
		if name, _, ok := atomicMethod(c.pass.Info, e); ok && name == "Load" {
			// Unconditional: even a Load returning interface{} (atomic.Value)
			// aliases the stored value; scalar taints die at the next
			// assignment anyway (non-ref strong update).
			return taintSnapshot
		}
		if id, ok := e.Fun.(*ast.Ident); ok {
			if b, ok := c.pass.Info.Uses[id].(*types.Builtin); ok && b.Name() == "append" && len(e.Args) > 0 {
				// append may return the same backing array.
				return c.taintOf(e.Args[0], st)
			}
		}
	}
	return 0
}
