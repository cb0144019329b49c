// Per-function summaries, computed bottom-up over the call graph's
// SCCs (callgraph.go) with a fixpoint for recursion. A summary is a
// monotone over-approximation of one function's externally visible
// effects:
//
//   - Blocks: whether the function may park on goroutine coordination —
//     channel send/receive/range, select without default,
//     WaitGroup.Wait, time.Sleep — directly or through a synchronous
//     callee. Mutexes are excluded (bounded critical sections), as is
//     Cond.Wait (requires the lock by contract) and Once.Do's gate.
//   - Scans: whether the function may run an unbounded (condition-less)
//     loop. Together with Blocks this is ctxflow's "needs a live
//     context" signal.
//   - Acquires: locks the function may acquire, rooted at a parameter /
//     the receiver where possible so call sites can re-root them
//     ("callee locks recv.mu" + call on f → "f.mu"). lockdiscipline
//     compares these against the caller's held set.
//
// Function literals are attributed to their enclosing function when
// they plainly run on its path — immediately invoked, deferred, or
// passed as a call argument (the synchronous-callback assumption that
// matches ForEach*, sync.Once.Do, and the serving compute closures).
// Literals that are go'd, stored, or returned contribute nothing: they
// do not run on the enclosing function's path.
//
// Soundness direction: Blocks/Scans over-approximate, so ctxflow and
// lockdiscipline may over-flag in principle — the //lint:allow escape
// hatch with a mandatory reason is the pressure valve.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"sync/atomic"
)

// maxSummaryFixpoint bounds per-SCC iteration; the lattice is finite so
// this should never bind, but the fuzzer gets a guarantee.
const maxSummaryFixpoint = 20

// joinPath concatenates dotted path segments, skipping empties.
func joinPath(a, b string) string {
	switch {
	case a == "":
		return b
	case b == "":
		return a
	}
	return a + "." + b
}

// RecvRoot is the LockRef root index denoting the receiver;
// non-negative roots are parameter indices.
const RecvRoot = -1

// lockRootFree marks a LockRef not rooted at any parameter: a local,
// package-level, or otherwise unmappable mutex. Its Path is the raw
// exprKey and only matches a caller's held lock by exact text (which is
// right for package-level mutexes referenced by the same name).
const lockRootFree = -2

// A LockRef is one mutex a function may acquire, re-rootable at call
// sites via Root.
type LockRef struct {
	Root int    // parameter index, RecvRoot, or lockRootFree
	Path string // selector path below the root ("mu"), or the raw key for lockRootFree
	Read bool   // RLock rather than Lock
}

func (l LockRef) String() string {
	root := "free"
	switch {
	case l.Root == RecvRoot:
		root = "recv"
	case l.Root >= 0:
		root = fmt.Sprintf("p%d", l.Root)
	}
	op := "Lock"
	if l.Read {
		op = "RLock"
	}
	return fmt.Sprintf("%s(%s.%s)", op, root, l.Path)
}

// Summary is one function's effect summary. Fields only ever grow
// during the fixpoint (monotone).
type Summary struct {
	Fn *types.Func
	// HasCtxParam: any parameter is context.Context — the callee can be
	// canceled, so ctxflow holds its callers to a different standard.
	HasCtxParam bool
	// Blocks: may park waiting on an external event — channel send /
	// receive / range, select without default, time.Sleep. These are the
	// waits cancellation exists for.
	Blocks    bool
	BlocksWhy string // first-found reason, with a call chain when transitive
	// Joins: may park on a bounded internal join (WaitGroup.Wait over
	// workers the function itself spawned). Completes without external
	// events, so ctxflow ignores it, but it still parks the goroutine
	// — lockdiscipline treats it like any other block.
	Joins    bool
	JoinsWhy string
	Scans    bool
	ScansWhy string
	Acquires []LockRef
}

func (s *Summary) addLock(ref LockRef) {
	for _, have := range s.Acquires {
		if have == ref {
			return
		}
	}
	s.Acquires = append(s.Acquires, ref)
}

func (s *Summary) setBlocks(why string) {
	if !s.Blocks {
		s.Blocks = true
		s.BlocksWhy = why
	}
}

func (s *Summary) setJoins(why string) {
	if !s.Joins {
		s.Joins = true
		s.JoinsWhy = why
	}
}

func (s *Summary) setScans(why string) {
	if !s.Scans {
		s.Scans = true
		s.ScansWhy = why
	}
}

// equal compares the monotone content (why-strings excluded: they are
// commentary, and first-found order could differ between passes).
func (s *Summary) equal(o *Summary) bool {
	if s.Blocks != o.Blocks || s.Joins != o.Joins || s.Scans != o.Scans || s.HasCtxParam != o.HasCtxParam {
		return false
	}
	if len(s.Acquires) != len(o.Acquires) {
		return false
	}
	for i := range s.Acquires {
		if s.Acquires[i] != o.Acquires[i] {
			return false
		}
	}
	return true
}

// Dump renders the summary deterministically (pinned by tests and the
// fuzzer's stability check).
func (s *Summary) Dump() string {
	var sb strings.Builder
	sb.WriteString(s.Fn.FullName())
	if s.HasCtxParam {
		sb.WriteString(" ctx")
	}
	if s.Blocks {
		sb.WriteString(" blocks")
	}
	if s.Joins {
		sb.WriteString(" joins")
	}
	if s.Scans {
		sb.WriteString(" scans")
	}
	refs := append([]LockRef(nil), s.Acquires...)
	sort.Slice(refs, func(i, j int) bool {
		if refs[i].Root != refs[j].Root {
			return refs[i].Root < refs[j].Root
		}
		if refs[i].Path != refs[j].Path {
			return refs[i].Path < refs[j].Path
		}
		return !refs[i].Read && refs[j].Read
	})
	for _, r := range refs {
		sb.WriteString(" ")
		sb.WriteString(r.String())
	}
	return sb.String()
}

// SummaryOf returns the summary for a module function, or nil for
// anything outside the module (callers must then assume the worst).
func (m *Module) SummaryOf(fn *types.Func) *Summary {
	s, ok := m.summaries[fn]
	if !ok {
		return nil
	}
	atomic.AddInt64(&m.lookups, 1)
	return s
}

// Stats returns the module statistics including the lookup counter.
func (m *Module) Stats() ModuleStats {
	st := m.stats
	st.Lookups = atomic.LoadInt64(&m.lookups)
	return st
}

// DumpSummaries renders every summary, sorted — the fuzzer's stability
// oracle and a debugging aid.
func (m *Module) DumpSummaries() string {
	lines := make([]string, 0, len(m.summaries))
	for _, s := range m.summaries {
		lines = append(lines, s.Dump())
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// computeSummaries walks SCCs bottom-up; within an SCC it iterates to a
// fixpoint (summaries are monotone and the lattice is finite).
func (m *Module) computeSummaries() {
	for fn := range m.Funcs {
		m.summaries[fn] = &Summary{Fn: fn}
	}
	for _, scc := range m.sccs {
		for iter := 0; iter < maxSummaryFixpoint; iter++ {
			changed := false
			for _, fn := range scc {
				next := m.summarize(fn)
				if !next.equal(m.summaries[fn]) {
					changed = true
				}
				m.summaries[fn] = next
			}
			if !changed {
				break
			}
			if iter > 0 {
				m.stats.FixpointIters++
			}
			if len(scc) == 1 && !selfRecursive(m, scc[0]) {
				break // one extra pass can only repeat itself
			}
		}
	}
}

func selfRecursive(m *Module, fn *types.Func) bool {
	for _, c := range m.Funcs[fn].Callees {
		if c == fn {
			return true
		}
	}
	return false
}

// summarize computes one function's summary from its body and the
// current summaries of its callees.
func (m *Module) summarize(fn *types.Func) *Summary {
	fi := m.Funcs[fn]
	s := &Summary{Fn: fn}
	w := &effectWalker{
		m:    m,
		pkg:  fi.Pkg,
		out:  s,
		vars: map[*types.Var]int{},
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig != nil {
		for i := 0; i < sig.Params().Len(); i++ {
			if isContextType(sig.Params().At(i).Type()) {
				s.HasCtxParam = true
			}
		}
	}
	if fi.Decl.Recv != nil && len(fi.Decl.Recv.List) > 0 {
		for _, name := range fi.Decl.Recv.List[0].Names {
			if v, ok := fi.Pkg.Info.Defs[name].(*types.Var); ok {
				w.vars[v] = RecvRoot
			}
		}
	}
	if fi.Decl.Type.Params != nil {
		idx := 0
		for _, field := range fi.Decl.Type.Params.List {
			if len(field.Names) == 0 {
				idx++
				continue
			}
			for _, name := range field.Names {
				if v, ok := fi.Pkg.Info.Defs[name].(*types.Var); ok {
					w.vars[v] = idx
				}
				idx++
			}
		}
	}
	w.stmtList(fi.Decl.Body.List)
	return s
}

// loopEscapes reports whether a loop body contains any return, break,
// or goto (nested function literals excluded) — an escape hatch that
// makes the loop conditionally bounded. A condition-less loop without
// one can only ever leave by panicking, which is the "scan forever"
// shape ctxflow's check 7 exists for; CAS retry loops and search loops
// all carry a return.
func loopEscapes(body *ast.BlockStmt) bool {
	escapes := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ReturnStmt:
			escapes = true
		case *ast.BranchStmt:
			if n.Tok == token.BREAK || n.Tok == token.GOTO {
				escapes = true
			}
		}
		return !escapes
	})
	return escapes
}

// effectWalker accumulates one body's effects into out. vars maps each
// parameter and the receiver to its root index, so locks acquired
// through them can be re-rooted at call sites.
type effectWalker struct {
	m    *Module
	pkg  *CheckedPackage
	out  *Summary
	vars map[*types.Var]int
}

func (w *effectWalker) info() *types.Info { return w.pkg.Info }

// chain resolves an expression to (root, dotted field path) when it is
// an unbroken value/field selector chain from a parameter or the
// receiver.
func (w *effectWalker) chain(e ast.Expr) (int, string, bool) {
	switch e := e.(type) {
	case *ast.Ident:
		if v, ok := w.info().ObjectOf(e).(*types.Var); ok {
			root, ok := w.vars[v]
			return root, "", ok
		}
	case *ast.ParenExpr:
		return w.chain(e.X)
	case *ast.StarExpr:
		return w.chain(e.X)
	case *ast.SelectorExpr:
		sel, ok := w.info().Selections[e]
		if !ok || sel.Kind() != types.FieldVal {
			return 0, "", false
		}
		root, path, ok := w.chain(e.X)
		if !ok {
			return 0, "", false
		}
		return root, joinPath(path, e.Sel.Name), true
	}
	return 0, "", false
}

func (w *effectWalker) stmtList(list []ast.Stmt) {
	for _, s := range list {
		w.stmt(s)
	}
}

func (w *effectWalker) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case nil:
	case *ast.BlockStmt:
		w.stmtList(s.List)
	case *ast.ExprStmt:
		w.expr(s.X)
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			w.expr(e)
		}
		for _, e := range s.Lhs {
			if id, ok := e.(*ast.Ident); ok {
				if w.info().Defs[id] != nil {
					continue // fresh declaration, not a read
				}
			}
			w.expr(e)
		}
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						w.expr(v)
					}
				}
			}
		}
	case *ast.SendStmt:
		w.out.setBlocks("channel send" + w.at(s.Arrow))
		w.expr(s.Chan)
		w.expr(s.Value)
	case *ast.IncDecStmt:
		w.expr(s.X)
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			w.expr(e)
		}
	case *ast.IfStmt:
		w.stmt(s.Init)
		w.expr(s.Cond)
		w.stmt(s.Body)
		w.stmt(s.Else)
	case *ast.ForStmt:
		if s.Cond == nil && !loopEscapes(s.Body) {
			w.out.setScans("condition-less for loop with no escape" + w.at(s.Pos()))
		}
		w.stmt(s.Init)
		if s.Cond != nil {
			w.expr(s.Cond)
		}
		w.stmt(s.Post)
		w.stmt(s.Body)
	case *ast.RangeStmt:
		if t := w.info().TypeOf(s.X); t != nil {
			if _, isChan := t.Underlying().(*types.Chan); isChan {
				w.out.setBlocks("range over a channel" + w.at(s.Pos()))
			}
		}
		w.expr(s.X)
		w.stmt(s.Body)
	case *ast.SwitchStmt:
		w.stmt(s.Init)
		if s.Tag != nil {
			w.expr(s.Tag)
		}
		w.stmt(s.Body)
	case *ast.TypeSwitchStmt:
		w.stmt(s.Init)
		w.stmt(s.Assign)
		w.stmt(s.Body)
	case *ast.CaseClause:
		for _, e := range s.List {
			w.expr(e)
		}
		w.stmtList(s.Body)
	case *ast.SelectStmt:
		hasDefault := false
		for _, cc := range s.Body.List {
			if comm, ok := cc.(*ast.CommClause); ok && comm.Comm == nil {
				hasDefault = true
			}
		}
		if !hasDefault {
			w.out.setBlocks("select without default" + w.at(s.Pos()))
		}
		w.stmt(s.Body)
	case *ast.CommClause:
		w.stmt(s.Comm)
		w.stmtList(s.Body)
	case *ast.GoStmt:
		// The goroutine's effects are not this function's path; only
		// its arguments are evaluated here.
		w.call(s.Call, true)
	case *ast.DeferStmt:
		// Deferred calls run before this function returns: full effects.
		w.call(s.Call, false)
	case *ast.LabeledStmt:
		w.stmt(s.Stmt)
	case *ast.BranchStmt, *ast.EmptyStmt:
	default:
		// Anything else: walk generically for contained expressions.
		ast.Inspect(s, func(n ast.Node) bool {
			if e, ok := n.(ast.Expr); ok {
				w.expr(e)
				return false
			}
			return true
		})
	}
}

// at renders a short position suffix for why-strings.
func (w *effectWalker) at(pos token.Pos) string {
	if w.pkg.Fset == nil || !pos.IsValid() {
		return ""
	}
	p := w.pkg.Fset.Position(pos)
	return fmt.Sprintf(" (%s:%d)", trimPath(p.Filename), p.Line)
}

// trimPath keeps the last two path segments — enough to find the file,
// short enough for one-line messages.
func trimPath(file string) string {
	parts := strings.Split(file, "/")
	if len(parts) <= 2 {
		return file
	}
	return strings.Join(parts[len(parts)-2:], "/")
}

func (w *effectWalker) expr(e ast.Expr) {
	switch e := e.(type) {
	case nil:
	case *ast.SelectorExpr:
		w.expr(e.X)
	case *ast.CallExpr:
		w.call(e, false)
	case *ast.FuncLit:
		// Reached only for stored/returned literals (call arguments and
		// go/defer are intercepted): their effects don't run here.
	case *ast.UnaryExpr:
		if e.Op == token.ARROW {
			w.out.setBlocks("channel receive" + w.at(e.Pos()))
		}
		w.expr(e.X)
	case *ast.BinaryExpr:
		w.expr(e.X)
		w.expr(e.Y)
	case *ast.ParenExpr:
		w.expr(e.X)
	case *ast.StarExpr:
		w.expr(e.X)
	case *ast.IndexExpr:
		w.expr(e.X)
		w.expr(e.Index)
	case *ast.IndexListExpr:
		w.expr(e.X)
	case *ast.SliceExpr:
		w.expr(e.X)
		w.expr(e.Low)
		w.expr(e.High)
		w.expr(e.Max)
	case *ast.TypeAssertExpr:
		w.expr(e.X)
	case *ast.CompositeLit:
		for _, el := range e.Elts {
			w.expr(el)
		}
	case *ast.KeyValueExpr:
		w.expr(e.Key)
		w.expr(e.Value)
	}
}

// call handles one call expression. async marks go'd calls: the
// receiver and arguments are evaluated here, but the callee's effects
// do not run on this path.
func (w *effectWalker) call(call *ast.CallExpr, async bool) {
	info := w.info()
	fun := ast.Unparen(call.Fun)

	// Immediately invoked literal: the body runs right here.
	if lit, ok := fun.(*ast.FuncLit); ok {
		if !async {
			w.stmtList(lit.Body.List)
		}
		for _, arg := range call.Args {
			w.expr(arg)
		}
		return
	}

	// Builtins and conversions: arguments are ordinary expressions.
	if id, ok := fun.(*ast.Ident); ok {
		if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
			for _, arg := range call.Args {
				w.expr(arg)
			}
			return
		}
	}
	if tv, ok := info.Types[fun]; ok && tv.IsType() {
		for _, arg := range call.Args {
			w.expr(arg)
		}
		return
	}

	// Well-known stdlib blockers.
	if !async {
		w.classifyStdlibCall(call, fun)
	}

	if sel, ok := fun.(*ast.SelectorExpr); ok {
		w.expr(sel.X)
	}
	for _, arg := range call.Args {
		if lit, ok := arg.(*ast.FuncLit); ok {
			// Synchronous-callback assumption: the literal runs on this
			// path (ForEach*, Once.Do, serving compute closures).
			if !async {
				w.stmtList(lit.Body.List)
			}
			continue
		}
		w.expr(arg)
	}

	if async {
		return
	}

	// Lock acquisition on the receiver chain (sync.Mutex / RWMutex).
	w.lockAcquire(call, fun)

	// Transitive effects from module callees.
	callees, _ := w.m.ResolveCall(info, call)
	for _, c := range callees {
		s := w.m.SummaryOf(c)
		if s == nil {
			continue
		}
		if s.Blocks && !w.out.Blocks {
			w.out.setBlocks(fmt.Sprintf("calls %s%s, which may block: %s", calleeDisplay(c), w.at(call.Pos()), s.BlocksWhy))
		}
		if s.Joins && !w.out.Joins {
			w.out.setJoins(fmt.Sprintf("calls %s%s, which joins workers: %s", calleeDisplay(c), w.at(call.Pos()), s.JoinsWhy))
		}
		if s.Scans && !w.out.Scans {
			w.out.setScans(fmt.Sprintf("calls %s%s, which may scan: %s", calleeDisplay(c), w.at(call.Pos()), s.ScansWhy))
		}
		for _, ref := range s.Acquires {
			w.out.addLock(w.rerootLock(ref, call, fun))
		}
	}
}

// classifyStdlibCall records blocking stdlib calls: WaitGroup.Wait and
// time.Sleep. Cond.Wait and Once.Do are deliberately exempt (see the
// package comment).
func (w *effectWalker) classifyStdlibCall(call *ast.CallExpr, fun ast.Expr) {
	sel, ok := fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	info := w.info()
	if msel, isSel := info.Selections[sel]; isSel {
		if fn, ok := msel.Obj().(*types.Func); ok && fn.Pkg() != nil && fn.Pkg().Path() == "sync" {
			if fn.Name() == "Wait" && methodRecvName(fn) == "WaitGroup" {
				w.out.setJoins("WaitGroup.Wait" + w.at(call.Pos()))
			}
		}
		return
	}
	if path, ok := pkgSelector(info, sel); ok && path == "time" && sel.Sel.Name == "Sleep" {
		w.out.setBlocks("time.Sleep" + w.at(call.Pos()))
	}
}

// lockAcquire records Lock/RLock calls, rooted at a parameter or the
// receiver when the mutex lives under one.
func (w *effectWalker) lockAcquire(call *ast.CallExpr, fun ast.Expr) {
	sel, ok := fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	msel, ok := w.info().Selections[sel]
	if !ok {
		return
	}
	fn, ok := msel.Obj().(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return
	}
	recv := methodRecvName(fn)
	if recv != "Mutex" && recv != "RWMutex" {
		return
	}
	var read bool
	switch fn.Name() {
	case "Lock":
	case "RLock":
		read = true
	default:
		return
	}
	if root, path, rooted := w.chain(sel.X); rooted {
		w.out.addLock(LockRef{Root: root, Path: path, Read: read})
		return
	}
	w.out.addLock(LockRef{Root: lockRootFree, Path: exprKey(sel.X), Read: read})
}

// rerootLock maps a callee's LockRef into this caller's frame via the
// call's receiver/arguments. Unmappable refs degrade to lockRootFree
// with a best-effort textual key.
func (w *effectWalker) rerootLock(ref LockRef, call *ast.CallExpr, fun ast.Expr) LockRef {
	var base ast.Expr
	switch {
	case ref.Root == lockRootFree:
		return ref
	case ref.Root == RecvRoot:
		if sel, ok := fun.(*ast.SelectorExpr); ok {
			if _, isSel := w.info().Selections[sel]; isSel {
				base = sel.X
			}
		}
	case ref.Root >= 0 && ref.Root < len(call.Args):
		base = call.Args[ref.Root]
	}
	if base == nil {
		return LockRef{Root: lockRootFree, Path: ref.Path, Read: ref.Read}
	}
	if root, path, rooted := w.chain(base); rooted {
		return LockRef{Root: root, Path: joinPath(path, ref.Path), Read: ref.Read}
	}
	return LockRef{Root: lockRootFree, Path: joinPath(exprKey(base), ref.Path), Read: ref.Read}
}

// calleeDisplay renders a callee for messages: pkg.Func, (pkg.Type).Method
// or (*pkg.Type).Method, with the module path before internal/ dropped.
func calleeDisplay(fn *types.Func) string {
	name := fn.FullName()
	if i := strings.Index(name, "/internal/"); i >= 0 {
		mod := strings.TrimLeft(name[:i], "(*")
		name = name[:i-len(mod)] + name[i+len("/internal/"):]
	}
	return name
}
