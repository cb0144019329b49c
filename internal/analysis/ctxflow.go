// The ctxflow rule: context.Context must actually flow. PR 7's
// degradation ladder (index → scan → 503) only works because every
// compute loop polls its context — a single loop that ignores ctx
// turns a canceled request into a worker pinned for the full scan, and
// a single function that drops ctx on the floor severs cancellation
// for everything downstream of it. These are not crashes; nothing
// fails until the service is saturated by requests that no longer
// honor their deadlines.
//
// Seven checks, all within the serving/compute packages:
//
//  1. a blank context parameter (_ context.Context) — cancellation
//     stops propagating at that signature;
//  2. a named context parameter the body never mentions — same bug,
//     spelled differently;
//  3. calling context.Background()/context.TODO() inside a function
//     that already receives a ctx — detaching from the caller's
//     deadline (legitimate detachment, e.g. a background rebuild that
//     must outlive the request, takes a reasoned //lint:allow);
//  4. an unconditional for-loop (no condition) in a context-carrying
//     function whose body never mentions a context value — the loop
//     cannot be canceled;
//  5. a ForEach*-style space-iteration call in a context-carrying
//     function whose callback literal never mentions a context value —
//     the scan cannot be canceled (the ctxPollMask idiom in
//     internal/core is the approved shape);
//  6. calling Foo when a FooContext/FooCtx sibling exists (same
//     receiver or package, first parameter context.Context) while a
//     ctx is in scope — the caller is opting out of cancellation that
//     the callee already supports;
//  7. synchronously calling, while a live ctx is in scope, a module
//     function that takes no context anywhere in its signature and
//     whose summary (summary.go) says it may block on goroutine
//     coordination or run an unbounded scan loop — cancellation dies
//     at that call even when the chain sheds it frames down
//     (RiskTimelineContext polled its ctx between steps, then called a
//     context-free risk estimate that blocks on its trial workers).
//
// "Mentions a context value" is deliberately loose (any identifier of
// type context.Context): the rule wants to prove the loop CAN observe
// cancellation, not bit-verify the polling arithmetic — the chaos
// suite covers the latter. Checks 4–7 treat ctx as in scope when any
// enclosing function literal chain carries a context parameter or
// local.
//
// Check 7 follows the request path only. A go'd call runs off it
// (nakedgo polices goroutine lifecycle), and a go'd literal's ctx is
// live only when the literal declares one itself. Its message carries
// the summary's why-chain, so a two-frame-deep channel wait is named
// directly. Wrappers are flagged by construction: Foo() { FooContext(
// context.Background(), ...) } takes no ctx and inherits Blocks from
// FooContext's body. Callees with any ctx parameter are exempt (the
// caller may still pass the wrong one — check 3 covers that), as is
// blocking on mutexes or Cond.Wait, which the lock discipline bounds,
// not cancellation.
package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// Ctxflow is the seventh analyzer; see the package comment above.
var Ctxflow = &Analyzer{
	Name:        "ctxflow",
	Doc:         "context.Context must propagate: no dropped ctx params, no Background() under a live ctx, no unpollable loops, no ignoring FooContext variants, no context-free callee that may block or scan",
	Run:         runCtxflow,
	NeedsModule: true,
}

// ctxflowScope: the request path. Packages outside it (offline sweep,
// CLI, model fitting) may legitimately run to completion.
var ctxflowScope = []string{
	"internal/core",
	"internal/serving",
	"internal/api",
	"internal/schedule",
	"internal/snapshot",
	"internal/workqueue",
	"internal/localserver",
}

func runCtxflow(pass *Pass) {
	in := false
	for _, prefix := range ctxflowScope {
		if pathWithin(pass.Path, prefix) {
			in = true
			break
		}
	}
	if !in {
		return
	}
	c := &ctxChecker{pass: pass, module: modulePrefix(pass.Path)}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			c.visitFunc(fd.Type, fd.Body, false, false)
		}
	}
}

// modulePrefix recovers the module path from an import path like
// "repro/internal/core" so the FooContext-sibling check stays within
// this module (stdlib and fixture noise excluded).
func modulePrefix(path string) string {
	if i := strings.Index(path, "/internal/"); i >= 0 {
		return path[:i]
	}
	return path
}

type ctxChecker struct {
	pass   *Pass
	module string
}

// visitFunc checks one function (declaration or literal). inherited
// reports whether an enclosing function already carries a ctx, live
// whether that ctx is the request's (false below a go statement).
func (c *ctxChecker) visitFunc(ftype *ast.FuncType, body *ast.BlockStmt, inherited, live bool) {
	info := c.pass.Info
	var ctxParams []*types.Var
	if ftype.Params != nil {
		for _, field := range ftype.Params.List {
			for _, name := range field.Names {
				v, ok := info.Defs[name].(*types.Var)
				if !ok || !isContextType(v.Type()) {
					continue
				}
				if name.Name == "_" {
					c.pass.Reportf(name.Pos(), "context.Context parameter is discarded with _: cancellation stops propagating here")
					continue
				}
				ctxParams = append(ctxParams, v)
			}
		}
	}
	// Check 2: a named ctx parameter the body never uses.
	for _, v := range ctxParams {
		if !usesVar(info, body, v) {
			c.pass.Reportf(v.Pos(), "context.Context parameter %q is never used: pass it to callees or poll it in loops", v.Name())
		}
	}
	own := len(ctxParams) > 0 || declaresCtxLocal(info, body)
	hasCtx := inherited || own

	// walk covers a subtree; live reports whether check 7 applies there.
	var walk func(n ast.Node, live bool)
	walk = func(n ast.Node, live bool) {
		ast.Inspect(n, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncLit:
				c.visitFunc(n.Type, n.Body, hasCtx, live)
				return false
			case *ast.GoStmt:
				// A go'd call runs off the request path.
				walk(n.Call, false)
				return false
			case *ast.ForStmt:
				// Check 4: unconditional loop with ctx in scope but no poll.
				if n.Cond == nil && hasCtx && !mentionsCtx(info, n.Body) {
					c.pass.Reportf(n.Pos(), "unbounded for-loop in a context-carrying function never polls ctx: add a ctx.Err() check or bound the loop")
				}
			case *ast.CallExpr:
				c.checkCall(n, hasCtx, len(ctxParams) > 0 || inherited)
				if live {
					c.checkCallee(n)
				}
			}
			return true
		})
	}
	walk(body, live || own)
}

func (c *ctxChecker) checkCall(call *ast.CallExpr, hasCtx, hasCtxParam bool) {
	info := c.pass.Info
	// Check 3: context.Background()/TODO() under a live caller ctx.
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if path, ok := pkgSelector(info, sel); ok && path == "context" &&
			(sel.Sel.Name == "Background" || sel.Sel.Name == "TODO") && hasCtxParam {
			c.pass.Reportf(call.Pos(), "context.%s() called while a caller context is in scope: derive from the caller's ctx so cancellation propagates", sel.Sel.Name)
			return
		}
	}
	if !hasCtx {
		return
	}
	// Check 5: space-iteration callbacks must be able to observe ctx.
	if name := calleeName(call); strings.HasPrefix(name, "ForEach") {
		for _, arg := range call.Args {
			if lit, ok := arg.(*ast.FuncLit); ok && !mentionsCtx(info, lit.Body) {
				c.pass.Reportf(call.Pos(), "%s callback in a context-carrying function never polls ctx: use the ctxPollMask idiom so the scan can be canceled", name)
			}
		}
	}
	// Check 6: a FooContext/FooCtx sibling exists but Foo was called.
	c.checkContextSibling(call)
}

// checkContextSibling flags calls to Foo when the same receiver or
// package exports FooContext/FooCtx taking a context first — calling
// the ctx-blind variant severs cancellation the callee supports.
func (c *ctxChecker) checkContextSibling(call *ast.CallExpr) {
	info := c.pass.Info
	var fn *types.Func
	var lookup func(name string) types.Object
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		f, ok := info.Uses[fun].(*types.Func)
		if !ok || f.Pkg() == nil {
			return
		}
		fn = f
		scope := f.Pkg().Scope()
		lookup = func(name string) types.Object { return scope.Lookup(name) }
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			f, ok := sel.Obj().(*types.Func)
			if !ok || f.Pkg() == nil {
				return
			}
			fn = f
			recv := sel.Recv()
			pkg := f.Pkg()
			lookup = func(name string) types.Object {
				obj, _, _ := types.LookupFieldOrMethod(recv, true, pkg, name)
				return obj
			}
		} else if path, ok := pkgSelector(info, fun); ok {
			f, ok := info.Uses[fun.Sel].(*types.Func)
			if !ok || f.Pkg() == nil || f.Pkg().Path() != path {
				return
			}
			fn = f
			scope := f.Pkg().Scope()
			lookup = func(name string) types.Object { return scope.Lookup(name) }
		} else {
			return
		}
	default:
		return
	}
	// Stay within this module, and skip functions that already take a
	// ctx anywhere in their signature.
	if !strings.HasPrefix(fn.Pkg().Path(), c.module) {
		return
	}
	if sig, ok := fn.Type().(*types.Signature); ok {
		for i := 0; i < sig.Params().Len(); i++ {
			if isContextType(sig.Params().At(i).Type()) {
				return
			}
		}
	}
	name := fn.Name()
	if strings.HasSuffix(name, "Context") || strings.HasSuffix(name, "Ctx") {
		return
	}
	for _, suffix := range []string{"Context", "Ctx"} {
		obj := lookup(name + suffix)
		sib, ok := obj.(*types.Func)
		if !ok {
			continue
		}
		sig, ok := sib.Type().(*types.Signature)
		if !ok || sig.Params().Len() == 0 || !isContextType(sig.Params().At(0).Type()) {
			continue
		}
		c.pass.Reportf(call.Pos(), "%s called with a ctx in scope but %s%s exists: call the context-aware variant", name, name, suffix)
		return
	}
}

// checkCallee is check 7: a call into a context-free module function
// whose summary may block or scan.
func (c *ctxChecker) checkCallee(call *ast.CallExpr) {
	callees, _ := c.pass.Module.ResolveCall(c.pass.Info, call)
	for _, callee := range callees {
		sum := c.pass.Module.SummaryOf(callee)
		if sum == nil || sum.HasCtxParam {
			continue
		}
		var verb, why string
		switch {
		case sum.Blocks:
			verb, why = "block", sum.BlocksWhy
		case sum.Scans:
			verb, why = "scan", sum.ScansWhy
		default:
			continue
		}
		c.pass.Reportf(call.Pos(), "%s may %s (%s) but takes no context: cancellation from this frame's live ctx stops here — add a Context-taking variant and thread ctx through", calleeDisplay(callee), verb, why)
		return
	}
}

// calleeName returns the bare called name: Foo for both foo.Foo(...)
// and x.Foo(...).
func calleeName(call *ast.CallExpr) string {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	}
	return ""
}

// usesVar reports whether the body references the variable.
func usesVar(info *types.Info, body *ast.BlockStmt, v *types.Var) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		if id, ok := n.(*ast.Ident); ok && info.Uses[id] == v {
			found = true
		}
		return true
	})
	return found
}

// declaresCtxLocal reports whether the body defines any variable of
// type context.Context (ctx, cancel := context.WithTimeout(...)).
func declaresCtxLocal(info *types.Info, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if id, ok := n.(*ast.Ident); ok {
			if v, ok := info.Defs[id].(*types.Var); ok && isContextType(v.Type()) {
				found = true
			}
		}
		return true
	})
	return found
}

// mentionsCtx reports whether the subtree references any value of type
// context.Context — the loose "this loop can observe cancellation"
// test used by checks 4 and 5.
func mentionsCtx(info *types.Info, n ast.Node) bool {
	found := false
	ast.Inspect(n, func(x ast.Node) bool {
		if found {
			return false
		}
		if id, ok := x.(*ast.Ident); ok {
			obj := info.Uses[id]
			if obj == nil {
				obj = info.Defs[id]
			}
			if v, ok := obj.(*types.Var); ok && isContextType(v.Type()) {
				found = true
			}
		}
		return true
	})
	return found
}
