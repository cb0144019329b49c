// Helpers shared by the flow-sensitive rules (ctxflow, atomicpub,
// lockdiscipline): function-body enumeration, expression identity
// keys, and the small type queries the three rules all need.
package analysis

import (
	"go/ast"
	"go/types"
)

// forEachFuncBody calls fn once for every function body in the
// package: each declared function/method and each function literal.
// Literals get their own visit (and their own CFG) — the CFG builder
// treats a nested FuncLit as an opaque value, so analyzing each body
// separately covers the whole tree exactly once.
func forEachFuncBody(pass *Pass, fn func(body *ast.BlockStmt)) {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					fn(n.Body)
				}
			case *ast.FuncLit:
				fn(n.Body)
			}
			return true
		})
	}
}

// exprKey renders an expression as a stable identity string within one
// function: "f.mu", "(*p).idx", "m[...]". Used as the lock identity in
// lockdiscipline; two syntactically identical receiver expressions in
// one function denote the same lock for this analysis.
func exprKey(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprKey(e.X) + "." + e.Sel.Name
	case *ast.StarExpr:
		return "*" + exprKey(e.X)
	case *ast.ParenExpr:
		return "(" + exprKey(e.X) + ")"
	case *ast.IndexExpr:
		return exprKey(e.X) + "[...]"
	case *ast.CallExpr:
		return exprKey(e.Fun) + "()"
	case *ast.TypeAssertExpr:
		return exprKey(e.X) + ".(type)"
	}
	return "?"
}

// methodRecvName returns the bare name of a method's declared receiver
// type — *sync.RWMutex → "RWMutex" — so promoted methods of embedded
// fields classify by where the method really lives, not by the outer
// struct the selection went through.
func methodRecvName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	return namedTypeName(sig.Recv().Type())
}

// namedTypeName unwraps pointers and reports the named type's bare
// name, or "" for unnamed types.
func namedTypeName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}

// isContextType reports whether t is exactly context.Context.
func isContextType(t types.Type) bool {
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}

// isRefType reports whether values of t share underlying storage when
// copied: maps, slices, pointers, and channels. Taint in atomicpub
// propagates only through these — copying a struct or scalar detaches
// it from the published value.
func isRefType(t types.Type) bool {
	if t == nil {
		return false
	}
	switch t.Underlying().(type) {
	case *types.Map, *types.Slice, *types.Pointer, *types.Chan:
		return true
	}
	return false
}

// atomicMethod recognizes a method call on a sync/atomic type and
// returns (method name, receiver expression). Covers atomic.Pointer[T],
// atomic.Value, and the scalar wrappers.
func atomicMethod(info *types.Info, call *ast.CallExpr) (name string, recv ast.Expr, ok bool) {
	fun, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", nil, false
	}
	sel, isMethod := info.Selections[fun]
	if !isMethod {
		return "", nil, false
	}
	fn, isFunc := sel.Obj().(*types.Func)
	if !isFunc || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" {
		return "", nil, false
	}
	return fn.Name(), fun.X, true
}
