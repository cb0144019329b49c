package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// cfgSource wraps a function body in a one-function file.
func cfgSource(body string) string {
	return "package p\n\nfunc f() {\n" + body + "\n}\n"
}

// cfgOf builds the CFG of a function whose body is the given source
// text. Construction is purely syntactic, so undefined identifiers are
// fine — no type checking happens here.
func cfgOf(t *testing.T, body string) *CFG {
	t.Helper()
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "f.go", cfgSource(body), parser.SkipObjectResolution)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return BuildCFG(file.Decls[0].(*ast.FuncDecl).Body)
}

// expectDump pins the exact shape of a graph: block membership, tags,
// and edges all at once, in the renumbered reachable order Dump uses.
func expectDump(t *testing.T, g *CFG, want string) {
	t.Helper()
	if got := g.Dump(nil); got != strings.TrimLeft(want, "\n") {
		t.Errorf("CFG mismatch:\n got:\n%s want:\n%s", got, strings.TrimLeft(want, "\n"))
	}
}

const cfgIfElseMerge = `
	x := 1
	if x > 0 {
		x = 2
	} else {
		x = 3
	}
	x = 4
	return`

func TestCFGIfElseMerge(t *testing.T) {
	g := cfgOf(t, cfgIfElseMerge)
	expectDump(t, g, `
b0 entry: assign, cond -> b3 b4
b1 exit:
b2: assign, return -> b1
b3: assign -> b2
b4: assign -> b2
`)
}

const cfgForLoop = `
	for i := 0; i < 3; i++ {
		work()
	}`

func TestCFGForLoop(t *testing.T) {
	// Full three-clause for: init in the predecessor, cond in the
	// header with a false-edge to after, post on the back-edge.
	g := cfgOf(t, cfgForLoop)
	expectDump(t, g, `
b0 entry: assign -> b2
b1 exit:
b2: cond -> b3 b5
b3: -> b1
b4: incdec -> b2
b5: call -> b4
`)
}

const cfgInfiniteFor = `
	for {
		work()
	}`

func TestCFGInfiniteForHasNoExit(t *testing.T) {
	// for {} with no break: the after-block (and so Exit) must be
	// unreachable — this is exactly what ctxflow's unbounded-loop check
	// leans on.
	g := cfgOf(t, cfgInfiniteFor)
	dump := g.Dump(nil)
	if strings.Contains(dump, "exit") {
		t.Errorf("infinite loop must not reach exit:\n%s", dump)
	}
	expectDump(t, g, `
b0 entry: -> b1
b1: -> b2
b2: call -> b1
`)
}

const cfgRangeBackEdge = `
	for _, v := range xs {
		use(v)
	}
	return`

func TestCFGRangeBackEdge(t *testing.T) {
	// The range clause itself sits in the header; the body loops back
	// to it and the exhausted edge leaves it.
	g := cfgOf(t, cfgRangeBackEdge)
	expectDump(t, g, `
b0 entry: -> b2
b1 exit:
b2: range -> b3 b4
b3: return -> b1
b4: call -> b2
`)
}

const cfgLabeledBreak = `
loop:
	for i := 0; i < 10; i++ {
		if p() {
			break loop
		}
		work()
	}
	rest()`

func TestCFGLabeledBreak(t *testing.T) {
	g := cfgOf(t, cfgLabeledBreak)
	expectDump(t, g, `
b0 entry: -> b2
b1 exit:
b2: assign -> b3
b3: cond -> b4 b6
b4: call -> b1
b5: incdec -> b3
b6: cond -> b7 b8
b7: call -> b5
b8: -> b4
`)
}

const cfgSwitchFallthrough = `
	switch x() {
	case 1:
		a()
		fallthrough
	case 2:
		b()
	default:
		c()
	}`

func TestCFGSwitchFallthrough(t *testing.T) {
	// Each clause hangs off the header; fallthrough chains clause 1's
	// body into clause 2's; with a default there is no header→after
	// edge.
	g := cfgOf(t, cfgSwitchFallthrough)
	expectDump(t, g, `
b0 entry: cond -> b3 b4 b5
b1 exit:
b2: -> b1
b3: call -> b4
b4: call -> b2
b5: call -> b2
`)
}

const cfgSelect = `
	select {
	case v := <-ch:
		use(v)
	case ch2 <- 1:
		work()
	default:
		idle()
	}`

func TestCFGSelect(t *testing.T) {
	g := cfgOf(t, cfgSelect)
	expectDump(t, g, `
b0 entry: -> b3 b4 b5
b1 exit:
b2: -> b1
b3: assign, call -> b2
b4: send, call -> b2
b5: call -> b2
`)
}

const cfgEmptySelect = `
	select {}
	work()`

func TestCFGEmptySelectBlocksForever(t *testing.T) {
	g := cfgOf(t, cfgEmptySelect)
	dump := g.Dump(nil)
	if strings.Contains(dump, "exit") || strings.Contains(dump, "call") {
		t.Errorf("select{} must strand everything after it:\n%s", dump)
	}
}

const cfgGotoForward = `
	if p() {
		goto done
	}
	work()
done:
	rest()`

func TestCFGGotoForward(t *testing.T) {
	g := cfgOf(t, cfgGotoForward)
	expectDump(t, g, `
b0 entry: cond -> b2 b3
b1 exit:
b2: call -> b4
b3: -> b4
b4: call -> b1
`)
}

const cfgDefer = `
	defer cleanup()
	work()
	return`

func TestCFGDeferStaysInBlock(t *testing.T) {
	// The builder does not model the deferred call's execution point;
	// defer is an ordinary in-block statement and rules decide what it
	// means.
	g := cfgOf(t, cfgDefer)
	expectDump(t, g, `
b0 entry: defer, call, return -> b1
b1 exit:
`)
}

const cfgExplicitPanic = `
	if cond() {
		panic("boom")
	}
	work()`

func TestCFGExplicitPanicEdge(t *testing.T) {
	// Only explicit panic(...) gets a distinguished exit; the statement
	// after it is dead.
	g := cfgOf(t, cfgExplicitPanic)
	expectDump(t, g, `
b0 entry: cond -> b2 b3
b1 exit:
b2: call -> b1
b3: panic -> b4
b4 panic:
`)
}

const cfgDeadCode = `
	return
	work()`

func TestCFGReachableSkipsDeadCode(t *testing.T) {
	g := cfgOf(t, cfgDeadCode)
	if n := len(g.Reachable()); n != 2 {
		t.Errorf("want 2 reachable blocks (entry, exit), got %d:\n%s", n, g.Dump(nil))
	}
}

// TestCFGDumpGoldenFixture pins the dump of a real fixture function
// (lockdiscipline_bad.Get) so graph-shape regressions are separable
// from rule regressions when a fixture test starts failing.
func TestCFGDumpGoldenFixture(t *testing.T) {
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "testdata/lockdiscipline_bad/bad.go", nil, parser.SkipObjectResolution)
	if err != nil {
		t.Fatalf("parse fixture: %v", err)
	}
	var fn *ast.FuncDecl
	for _, decl := range file.Decls {
		if fd, ok := decl.(*ast.FuncDecl); ok && fd.Name.Name == "Get" {
			fn = fd
		}
	}
	if fn == nil {
		t.Fatal("fixture function Get not found in lockdiscipline_bad")
	}
	want := strings.TrimLeft(`
b0 entry: call, assign, cond -> b2 b3
b1 exit:
b2: call, return -> b1
b3: return -> b1
`, "\n")
	if got := BuildCFG(fn.Body).Dump(fset); got != want {
		t.Errorf("golden dump mismatch:\n got:\n%s want:\n%s", got, want)
	}
}
