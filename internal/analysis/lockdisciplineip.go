// The lockdiscipline-ip rule: the intra rule (lockdiscipline.go)
// forbids blocking operations while a lock is held, but only sees the
// current frame — f.mu.Lock(); f.helper() is invisible to it even when
// helper parks on a channel or re-acquires f.mu (the classic
// non-reentrant self-deadlock through a refactored helper; SwapEngine
// vs refreshIndexGauges, which derives the degraded count under f.mu,
// is the live example this repo fixed by ordering the unlock first).
// This rule closes the gap with the interprocedural summaries: at every
// call made while a lock is held, the callee's summary answers "may it
// block?" and "which locks may it acquire?".
//
// Held-lock state is the intra rule's own dataflow solution — the same
// CFG, lattice, and transfer (replayed silently), so both rules agree
// about what is held where. Callee lock references are re-rooted at
// the call site: a summary entry Lock(recv.mu) on the call
// f.refreshIndexGauges() becomes "f.mu", the same identity the intra
// rule tracks, so a held "f.mu" matches exactly. A write-acquire of a
// held lock (or any acquire crossing read/write with one) is reported
// as a potential self-deadlock; a callee that may block on goroutine
// coordination is reported like the intra rule's direct channel-op
// finding.
//
// State is taken at statement granularity (the solved in-state of the
// block, replayed statement by statement); a lock acquired and a
// flagged call in the same statement see the pre-statement state,
// which in practice never matters for lock code written on separate
// lines.
package analysis

import (
	"go/ast"
	"go/token"
	"strings"
)

// LockdisciplineIP is the twelfth analyzer; see the comment above.
var LockdisciplineIP = &Analyzer{
	Name:        "lockdisciplineip",
	Doc:         "While a lock is held, no callee may block on goroutine coordination or re-acquire the same lock (checked through summaries)",
	Run:         runLockdisciplineIP,
	NeedsModule: true,
}

func runLockdisciplineIP(pass *Pass) {
	in := false
	for _, prefix := range lockdisciplineScope {
		if pathWithin(pass.Path, prefix) {
			in = true
			break
		}
	}
	if !in || pass.Module == nil {
		return
	}
	intra := &lockChecker{pass: pass, reported: map[string]bool{}}
	c := &lockIPChecker{pass: pass, intra: intra, reported: map[string]bool{}}
	forEachFuncBody(pass, func(body *ast.BlockStmt) {
		c.checkFunc(body)
	})
}

type lockIPChecker struct {
	pass     *Pass
	intra    *lockChecker // reused for lock events and state transfer, never for reporting
	reported map[string]bool
}

func (c *lockIPChecker) reportOnce(pos token.Pos, format string, args ...interface{}) {
	msg := formatMsg(format, args...)
	key := c.pass.Fset.Position(pos).String() + "\x00" + msg
	if c.reported[key] {
		return
	}
	c.reported[key] = true
	c.pass.Reportf(pos, "%s", msg)
}

func (c *lockIPChecker) checkFunc(body *ast.BlockStmt) {
	g := BuildCFG(body)
	boundary := lockState{"": newLockPath()}
	res := Forward[lockState](g, lockLattice{}, boundary, func(b *CFGBlock, in lockState) lockState {
		return c.intra.apply(b, in, false)
	})
	for _, b := range g.Reachable() {
		c.replay(b, res.In[b])
	}
}

// replay walks one block statement by statement: check the calls in
// the statement against every incoming path's held set, then advance
// the state with the intra rule's events.
func (c *lockIPChecker) replay(b *CFGBlock, in lockState) {
	if len(in) == 0 {
		return
	}
	paths := make([]lockPath, 0, len(in))
	for _, p := range in {
		paths = append(paths, p.clone())
	}
	for _, stmt := range b.Stmts {
		anyHeld := false
		for _, p := range paths {
			if len(p.held) > 0 {
				anyHeld = true
				break
			}
		}
		if anyHeld {
			c.checkStmtCalls(stmt, paths)
		}
		for _, e := range c.intra.events(stmt) {
			for i := range paths {
				c.intra.applyEvent(e, &paths[i], false)
			}
		}
	}
}

// checkStmtCalls finds the synchronous calls in a statement and checks
// each against the held sets. Function literals are their own frames;
// go'd and deferred calls do not run at this point of the path.
func (c *lockIPChecker) checkStmtCalls(stmt ast.Node, paths []lockPath) {
	switch stmt.(type) {
	case *ast.DeferStmt, *ast.GoStmt:
		return
	}
	ast.Inspect(stmt, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			c.checkCall(n, paths)
		}
		return true
	})
}

func (c *lockIPChecker) checkCall(call *ast.CallExpr, paths []lockPath) {
	callees, _ := c.pass.Module.ResolveCall(c.pass.Info, call)
	for _, callee := range callees {
		sum := c.pass.Module.SummaryOf(callee)
		if sum == nil {
			continue
		}
		for _, p := range paths {
			if len(p.held) == 0 {
				continue
			}
			if sum.Blocks {
				c.reportOnce(call.Pos(), "call to %s while holding %s: the callee may block on other goroutines (%s) — release the lock first", calleeDisplay(callee), heldList(p), sum.BlocksWhy)
			} else if sum.Joins {
				c.reportOnce(call.Pos(), "call to %s while holding %s: the callee parks on a worker join (%s) — release the lock first", calleeDisplay(callee), heldList(p), sum.JoinsWhy)
			}
			for _, ref := range sum.Acquires {
				id, ok := c.rerootAtCall(ref, call)
				if !ok {
					continue
				}
				if held, isRead := heldMatch(p, id, ref.Read); held {
					kind := "re-acquires"
					if isRead != ref.Read {
						kind = "acquires the other mode of"
					}
					c.reportOnce(call.Pos(), "call to %s while holding %s: the callee %s %s — self-deadlock (the lock is not reentrant)", calleeDisplay(callee), heldList(p), kind, displayLock(lockID(id, ref.Read)))
				}
			}
		}
	}
}

// rerootAtCall maps a callee LockRef into this caller's lock identity
// space (the intra rule's exprKey text). ok=false when the base cannot
// be named here.
func (c *lockIPChecker) rerootAtCall(ref LockRef, call *ast.CallExpr) (string, bool) {
	switch {
	case ref.Root == lockRootFree:
		return ref.Path, ref.Path != ""
	case ref.Root == RecvRoot:
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return "", false
		}
		if _, isSel := c.pass.Info.Selections[sel]; !isSel {
			return "", false
		}
		return joinKey(exprKey(sel.X), ref.Path), true
	case ref.Root >= 0 && ref.Root < len(call.Args):
		base := exprKey(call.Args[ref.Root])
		if base == "" {
			return "", false
		}
		return joinKey(base, ref.Path), true
	}
	return "", false
}

func joinKey(base, path string) string {
	if path == "" {
		return base
	}
	return base + "." + path
}

func lockID(base string, read bool) string {
	if read {
		return "R:" + base
	}
	return base
}

// heldMatch reports whether the path holds a lock with the same base
// identity, in a combination that deadlocks against a new acquire:
// any-held vs write-acquire, or write-held vs read-acquire. Read-held
// vs read-acquire is allowed (shared mode).
func heldMatch(p lockPath, base string, acquireRead bool) (held, heldRead bool) {
	for id := range p.held {
		hr := strings.HasPrefix(id, "R:")
		if strings.TrimPrefix(id, "R:") != base {
			continue
		}
		if !acquireRead || !hr {
			return true, hr
		}
	}
	return false, false
}
