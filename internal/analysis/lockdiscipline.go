// The lockdiscipline rule: every mutex acquisition must reach a
// release on all control-flow paths — including the panic paths, which
// only a deferred unlock covers — and no lock may be held across an
// operation that blocks on other goroutines, whether that operation
// sits in this frame (channel send/receive, select, WaitGroup.Wait) or
// in a callee. The serving layer's liveness depends on this: a leaked
// lock in Frontdoor or the cache wedges every request behind it, and a
// lock held across a channel op inverts the admission queue's
// backpressure into a deadlock.
//
// The rule runs the forward dataflow solver (flow.go) over each
// function's CFG (cfg.go) with a path-set lattice: each path state is
// (held locks → acquisition site, deferred releases), states are
// joined by set union, and a block's transfer function replays its
// statements against every incoming path. Findings:
//
//   - a Lock whose lock is still held (and not deferred-released) on
//     some path into the function exit;
//   - a second Lock of the same lock while already held (self-deadlock);
//   - a channel send/receive/range, select arm, or WaitGroup.Wait
//     while any lock is held;
//   - a may-panic statement (any call that is not a builtin, a
//     conversion, or a sync/sync-atomic method) while a lock is held
//     without a deferred release — the path the CFG cannot draw but a
//     panic takes;
//   - a call, while any lock is held, to a module function whose
//     summary (summary.go) says it may block on other goroutines,
//     parks on a worker join, or re-acquires a held lock.
//
// The last check sees what one frame cannot: f.mu.Lock(); f.helper()
// is clean locally even when helper parks on a channel or re-acquires
// f.mu (the classic non-reentrant self-deadlock through a refactored
// helper; runRebuild vs refreshIndexGauges, which derives the degraded
// count under f.mu, is the live example: runRebuild unlocks first). Callee lock references are re-rooted at the call
// site: a summary entry Lock(recv.mu) on the call
// f.refreshIndexGauges() becomes "f.mu", the identity the dataflow
// tracks, so a held "f.mu" matches exactly. A write-acquire of a held
// lock, or any acquire crossing read/write with one, is a potential
// self-deadlock.
//
// sync.Cond.Wait is exempt from the held-across-wait check: it
// requires the lock by contract (internal/bsp's barrier is the
// idiomatic use). Lock identity is the receiver expression text
// ("f.mu"), which is stable within one function; summaries say which
// locks a callee may acquire, not which it leaves held, so helpers
// that lock on behalf of their caller (or unlock a caller's lock) are
// out of scope by design.
package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Lockdiscipline is the ninth analyzer; see the package comment above.
var Lockdiscipline = &Analyzer{
	Name:        "lockdiscipline",
	Doc:         "Locks must be released on every path (incl. panic via defer) and never held across channel ops, WaitGroup.Wait, or a callee that may block, join workers, or re-acquire the lock",
	Run:         runLockdiscipline,
	NeedsModule: true,
}

// lockdisciplineScope: the packages whose locks guard serving-path
// state. Model-only packages (pareto, stats, ...) hold no locks.
var lockdisciplineScope = []string{
	"internal/api",
	"internal/serving",
	"internal/core",
	"internal/snapshot",
	"internal/telemetry",
	"internal/workqueue",
	"internal/spot",
	"internal/bsp",
	"internal/localserver",
}

// lockPath is one path state: which locks are held (mapped to the
// position of the Lock call, where exit findings are reported) and
// which have a deferred release registered.
type lockPath struct {
	held     map[string]token.Pos
	deferred map[string]bool
}

func newLockPath() lockPath {
	return lockPath{held: map[string]token.Pos{}, deferred: map[string]bool{}}
}

func (p lockPath) clone() lockPath {
	q := newLockPath()
	for k, v := range p.held {
		q.held[k] = v
	}
	for k := range p.deferred {
		q.deferred[k] = true
	}
	return q
}

// key canonicalizes the state for set membership: held and deferred
// lock names, sorted. Acquisition positions are not part of identity
// (two paths locking the same lock at different sites carry the same
// obligation).
func (p lockPath) key() string {
	ids := make([]string, 0, len(p.held))
	for id := range p.held {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	defs := make([]string, 0, len(p.deferred))
	for id := range p.deferred {
		defs = append(defs, id)
	}
	sort.Strings(defs)
	return strings.Join(ids, ",") + "|" + strings.Join(defs, ",")
}

// lockState is the lattice element: the set of distinct path states
// reaching a program point, keyed by lockPath.key.
type lockState map[string]lockPath

// maxLockPaths caps path-set growth; past it, all paths collapse into
// one conservative union (held ∪, deferred ∩) so the solver stays
// linear on pathological branch ladders.
const maxLockPaths = 32

type lockLattice struct{}

func (lockLattice) Bottom() lockState { return nil }

func (lockLattice) Join(a, b lockState) lockState {
	if len(a) == 0 {
		return b
	}
	if len(b) == 0 {
		return a
	}
	out := make(lockState, len(a)+len(b))
	for k, v := range a {
		out[k] = v
	}
	for k, v := range b {
		if _, ok := out[k]; !ok {
			out[k] = v
		}
	}
	if len(out) > maxLockPaths {
		out = collapseLockPaths(out)
	}
	return out
}

func (lockLattice) Equal(a, b lockState) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if _, ok := b[k]; !ok {
			return false
		}
	}
	return true
}

// collapseLockPaths merges every path into one: a lock is "held" if any
// path holds it, "deferred" only if every path defers it. This keeps
// exit and may-panic findings sound (no obligation is dropped) at the
// cost of path precision.
func collapseLockPaths(s lockState) lockState {
	merged := newLockPath()
	first := true
	for _, p := range s {
		for id, pos := range p.held {
			if old, ok := merged.held[id]; !ok || pos < old {
				merged.held[id] = pos
			}
		}
		if first {
			for id := range p.deferred {
				merged.deferred[id] = true
			}
			first = false
			continue
		}
		for id := range merged.deferred {
			if !p.deferred[id] {
				delete(merged.deferred, id)
			}
		}
	}
	return lockState{merged.key(): merged}
}

// lockEvent kinds, in the order they are replayed within a statement.
const (
	evLock = iota
	evUnlock
	evDeferUnlock
	evBlocking // channel send/receive/range, select arm, WaitGroup.Wait
	evMayPanic // a call the runtime might unwind out of
)

type lockEvent struct {
	kind int
	pos  token.Pos
	id   string        // lock identity for evLock/evUnlock/evDeferUnlock
	what string        // human description for evBlocking/evMayPanic
	call *ast.CallExpr // the call behind the event, if any
}

func runLockdiscipline(pass *Pass) {
	in := false
	for _, prefix := range lockdisciplineScope {
		if pathWithin(pass.Path, prefix) {
			in = true
			break
		}
	}
	if !in {
		return
	}
	c := &lockChecker{pass: pass}
	forEachFuncBody(pass, func(body *ast.BlockStmt) {
		c.checkFunc(body)
	})
}

type lockChecker struct {
	pass *Pass
}

func (c *lockChecker) checkFunc(body *ast.BlockStmt) {
	g := BuildCFG(body)
	boundary := lockState{"": newLockPath()}
	res := Forward[lockState](g, lockLattice{}, boundary, func(b *CFGBlock, in lockState) lockState {
		return c.apply(b, in, false)
	})
	// Report pass: replay each block once from its solved in-state.
	for _, b := range g.Reachable() {
		c.apply(b, res.In[b], true)
	}
	// Exit obligations: a lock held on some path into Exit without a
	// deferred release never gets unlocked on that path.
	for _, p := range res.In[g.Exit] {
		for id, pos := range p.held {
			if !p.deferred[id] {
				c.pass.Reportf(pos, "%s is not released on every path to return: unlock before each return or use defer", displayLock(id))
			}
		}
	}
}

// apply replays a block's statements against every incoming path
// state. With report set it emits findings; the dataflow transfer
// calls it silently.
func (c *lockChecker) apply(b *CFGBlock, in lockState, report bool) lockState {
	if len(in) == 0 {
		return nil
	}
	var events []lockEvent
	for _, n := range b.Stmts {
		events = append(events, c.events(n)...)
	}
	if len(events) == 0 && !report {
		return in
	}
	out := make(lockState, len(in))
	for _, p := range in {
		q := p.clone()
		for _, e := range events {
			c.applyEvent(e, &q, report)
		}
		out[q.key()] = q
	}
	if len(out) > maxLockPaths {
		out = collapseLockPaths(out)
	}
	return out
}

func (c *lockChecker) applyEvent(e lockEvent, p *lockPath, report bool) {
	switch e.kind {
	case evLock:
		if _, dup := p.held[e.id]; dup {
			if report {
				c.pass.Reportf(e.pos, "%s acquired again while already held on this path (self-deadlock)", displayLock(e.id))
			}
			return
		}
		p.held[e.id] = e.pos
	case evUnlock:
		delete(p.held, e.id)
	case evDeferUnlock:
		p.deferred[e.id] = true
	case evBlocking:
		if report && len(p.held) > 0 {
			c.pass.Reportf(e.pos, "%s while holding %s: release the lock before blocking on other goroutines", e.what, heldList(*p))
		}
	case evMayPanic:
		if !report {
			return
		}
		if len(p.held) > 0 {
			c.checkCallee(e.call, *p)
		}
		var bare []string
		for id := range p.held {
			if !p.deferred[id] {
				bare = append(bare, displayLock(id))
			}
		}
		if len(bare) > 0 {
			sort.Strings(bare)
			c.pass.Reportf(e.pos, "%s while %s is held without a deferred release: a panic here leaks the lock", e.what, strings.Join(bare, ", "))
		}
	}
}

// checkCallee consults the summary of a call made while p holds a
// lock: the callee may block on other goroutines, park on a worker
// join, or re-acquire a lock p holds.
func (c *lockChecker) checkCallee(call *ast.CallExpr, p lockPath) {
	callees, _ := c.pass.Module.ResolveCall(c.pass.Info, call)
	for _, callee := range callees {
		sum := c.pass.Module.SummaryOf(callee)
		if sum == nil {
			continue
		}
		if sum.Blocks {
			c.pass.Reportf(call.Pos(), "call to %s while holding %s: the callee may block on other goroutines (%s) — release the lock first", calleeDisplay(callee), heldList(p), sum.BlocksWhy)
		} else if sum.Joins {
			c.pass.Reportf(call.Pos(), "call to %s while holding %s: the callee parks on a worker join (%s) — release the lock first", calleeDisplay(callee), heldList(p), sum.JoinsWhy)
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
				c.pass.Reportf(call.Pos(), "call to %s while holding %s: the callee %s %s — self-deadlock (the lock is not reentrant)", calleeDisplay(callee), heldList(p), kind, displayLock(lockID(id, ref.Read)))
			}
		}
	}
}

// rerootAtCall maps a callee LockRef into this caller's lock identity
// space (exprKey text). ok=false when the base cannot be named here.
func (c *lockChecker) rerootAtCall(ref LockRef, call *ast.CallExpr) (string, bool) {
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

func heldList(p lockPath) string {
	ids := make([]string, 0, len(p.held))
	for id := range p.held {
		ids = append(ids, displayLock(id))
	}
	sort.Strings(ids)
	return strings.Join(ids, ", ")
}

// displayLock renders a lock identity for messages: "Lock(f.mu)" or
// "RLock(f.mu)".
func displayLock(id string) string {
	if recv, ok := strings.CutPrefix(id, "R:"); ok {
		return "RLock(" + recv + ")"
	}
	return "Lock(" + id + ")"
}

// events extracts this statement's lock-relevant events in evaluation
// order. Function literals are opaque (they get their own CFG);
// deferred and go'd calls do not execute on this path, so only their
// arguments are walked — except that a deferred Unlock (directly or
// inside a deferred literal) registers a release.
func (c *lockChecker) events(n ast.Node) []lockEvent {
	switch n := n.(type) {
	case *ast.DeferStmt:
		return c.deferEvents(n)
	case *ast.GoStmt:
		var evs []lockEvent
		for _, arg := range n.Call.Args {
			evs = append(evs, c.walkEvents(arg)...)
		}
		return evs
	case *ast.RangeStmt:
		evs := c.walkEvents(n.X)
		if t := c.pass.Info.TypeOf(n.X); t != nil {
			if _, isChan := t.Underlying().(*types.Chan); isChan {
				evs = append(evs, lockEvent{kind: evBlocking, pos: n.Pos(), what: "range over a channel"})
			}
		}
		return evs
	}
	return c.walkEvents(n)
}

func (c *lockChecker) deferEvents(d *ast.DeferStmt) []lockEvent {
	var evs []lockEvent
	for _, arg := range d.Call.Args {
		evs = append(evs, c.walkEvents(arg)...)
	}
	if id, op, ok := c.lockOp(d.Call); ok && (op == evUnlock) {
		evs = append(evs, lockEvent{kind: evDeferUnlock, pos: d.Pos(), id: id})
		return evs
	}
	if lit, ok := d.Call.Fun.(*ast.FuncLit); ok {
		ast.Inspect(lit.Body, func(x ast.Node) bool {
			if inner, ok := x.(*ast.FuncLit); ok && inner != lit {
				return false
			}
			if call, ok := x.(*ast.CallExpr); ok {
				if id, op, ok := c.lockOp(call); ok && op == evUnlock {
					evs = append(evs, lockEvent{kind: evDeferUnlock, pos: d.Pos(), id: id})
				}
			}
			return true
		})
	}
	return evs
}

// walkEvents classifies every call, send, and receive in the subtree,
// in pre-order (a close approximation of evaluation order; block
// statements already arrive in source order).
func (c *lockChecker) walkEvents(n ast.Node) []lockEvent {
	var evs []lockEvent
	ast.Inspect(n, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.FuncLit:
			return false
		case *ast.SendStmt:
			evs = append(evs, lockEvent{kind: evBlocking, pos: x.Arrow, what: "channel send"})
		case *ast.UnaryExpr:
			if x.Op == token.ARROW {
				evs = append(evs, lockEvent{kind: evBlocking, pos: x.Pos(), what: "channel receive"})
			}
		case *ast.CallExpr:
			if ev, ok := c.classifyCall(x); ok {
				ev.call = x
				evs = append(evs, ev)
			}
		}
		return true
	})
	return evs
}

// classifyCall sorts a call into the event taxonomy; ok=false means
// the call is irrelevant (exempt from the panic model).
func (c *lockChecker) classifyCall(call *ast.CallExpr) (lockEvent, bool) {
	if id, op, ok := c.lockOp(call); ok {
		return lockEvent{kind: op, pos: call.Pos(), id: id}, true
	}
	info := c.pass.Info
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		if b, ok := info.Uses[fun].(*types.Builtin); ok {
			// Builtins do not unwind in ways a deferred unlock would not
			// already have to survive — except panic itself.
			if b.Name() == "panic" {
				return lockEvent{kind: evMayPanic, pos: call.Pos(), what: "explicit panic"}, true
			}
			return lockEvent{}, false
		}
		if tv, ok := info.Types[fun]; ok && tv.IsType() {
			return lockEvent{}, false // conversion
		}
		return lockEvent{kind: evMayPanic, pos: call.Pos(), what: "call to " + fun.Name}, true
	case *ast.SelectorExpr:
		if tv, ok := info.Types[fun]; ok && tv.IsType() {
			return lockEvent{}, false // qualified conversion (pkg.Type(x))
		}
		if sel, ok := info.Selections[fun]; ok {
			if fn, ok := sel.Obj().(*types.Func); ok && fn.Pkg() != nil {
				switch fn.Pkg().Path() {
				case "sync":
					recv := methodRecvName(fn)
					if fn.Name() == "Wait" {
						switch recv {
						case "WaitGroup":
							return lockEvent{kind: evBlocking, pos: call.Pos(), what: "WaitGroup.Wait"}, true
						case "Cond":
							// Cond.Wait requires the lock by contract; exempt.
							return lockEvent{}, false
						}
					}
					if fn.Name() == "Do" && recv == "Once" {
						// Once.Do runs user code that may panic.
						return lockEvent{kind: evMayPanic, pos: call.Pos(), what: "call to Once.Do"}, true
					}
					return lockEvent{}, false
				case "sync/atomic":
					return lockEvent{}, false
				}
			}
			return lockEvent{kind: evMayPanic, pos: call.Pos(), what: "call to " + fun.Sel.Name}, true
		}
		// Package-qualified function call.
		if path, ok := pkgSelector(info, fun); ok && path == "sync/atomic" {
			return lockEvent{}, false
		}
		return lockEvent{kind: evMayPanic, pos: call.Pos(), what: "call to " + fun.Sel.Name}, true
	}
	return lockEvent{kind: evMayPanic, pos: call.Pos(), what: "call"}, true
}

// lockOp recognizes Lock/Unlock/RLock/RUnlock method calls on
// sync.Mutex / sync.RWMutex (including promoted embedded mutexes) and
// returns (lock identity, evLock|evUnlock).
func (c *lockChecker) lockOp(call *ast.CallExpr) (string, int, bool) {
	fun, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", 0, false
	}
	sel, ok := c.pass.Info.Selections[fun]
	if !ok {
		return "", 0, false
	}
	fn, ok := sel.Obj().(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", 0, false
	}
	recv := methodRecvName(fn)
	if recv != "Mutex" && recv != "RWMutex" {
		return "", 0, false
	}
	id := exprKey(fun.X)
	switch fn.Name() {
	case "Lock":
		return id, evLock, true
	case "Unlock":
		return id, evUnlock, true
	case "RLock":
		return "R:" + id, evLock, true
	case "RUnlock":
		return "R:" + id, evUnlock, true
	}
	return "", 0, false
}
