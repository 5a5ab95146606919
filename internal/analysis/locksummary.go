// locksummary is the shared substrate of the lockorder and blockunderlock
// analyzers: it resolves //numalint:locks declarations to their
// types.Objects, walks every function into a source-ordered event stream
// (acquire / release / deferred release / call / blocking op) and computes
// a per-function transitive summary — which declared locks the function
// may acquire through any static call chain, and whether it can reach
// file/network/syscall work or a Commit-class call. Summaries are exported
// as facts keyed on the function object, so passes over dependent packages
// see through calls into already-analyzed packages.
//
// The in-function model is deliberately linear: statements are visited in
// source order, Lock pushes, Unlock pops, defer Unlock holds to the end of
// the function, and a call to a function that returns holding a lock (one
// that locks and neither unlocks nor defers the unlock) pushes it as a Lock
// would. That matches the repo's lock idiom (Lock; defer Unlock, strictly
// bracketed Lock/Unlock pairs, or `defer x.lock().end()` over a helper that
// returns holding the lock) and keeps the checker simple;
// branch-sensitive flows can over- or under-approximate and are the reason
// //numalint:ignore exists.
package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// LockID identifies one declared lock across packages.
type LockID struct {
	Key     string // "<pkgpath>.<name>", unique per session
	Name    string
	Rank    int
	NoBlock bool
}

// AcquireInfo explains one (possibly transitive) lock acquisition.
type AcquireInfo struct {
	Lock LockID
	Why  string // "" for direct, else the call chain
}

// FuncSummary is the exported per-function fact.
type FuncSummary struct {
	// Acquires maps lock key → how the function may acquire it.
	Acquires map[string]AcquireInfo
	Blocks   bool
	BlockWhy string
	// Holds lists the locks the function acquires itself and returns
	// holding: a call to it acquires them for the caller.
	Holds []LockID
}

type evKind int

const (
	evAcquire evKind = iota
	evRelease
	evDeferRelease
	evCall
	evBlockingOp
)

type event struct {
	kind   evKind
	lock   LockID
	rlock  bool
	callee *types.Func // static callee origin, nil for dynamic
	name   string      // callee display name
	why    string      // blocking-op description
	pos    token.Pos
}

type funcDetail struct {
	fn     *types.Func // nil for function literals
	name   string
	events []event
}

type lockResult struct {
	details   []*funcDetail
	summaries map[*types.Func]*FuncSummary
	// anyLocks reports whether any lock is declared anywhere in the
	// session so far (cheap skip for lock-free packages).
	anyLocks bool
}

// LockSummary computes lock facts; it reports nothing itself. (Run is
// attached in init to break the initialization cycle through summaryOf's
// fact lookups.)
var LockSummary = &Analyzer{
	Name: "locksummary",
	Doc:  "internal: per-function lock-acquisition and blocking summaries",
}

func init() { LockSummary.Run = runLockSummary }

// blockingPkgs are import-path prefixes whose calls count as I/O under a
// noblock lock.
var blockingPkgs = []string{"os", "net", "syscall"}

// blockingMethods are method names treated as Commit-class regardless of
// receiver (including interface calls, where no callee body is visible).
var blockingMethods = map[string]bool{"Commit": true, "Sync": true, "Fsync": true}

func runLockSummary(pass *Pass) (any, error) {
	c := &lockCollector{pass: pass, locks: map[types.Object]LockID{}}
	// Resolve this package's lock declarations and export them as facts
	// so other packages' direct acquisitions (exported fields) resolve.
	for _, ld := range pass.Ann.Locks {
		var obj types.Object
		switch {
		case ld.Field != nil && len(ld.Field.Names) > 0:
			obj = pass.Info.Defs[ld.Field.Names[0]]
		case ld.VarName != nil:
			obj = pass.Info.Defs[ld.VarName]
		}
		if obj == nil {
			pass.Report(ld.Pos, "numalint:locks directive not attached to a named field or var")
			continue
		}
		id := LockID{
			Key:     pass.Pkg.Path + "." + ld.Name,
			Name:    ld.Name,
			Rank:    ld.Rank,
			NoBlock: ld.NoBlock,
		}
		if prev, dup := c.locks[obj]; dup {
			pass.Report(ld.Pos, "lock already declared as %s", prev.Name)
			continue
		}
		c.locks[obj] = id
		pass.ExportFact(obj, id)
	}

	res := &lockResult{summaries: map[*types.Func]*FuncSummary{}}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, _ := pass.Info.Defs[fd.Name].(*types.Func)
			detail := &funcDetail{fn: obj, name: fd.Name.Name}
			c.walk(fd.Body, detail, res)
			res.details = append(res.details, detail)
		}
	}

	// Seed summaries from direct events, then close transitively over
	// static same-package calls; cross-package callees resolve through
	// facts (their packages were analyzed first — dependency order).
	for _, d := range res.details {
		if d.fn == nil {
			continue
		}
		s := &FuncSummary{Acquires: map[string]AcquireInfo{}}
		for _, ev := range d.events {
			switch ev.kind {
			case evAcquire:
				s.Acquires[ev.lock.Key] = AcquireInfo{Lock: ev.lock}
			case evBlockingOp:
				if !s.Blocks {
					s.Blocks, s.BlockWhy = true, ev.why
				}
			}
		}
		res.summaries[d.fn] = s
	}
	for changed := true; changed; {
		changed = false
		for _, d := range res.details {
			if d.fn == nil {
				continue
			}
			s := res.summaries[d.fn]
			for _, ev := range d.events {
				if ev.kind != evCall || ev.callee == nil {
					continue
				}
				cs := c.summaryOf(res, ev.callee)
				if cs == nil {
					continue
				}
				for key, ai := range cs.Acquires {
					if _, ok := s.Acquires[key]; !ok {
						why := "via " + ev.name
						if ai.Why != "" {
							why += " " + ai.Why
						}
						s.Acquires[key] = AcquireInfo{Lock: ai.Lock, Why: why}
						changed = true
					}
				}
				if cs.Blocks && !s.Blocks {
					why := "via " + ev.name
					if cs.BlockWhy != "" {
						why += ": " + cs.BlockWhy
					}
					s.Blocks, s.BlockWhy = true, why
					changed = true
				}
			}
		}
	}
	// A function that returns holding a lock acquires it for each caller.
	for _, d := range res.details {
		for _, h := range simulate(d, func(event, []heldEntry) {}) {
			if d.fn != nil && !h.deferred {
				res.summaries[d.fn].Holds = append(res.summaries[d.fn].Holds, h.lock)
			}
		}
	}
	for _, d := range res.details {
		var evs []event
		for _, ev := range d.events {
			evs = append(evs, ev)
			if ev.kind != evCall || ev.callee == nil {
				continue
			}
			if cs := c.summaryOf(res, ev.callee); cs != nil {
				for _, l := range cs.Holds {
					evs = append(evs, event{kind: evAcquire, lock: l, pos: ev.pos})
				}
			}
		}
		d.events = evs
	}
	for fn, s := range res.summaries {
		pass.ExportFact(fn, s)
	}
	res.anyLocks = len(c.locks) > 0
	return res, nil
}

// summaryOf resolves a callee summary: same package first, then facts.
func (c *lockCollector) summaryOf(res *lockResult, fn *types.Func) *FuncSummary {
	if s, ok := res.summaries[fn]; ok {
		return s
	}
	if v, ok := c.pass.FactOf(LockSummary, fn); ok {
		return v.(*FuncSummary)
	}
	return nil
}

type lockCollector struct {
	pass  *Pass
	locks map[types.Object]LockID
}

// lockOf resolves the receiver expression of a Lock/Unlock call to a
// declared lock: `mu.Lock()` via Uses, `x.mu.Lock()` / `x.books.Lock()`
// via the field selection, generic instantiations via Origin.
func (c *lockCollector) lockOf(expr ast.Expr) (LockID, bool) {
	var obj types.Object
	switch e := expr.(type) {
	case *ast.Ident:
		obj = c.pass.Info.Uses[e]
	case *ast.SelectorExpr:
		if sel, ok := c.pass.Info.Selections[e]; ok && sel.Kind() == types.FieldVal {
			obj = sel.Obj()
		} else {
			obj = c.pass.Info.Uses[e.Sel]
		}
	default:
		return LockID{}, false
	}
	if v, ok := obj.(*types.Var); ok {
		obj = v.Origin()
	}
	if obj == nil {
		return LockID{}, false
	}
	if id, ok := c.locks[obj]; ok {
		return id, true
	}
	if v, ok := c.pass.FactOf(LockSummary, obj); ok {
		if id, ok := v.(LockID); ok {
			return id, true
		}
	}
	return LockID{}, false
}

// walk collects body's events in source order. Function literals become
// their own details (their bodies run with an unknown held set — often on
// another goroutine — so they are checked independently); defer statements
// of Unlock/RUnlock become deferred releases.
func (c *lockCollector) walk(body ast.Node, detail *funcDetail, res *lockResult) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			lit := &funcDetail{name: detail.name + ".func"}
			c.walk(x.Body, lit, res)
			res.details = append(res.details, lit)
			return false
		case *ast.DeferStmt:
			if name, ok := methodCallName(x.Call); ok && (name == "Unlock" || name == "RUnlock") {
				if id, isLock := c.lockOf(x.Call.Fun.(*ast.SelectorExpr).X); isLock {
					detail.events = append(detail.events, event{
						kind: evDeferRelease, lock: id, rlock: name == "RUnlock", pos: x.Pos(),
					})
					return false
				}
			}
			// Any other deferred call: fall through to normal traversal so
			// nested calls/acquires are still seen (approximated in place).
			return true
		case *ast.CallExpr:
			c.classifyCall(x, detail)
			return true
		}
		return true
	})
}

func methodCallName(call *ast.CallExpr) (string, bool) {
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		return sel.Sel.Name, true
	}
	return "", false
}

func (c *lockCollector) classifyCall(call *ast.CallExpr, detail *funcDetail) {
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		switch sel.Sel.Name {
		case "Lock", "RLock", "TryLock", "TryRLock":
			if id, isLock := c.lockOf(sel.X); isLock {
				detail.events = append(detail.events, event{
					kind: evAcquire, lock: id,
					rlock: sel.Sel.Name == "RLock" || sel.Sel.Name == "TryRLock",
					pos:   call.Pos(),
				})
				return
			}
		case "Unlock", "RUnlock":
			if id, isLock := c.lockOf(sel.X); isLock {
				detail.events = append(detail.events, event{
					kind: evRelease, lock: id, rlock: sel.Sel.Name == "RUnlock", pos: call.Pos(),
				})
				return
			}
		}
	}
	callee, name := c.calleeOf(call)
	if name == "" {
		return
	}
	if why := blockingWhy(callee, name); why != "" {
		detail.events = append(detail.events, event{kind: evBlockingOp, name: name, why: why, pos: call.Pos()})
		return
	}
	if callee != nil {
		detail.events = append(detail.events, event{kind: evCall, callee: callee, name: name, pos: call.Pos()})
	}
}

// calleeOf resolves a call to its static callee origin; dynamic calls
// (interface methods, func values) return nil with a display name when one
// is visible.
func (c *lockCollector) calleeOf(call *ast.CallExpr) (*types.Func, string) {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		switch obj := c.pass.Info.Uses[fun].(type) {
		case *types.Func:
			return obj.Origin(), obj.Name()
		case *types.Var:
			return nil, obj.Name() // func-typed variable: dynamic
		}
	case *ast.SelectorExpr:
		if sel, ok := c.pass.Info.Selections[fun]; ok {
			if fn, ok := sel.Obj().(*types.Func); ok {
				if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
					return nil, fn.Name() // dynamic dispatch
				}
				return fn.Origin(), fn.Name()
			}
			return nil, fun.Sel.Name // func-typed field
		}
		if fn, ok := c.pass.Info.Uses[fun.Sel].(*types.Func); ok {
			return fn.Origin(), qualifiedName(fn)
		}
	}
	return nil, ""
}

func qualifiedName(fn *types.Func) string {
	if fn.Pkg() != nil {
		return fn.Pkg().Name() + "." + fn.Name()
	}
	return fn.Name()
}

// blockingWhy classifies a call as I/O / Commit-class, or "" if benign.
func blockingWhy(callee *types.Func, name string) string {
	if blockingMethods[name] {
		return "Commit-class call " + name
	}
	if callee == nil || callee.Pkg() == nil {
		return ""
	}
	path := callee.Pkg().Path()
	for _, p := range blockingPkgs {
		if path == p || strings.HasPrefix(path, p+"/") {
			return "call to " + path + "." + callee.Name()
		}
	}
	if path == "time" && name == "Sleep" {
		return "call to time.Sleep"
	}
	return ""
}

type heldEntry struct {
	lock     LockID
	rlock    bool
	deferred bool
}

// simulate replays a function's event stream, invoking visit with the
// held-lock set active at each event (before the event itself applies), and
// returns the set held at the end.
func simulate(d *funcDetail, visit func(ev event, held []heldEntry)) []heldEntry {
	var held []heldEntry
	for _, ev := range d.events {
		visit(ev, held)
		switch ev.kind {
		case evAcquire:
			held = append(held, heldEntry{lock: ev.lock, rlock: ev.rlock})
		case evRelease:
			for i := len(held) - 1; i >= 0; i-- {
				if held[i].lock.Key == ev.lock.Key && !held[i].deferred {
					held = append(held[:i], held[i+1:]...)
					break
				}
			}
		case evDeferRelease:
			for i := len(held) - 1; i >= 0; i-- {
				if held[i].lock.Key == ev.lock.Key {
					held[i].deferred = true
					break
				}
			}
		}
	}
	return held
}
