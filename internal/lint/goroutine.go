package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// analyzerGoroutineContext is the goroutine-awareness half of the
// lock-state interpreter (lockstate.go): lock facts that hold at a `go`
// statement — or at a function value handed to a worker/pool helper
// that launches it (callgraph.go spawn parameters) — do NOT transfer
// into the spawned body. The spawned goroutine starts with an empty
// lock set no matter what the spawning context holds, so two bug shapes
// are flagged at the spawn site:
//
//   - the spawned body (transitively, through static calls, including
//     closures that capture locked receivers) reaches a core *Locked
//     helper without acquiring any lock of its own — the goroutine
//     "inherits" a contract it cannot satisfy;
//   - the spawn happens while the spawner holds table locks and the
//     spawned body touches one of those same tables (reads or writes,
//     outside any lock acquisition of its own) — the code looks locked
//     lexically but races with every reader the lock was protecting.
//
// Both facts come from summaries computed over the unlocked region of
// each function (everything outside the closure arguments of
// txn.LockManager acquisitions): lockedReachOf and unlockedTouchOf.
var analyzerGoroutineContext = &Analyzer{
	Name: "goroutine-context",
	Doc:  "lock facts never transfer into spawned goroutines: no *Locked calls or spawner-locked table access without re-acquisition",
	Run:  runGoroutineContext,
}

func runGoroutineContext(p *Pass) {
	res := p.Unit.lockAnalysis()
	for _, f := range res.spawn {
		if f.pkg == p.Pkg {
			p.Reportf(f.pos, "%s", f.msg)
		}
	}
}

// isLockedContractFn reports whether fn carries the core package's
// *Locked caller-holds-locks contract (shared with the lock walker).
func isLockedContractFn(fn *types.Func, corePkg string) bool {
	return strings.HasSuffix(fn.Name(), "Locked") &&
		fn.Pkg() != nil && fn.Pkg().Path() == corePkg
}

// lockAcquireLits returns the function literals in body that are the
// closure argument of a txn.LockManager acquisition — the regions that
// run under locks. Everything else in body is the "unlocked region" the
// spawn summaries range over.
func (u *Unit) lockAcquireLits(info *types.Info, body ast.Node) map[*ast.FuncLit]bool {
	out := map[*ast.FuncLit]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return true
		}
		if !isLockAcquire(CalleeOf(info, call), u.Cfg.TxnPkg) {
			return true
		}
		if lit, ok := ast.Unparen(call.Args[len(call.Args)-1]).(*ast.FuncLit); ok {
			out[lit] = true
		}
		return true
	})
	return out
}

// inspectUnlocked walks body like ast.Inspect but skips the bodies of
// lock-acquire closure arguments: the visit function only sees code
// that would run without locks if body itself ran without locks.
func (u *Unit) inspectUnlocked(info *types.Info, body ast.Node, visit func(ast.Node) bool) {
	locked := u.lockAcquireLits(info, body)
	ast.Inspect(body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok && locked[lit] {
			return false
		}
		return visit(n)
	})
}

// lockedReachOf returns a core *Locked function reachable from fn's
// unlocked region through static calls (fn itself if it carries the
// contract), or nil when every path to a *Locked helper first acquires
// a lock. Memoized per Unit; cycles conservatively resolve to nil
// (fewer findings, never false ones).
func (u *Unit) lockedReachOf(fn *types.Func) *types.Func {
	u.spawnMu.Lock()
	defer u.spawnMu.Unlock()
	return u.lockedReachLocked(fn, map[*types.Func]bool{})
}

func (u *Unit) lockedReachLocked(fn *types.Func, visiting map[*types.Func]bool) *types.Func {
	if isLockedContractFn(fn, u.Cfg.CorePkg) {
		return fn
	}
	if u.reachMemo == nil {
		u.reachMemo = map[*types.Func]*types.Func{}
	}
	if r, ok := u.reachMemo[fn]; ok {
		return r
	}
	if visiting[fn] {
		return nil
	}
	di := u.declOf(fn)
	if di == nil {
		u.reachMemo[fn] = nil
		return nil
	}
	visiting[fn] = true
	var found *types.Func
	u.inspectUnlocked(di.pkg.Info, di.decl.Body, func(n ast.Node) bool {
		if found != nil {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		f := CalleeOf(di.pkg.Info, call)
		if f == nil {
			return true
		}
		if r := u.lockedReachLocked(f, visiting); r != nil {
			found = r
			return false
		}
		return true
	})
	delete(visiting, fn)
	u.reachMemo[fn] = found
	return found
}

// unlockedTouchOf returns the table keys fn's unlocked region touches —
// reads (Database.Bag, Table.Data) and writes (Table mutators, bag
// mutators through Data(), ApplyAssignments) — transitively through
// static calls, with the position of the first touch. Keys use the same
// abstraction as lock tokens ("mv_a" quoted for constants, source text
// for dynamic names), so they are directly comparable with a spawner's
// held set. Memoized per Unit with a pre-published map as the
// recursion guard, like writeSummary.
func (u *Unit) unlockedTouchOf(fn *types.Func) map[string]token.Pos {
	u.spawnMu.Lock()
	defer u.spawnMu.Unlock()
	return u.unlockedTouchLocked(fn)
}

func (u *Unit) unlockedTouchLocked(fn *types.Func) map[string]token.Pos {
	if u.touchMemo == nil {
		u.touchMemo = map[*types.Func]map[string]token.Pos{}
	}
	if sum, ok := u.touchMemo[fn]; ok {
		return sum
	}
	sum := map[string]token.Pos{}
	u.touchMemo[fn] = sum // pre-publish: recursion guard
	di := u.declOf(fn)
	if di == nil {
		return sum
	}
	u.collectUnlockedTouches(di.pkg.Info, di.decl.Body, di.decl.Body, sum)
	return sum
}

// collectUnlockedTouches records the table-touch events of the unlocked
// region of body into sum. bindScope is the node table bindings are
// resolved against — for a spawned closure that captures a table
// variable this is the whole enclosing declaration, so `tb, _ :=
// db.Table("x")` outside the closure still identifies tb inside it.
// Callers must hold u.spawnMu.
func (u *Unit) collectUnlockedTouches(info *types.Info, bindScope, body ast.Node, sum map[string]token.Pos) {
	cfg := u.Cfg
	binds := tableBindings(info, bindScope, cfg.StoragePkg)
	record := func(key string, pos token.Pos) {
		if key == "" {
			return
		}
		if _, ok := sum[key]; !ok {
			sum[key] = pos
		}
	}
	u.inspectUnlocked(info, body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		f := CalleeOf(info, call)
		if f == nil {
			return true
		}
		switch {
		case tableMutators[f.Name()] && isMethodOn(f, cfg.StoragePkg, "Table"):
			record(receiverTableKey(info, call, binds), call.Pos())
		case bagMutators[f.Name()] && isMethodOn(f, cfg.BagPkg, "Bag"):
			if dc := dataCallInChain(info, call, cfg.StoragePkg); dc != nil {
				record(receiverTableKey(info, dc, binds), call.Pos())
			}
		case f.Name() == "ApplyAssignments" && f.Pkg() != nil && f.Pkg().Path() == cfg.TxnPkg:
			for _, key := range assignmentKeys(info, bindScope, cfg.TxnPkg) {
				record(key, call.Pos())
			}
		case f.Name() == "Bag" && isMethodOn(f, cfg.StoragePkg, "Database"):
			if len(call.Args) == 1 {
				record(exprKey(info, call.Args[0]), call.Pos())
			}
		case f.Name() == "Data" && isMethodOn(f, cfg.StoragePkg, "Table"):
			record(receiverTableKey(info, call, binds), call.Pos())
		default:
			if u.decls[f] != nil {
				for key := range u.unlockedTouchLocked(f) {
					record(key, call.Pos())
				}
			}
		}
		return true
	})
}

// spawnFacts summarizes what a spawned body can do with no locks held.
type spawnFacts struct {
	reach *types.Func          // a *Locked function reachable lock-free
	touch map[string]token.Pos // table keys touched lock-free
}

// factsForLit computes spawn facts for a function literal spawned (or
// handed to a spawning parameter) inside the declaration whose body is
// bindScope.
func (u *Unit) factsForLit(info *types.Info, bindScope ast.Node, lit *ast.FuncLit) spawnFacts {
	u.spawnMu.Lock()
	defer u.spawnMu.Unlock()
	facts := spawnFacts{touch: map[string]token.Pos{}}
	u.collectUnlockedTouches(info, bindScope, lit.Body, facts.touch)
	u.inspectUnlocked(info, lit.Body, func(n ast.Node) bool {
		if facts.reach != nil {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if f := CalleeOf(info, call); f != nil {
			if r := u.lockedReachLocked(f, map[*types.Func]bool{}); r != nil {
				facts.reach = r
				return false
			}
		}
		return true
	})
	return facts
}

// factsForFunc computes spawn facts for a named function or method
// value that is spawned.
func (u *Unit) factsForFunc(fn *types.Func) spawnFacts {
	return spawnFacts{reach: u.lockedReachOf(fn), touch: u.unlockedTouchOf(fn)}
}
