package lint

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strconv"
	"strings"
)

// lockstate.go is the lock-state abstract interpreter: a whole-module
// fixpoint that propagates the set of table/view locks held (acquired
// through txn.LockManager's WithWrite/WithRead and their *Span
// variants) along call paths. Two facts fall out of the fixpoint:
//
//   - may-hold: the union of lock sets a function may run under,
//     across every call path that reaches it (used by lock-order to
//     build the global acquisition-order graph);
//   - all-locked: whether every known call site of a function holds at
//     least one lock (used by locked-contract to prove that a *Locked
//     helper is only reachable from under a lock, replacing the old
//     lexical suffix heuristic of lock-discipline).
//
// Locks are abstracted as tokens: a constant table name becomes the
// quoted string ("mv_a"), a dynamic element its source expression
// (v.mvName). Matching by expression text under-approximates runtime
// aliasing, which is the conservative direction for deadlock edges
// (identical text on one call path is the same lock).
//
// Function literals: a literal passed to WithWrite/WithRead runs under
// the acquired locks; an immediately invoked or deferred literal runs
// in the enclosing context (defers inside a critical section fire
// before the locks release); a literal launched with go or escaping as
// a value runs with no provable locks.

// lockTok is one abstract lock: display is the token identity.
type lockTok struct {
	display string // `"table"` for constants, expression text otherwise
	sym     bool   // true when display is an expression, not a constant
	write   bool
}

// orderEdge records "while holding from, to was acquired" at pos.
type orderEdge struct {
	from, to string
	fromSym  bool
	toSym    bool
	pkg      *Package
	pos      token.Pos
}

// lockFinding is an interprocedural finding tagged with its package so
// per-package passes can claim it.
type lockFinding struct {
	pkg *Package
	pos token.Pos
	msg string
}

// lockResult is the output of the lock-state fixpoint.
type lockResult struct {
	edges    []orderEdge
	self     []lockFinding // re-acquisition of a held lock
	contract []lockFinding // *Locked called where no lock is provable
}

// lockAnalysis runs the fixpoint once per Unit and caches the result.
func (u *Unit) lockAnalysis() *lockResult {
	if u.lock != nil {
		return u.lock
	}
	u.ensureDecls()
	w := &lockWalker{
		u:         u,
		cfg:       u.Cfg,
		entryMay:  map[*types.Func]map[string]lockTok{},
		allLocked: map[*types.Func]bool{},
	}
	// Iterate until the entry may-sets and the all-locked facts are
	// stable. Both grow monotonically (may-sets by union, all-locked
	// from false upward once every recorded site is locked), so the
	// loop terminates; the bound is a safety net.
	for iter := 0; iter < 2*len(u.declList)+2; iter++ {
		w.changed = false
		w.hasSite = map[*types.Func]bool{}
		w.unlockedSite = map[*types.Func]bool{}
		for _, di := range u.declList {
			w.walkDecl(di)
		}
		for _, di := range u.declList {
			now := w.hasSite[di.fn] && !w.unlockedSite[di.fn]
			if now != w.allLocked[di.fn] {
				w.allLocked[di.fn] = now
				w.changed = true
			}
		}
		if !w.changed {
			break
		}
	}
	// Final reporting pass over the stable state.
	w.final = true
	w.res = &lockResult{}
	w.seen = map[string]bool{}
	w.hasSite = map[*types.Func]bool{}
	w.unlockedSite = map[*types.Func]bool{}
	for _, di := range u.declList {
		w.walkDecl(di)
	}
	u.lock = w.res
	return u.lock
}

// lockWalker carries the fixpoint state across iterations.
type lockWalker struct {
	u   *Unit
	cfg Config

	entryMay  map[*types.Func]map[string]lockTok
	allLocked map[*types.Func]bool

	hasSite      map[*types.Func]bool
	unlockedSite map[*types.Func]bool
	changed      bool

	final bool
	res   *lockResult
	seen  map[string]bool // dedup for edges and findings

	// per-declaration state
	curPkg   *Package
	litBound map[*ast.FuncLit]bool // literals walked from a lock-acquire site
}

// isCoreLocked reports whether fn carries the *Locked contract of the
// core package.
func (w *lockWalker) isCoreLocked(fn *types.Func) bool {
	return isLockedContractFn(fn, w.cfg.CorePkg)
}

// isLockedContractFn reports whether fn carries the core package's
// *Locked caller-holds-locks contract (shared with shared-state-escape).
func isLockedContractFn(fn *types.Func, corePkg string) bool {
	return strings.HasSuffix(fn.Name(), "Locked") &&
		fn.Pkg() != nil && fn.Pkg().Path() == corePkg
}

// walkDecl analyzes one function declaration under its entry facts.
// Inside a *Locked function the contract itself grants the locks (the
// caller-side check enforces that the grant is justified); otherwise
// the body is locked only if every known call site was.
func (w *lockWalker) walkDecl(di *declInfo) {
	w.curPkg = di.pkg
	w.litBound = map[*ast.FuncLit]bool{}
	w.markBoundLits(di)
	held := map[string]lockTok{}
	for k, v := range w.entryMay[di.fn] {
		held[k] = v
	}
	locked := w.isCoreLocked(di.fn) || w.allLocked[di.fn]
	w.walk(di.decl.Body, held, locked)
}

// markBoundLits finds function literals bound to local variables that
// are only ever used as the closure argument of a lock acquisition;
// those are walked from the acquire site (under the lock) instead of
// at their definition.
func (w *lockWalker) markBoundLits(di *declInfo) {
	info := di.pkg.Info
	binds := map[types.Object]*ast.FuncLit{}
	ast.Inspect(di.decl.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
			return true
		}
		id, ok := as.Lhs[0].(*ast.Ident)
		if !ok {
			return true
		}
		lit, ok := as.Rhs[0].(*ast.FuncLit)
		if !ok {
			return true
		}
		obj := info.Defs[id]
		if obj == nil {
			obj = info.Uses[id]
		}
		if obj != nil {
			binds[obj] = lit
		}
		return true
	})
	if len(binds) == 0 {
		return
	}
	// A bound literal stays bound only if all its other uses are the
	// closure argument of a lock acquisition.
	uses := map[types.Object]int{}
	lockArg := map[types.Object]int{}
	ast.Inspect(di.decl.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && isLockAcquire(CalleeOf(info, call), w.cfg.TxnPkg) && len(call.Args) > 0 {
			if id, ok := ast.Unparen(call.Args[len(call.Args)-1]).(*ast.Ident); ok {
				if obj := info.Uses[id]; obj != nil && binds[obj] != nil {
					lockArg[obj]++
				}
			}
		}
		if id, ok := n.(*ast.Ident); ok {
			if obj := info.Uses[id]; obj != nil && binds[obj] != nil {
				uses[obj]++
			}
		}
		return true
	})
	for obj, lit := range binds {
		if lockArg[obj] > 0 && uses[obj] == lockArg[obj] {
			w.litBound[lit] = true
		}
	}
}

// walk interprets one body region under the given held set and
// locked-context flag.
func (w *lockWalker) walk(n ast.Node, held map[string]lockTok, locked bool) {
	if n == nil {
		return
	}
	ast.Inspect(n, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.FuncLit:
			if ast.Node(m) == n {
				return true
			}
			if w.litBound[m] {
				return false // walked from its lock-acquire site
			}
			// Escaping literal: may run at any time, no provable locks.
			w.walk(m.Body, map[string]lockTok{}, false)
			return false
		case *ast.GoStmt:
			// Arguments evaluate here; the spawned call runs later with
			// no provable locks, like an escaping literal (single-writer
			// reports the statement itself).
			for _, arg := range m.Call.Args {
				w.walk(arg, held, locked)
			}
			if lit, ok := ast.Unparen(m.Call.Fun).(*ast.FuncLit); ok {
				w.walk(lit.Body, map[string]lockTok{}, false)
			} else if f := CalleeOf(w.curPkg.Info, m.Call); f != nil {
				w.recordSite(f, map[string]lockTok{}, false)
			}
			return false
		case *ast.DeferStmt:
			// Defers inside a critical section run before the locks
			// release, so they keep the enclosing context.
			if lit, ok := ast.Unparen(m.Call.Fun).(*ast.FuncLit); ok {
				for _, arg := range m.Call.Args {
					w.walk(arg, held, locked)
				}
				w.walk(lit.Body, held, locked)
				return false
			}
			w.call(m.Call, held, locked)
			return false
		case *ast.CallExpr:
			return w.call(m, held, locked)
		}
		return true
	})
}

// call handles one call expression; the return value tells ast.Inspect
// whether to keep descending (false when the walker already recursed
// into the arguments itself).
func (w *lockWalker) call(call *ast.CallExpr, held map[string]lockTok, locked bool) bool {
	info := w.curPkg.Info
	f := CalleeOf(info, call)
	if isLockAcquire(f, w.cfg.TxnPkg) {
		w.acquire(call, held, locked)
		return false
	}
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		// Immediately invoked literal: runs here, same context.
		for _, arg := range call.Args {
			w.walk(arg, held, locked)
		}
		w.walk(lit.Body, held, locked)
		return false
	}
	if f != nil {
		if di := w.u.declOf(f); di != nil {
			w.recordSite(f, held, locked)
			if w.final && w.isCoreLocked(f) && !locked {
				w.report(&w.res.contract, call.Pos(),
					"%s requires the caller to hold the table locks (Locked contract) but no lock is provably held at this call",
					f.Name())
			}
		}
		return true
	}
	for _, di := range w.u.dynamicTargets(w.curPkg, call) {
		w.recordSite(di.fn, held, locked)
	}
	return true
}

// acquire models WithWrite/WithRead/WithWriteSpan/WithReadSpan: emits
// order edges and re-acquisition findings, then walks the closure
// argument under the extended lock set.
func (w *lockWalker) acquire(call *ast.CallExpr, held map[string]lockTok, locked bool) {
	if len(call.Args) == 0 {
		return
	}
	f := CalleeOf(w.curPkg.Info, call)
	write := strings.HasPrefix(f.Name(), "WithWrite")
	acq := w.tokensFromArg(call.Args[0], write)
	if w.final {
		for _, a := range acq {
			if h, ok := held[a.display]; ok {
				w.report(&w.res.self, call.Pos(),
					"acquires lock %s while a call path already holds it (%s-locked): LockManager mutexes are not reentrant, this self-deadlocks",
					a.display, modeName(h.write))
				continue
			}
			for _, h := range held {
				key := "edge|" + h.display + "|" + a.display + "|" + w.curPkg.Fset.Position(call.Pos()).String()
				if w.seen[key] {
					continue
				}
				w.seen[key] = true
				w.res.edges = append(w.res.edges, orderEdge{
					from: h.display, fromSym: h.sym,
					to: a.display, toSym: a.sym,
					pkg: w.curPkg, pos: call.Pos(),
				})
			}
		}
	}
	extended := map[string]lockTok{}
	for k, v := range held {
		extended[k] = v
	}
	for _, a := range acq {
		extended[a.display] = a
	}
	// Non-closure arguments (the table list, a parent span) evaluate in
	// the pre-acquire context.
	for _, arg := range call.Args[:len(call.Args)-1] {
		w.walk(arg, held, locked)
	}
	last := ast.Unparen(call.Args[len(call.Args)-1])
	switch fn := last.(type) {
	case *ast.FuncLit:
		w.walk(fn.Body, extended, true)
	case *ast.Ident:
		if tf, ok := w.curPkg.Info.Uses[fn].(*types.Func); ok {
			w.recordSite(tf, extended, true)
			return
		}
		// A local variable holding a literal: walk the literal under
		// the lock (markBoundLits decided whether the definition-site
		// walk is also needed).
		if lit := w.litFor(fn); lit != nil {
			w.walk(lit.Body, extended, true)
		}
	case *ast.SelectorExpr:
		if tf, ok := w.curPkg.Info.Uses[fn.Sel].(*types.Func); ok {
			w.recordSite(tf, extended, true)
		}
	}
}

// litFor resolves a local identifier to the single function literal
// assigned to it, if any.
func (w *lockWalker) litFor(id *ast.Ident) *ast.FuncLit {
	obj := w.curPkg.Info.Uses[id]
	if obj == nil {
		return nil
	}
	// litBound only marks exclusively-bound literals; re-scan the
	// declaration for the binding regardless of exclusivity.
	var found *ast.FuncLit
	ast.Inspect(declBodyOf(obj, w.u), func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
			return true
		}
		lid, ok := as.Lhs[0].(*ast.Ident)
		if !ok {
			return true
		}
		def := w.curPkg.Info.Defs[lid]
		if def == nil {
			def = w.curPkg.Info.Uses[lid]
		}
		if def == obj {
			if lit, ok := as.Rhs[0].(*ast.FuncLit); ok {
				found = lit
			}
		}
		return true
	})
	return found
}

// declBodyOf finds the enclosing declared-function body of a local
// object, falling back to an empty block.
func declBodyOf(obj types.Object, u *Unit) ast.Node {
	for _, di := range u.declList {
		if di.decl.Body != nil && di.decl.Body.Pos() <= obj.Pos() && obj.Pos() <= di.decl.Body.End() {
			return di.decl.Body
		}
	}
	return &ast.BlockStmt{}
}

// recordSite registers one call site of fn: its lockedness feeds the
// all-locked fact, its held set feeds the may-hold entry set.
func (w *lockWalker) recordSite(fn *types.Func, held map[string]lockTok, locked bool) {
	if w.u.declOf(fn) == nil {
		return
	}
	w.hasSite[fn] = true
	if !locked {
		w.unlockedSite[fn] = true
	}
	entry := w.entryMay[fn]
	if entry == nil {
		entry = map[string]lockTok{}
		w.entryMay[fn] = entry
	}
	for k, v := range held {
		if _, ok := entry[k]; !ok {
			entry[k] = v
			w.changed = true
		}
	}
}

// tokensFromArg abstracts a lock-table argument into tokens.
func (w *lockWalker) tokensFromArg(e ast.Expr, write bool) []lockTok {
	e = ast.Unparen(e)
	lit, ok := e.(*ast.CompositeLit)
	if !ok {
		return []lockTok{{display: types.ExprString(e), sym: true, write: write}}
	}
	var out []lockTok
	for _, elt := range lit.Elts {
		tv, ok := w.curPkg.Info.Types[elt]
		if ok && tv.Value != nil && tv.Value.Kind() == constant.String {
			out = append(out, lockTok{display: strconv.Quote(constant.StringVal(tv.Value)), write: write})
			continue
		}
		out = append(out, lockTok{display: types.ExprString(elt), sym: true, write: write})
	}
	return out
}

// report appends a deduplicated lockFinding.
func (w *lockWalker) report(dst *[]lockFinding, pos token.Pos, format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	key := "find|" + w.curPkg.Fset.Position(pos).String() + "|" + msg
	if w.seen[key] {
		return
	}
	w.seen[key] = true
	*dst = append(*dst, lockFinding{pkg: w.curPkg, pos: pos, msg: msg})
}

func modeName(write bool) string {
	if write {
		return "write"
	}
	return "read"
}
