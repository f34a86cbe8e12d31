package lint

import (
	"go/ast"
	"go/types"
)

// analyzerErrorFlow closes dropped-error's two blind spots on the
// persistence path. dropped-error flags a call whose error vanishes in
// an expression statement, but deliberately allows `_ = f()` — the
// discard is visible in review. For most calls that is the right
// contract; for Write, Sync, Flush, and Close on a handle that just
// carried engine state to disk it is not: a snapshot whose Close error
// is blank-discarded can be silently truncated, and a recovery path
// (the WAL that ROADMAP parks) would restore a corrupt warehouse without
// any transaction having failed. So error-flow flags blank discards
// (`_ = ...`, `_, _ = ...`) of error-returning Write/Sync/Flush/Close
// METHOD calls everywhere, including inside deferred cleanup literals.
//
// One discard shape stays legal, and the dataflow layer is what makes
// it recognizable: cleanup on a path where an error is already in
// flight. In
//
//	if err := engine.SaveTo(f); err != nil {
//		_ = f.Close() // the snapshot is already broken
//		return err
//	}
//
// the Close error has nowhere useful to go — the save error is the one
// that matters — so a blank discard on a branch where some error
// variable is known non-nil (branch-sensitive facts from the CFG's
// refined edges) is exempt. Receivers whose errors are unobservable by
// construction (strings.Builder, bytes.Buffer) are exempt the same way
// dropped-error exempts them.
var analyzerErrorFlow = &Analyzer{
	Name: "error-flow",
	Doc:  "Write/Sync/Flush/Close errors on persistence paths must propagate; blank discards are cleanup-only",
	Run:  runErrorFlow,
}

// Nil-state lattice bits, shared with nilness: which values an object
// may hold at a program point.
const (
	nIsNil  fact = 1 << iota // may be nil
	nNonNil                  // may be non-nil
)

// persistMethods are the method names whose errors must flow.
var persistMethods = map[string]bool{
	"Write": true,
	"Sync":  true,
	"Flush": true,
	"Close": true,
}

func runErrorFlow(p *Pass) {
	eachScope(p, func(body *ast.BlockStmt, cfg *funcCFG) {
		ef := &errorFlow{p: p}
		runForward(cfg, ef, func(n ast.Node, facts flowFacts) {
			ef.checkDiscard(n, facts)
		})
	})
}

// errorFlow tracks the nil-state of local error variables so the
// check can recognize already-failing branches.
type errorFlow struct {
	p *Pass
}

func (ef *errorFlow) transfer(n ast.Node, facts flowFacts) {
	info := ef.p.Pkg.Info
	as, ok := n.(*ast.AssignStmt)
	if !ok {
		return
	}
	for i, lhs := range as.Lhs {
		obj := localObj(info, lhs)
		if obj == nil || !types.Identical(obj.Type(), errType) {
			continue
		}
		if len(as.Lhs) == len(as.Rhs) && isNilIdent(info, as.Rhs[i]) {
			facts[obj] = nIsNil
		} else {
			facts[obj] = nIsNil | nNonNil
		}
	}
}

func (ef *errorFlow) refine(cond ast.Expr, truth bool, facts flowFacts) {
	obj, isNil, ok := nilCompare(ef.p.Pkg.Info, cond)
	if !ok || obj == nil || !types.Identical(obj.Type(), errType) {
		return
	}
	mask := nNonNil
	if (truth && isNil) || (!truth && !isNil) {
		mask = nIsNil
	}
	v, tracked := facts[obj]
	if !tracked {
		// First evidence about this variable (a parameter, or a capture
		// from the enclosing scope): the comparison itself is the fact.
		facts[obj] = mask
		return
	}
	if v&mask == 0 {
		// The edge is infeasible under current facts; keep the mask so
		// the branch body is still judged under its guard.
		facts[obj] = mask
		return
	}
	facts[obj] = v & mask
}

// checkDiscard flags a blank discard of a persistence-method error,
// unless an error is already in flight on every path into it or the
// receiver's errors are unobservable.
func (ef *errorFlow) checkDiscard(n ast.Node, facts flowFacts) {
	info := ef.p.Pkg.Info
	as, ok := n.(*ast.AssignStmt)
	if !ok || len(as.Rhs) != 1 {
		return
	}
	for _, lhs := range as.Lhs {
		id, isID := ast.Unparen(lhs).(*ast.Ident)
		if !isID || id.Name != "_" {
			return
		}
	}
	call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
	if !ok {
		return
	}
	f := CalleeOf(info, call)
	if f == nil || !persistMethods[f.Name()] {
		return
	}
	sig, ok := f.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return
	}
	t := ef.p.TypeOf(call)
	if t == nil || !resultHasError(t) {
		return
	}
	if errorExempt(f) {
		return
	}
	for obj, v := range facts {
		if v == nNonNil && types.Identical(obj.Type(), errType) {
			return // cleanup under an already-failed operation
		}
	}
	recv := "receiver"
	if sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr); isSel {
		if id, isID := ast.Unparen(sel.X).(*ast.Ident); isID {
			recv = id.Name
		}
	}
	ef.p.Reportf(as.Pos(),
		"error from %s.%s is blank-discarded on a persistence path; propagate it, fold it into the return value, or record it (only cleanup on an already-failing path may discard)",
		recv, f.Name())
}
