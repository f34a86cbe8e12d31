package lint

import (
	"go/ast"
	"go/types"
)

// analyzerErrorFlow is the one check for handled errors. Every
// maintenance transaction in this engine reports failure through an
// error; a lost one can leave an invariant (INV_BL/INV_DT/INV_C)
// silently violated, which the whole deferred-maintenance scheme
// assumes never happens. Two shapes lose one:
//
//   - a call whose error result vanishes in an expression, defer or go
//     statement, anywhere;
//   - a blank discard (`_ = ...`, `_, _ = ...`) of an error-returning
//     Write, Sync, Flush or Close METHOD call, including inside
//     deferred cleanup literals. Other blank discards are allowed: they
//     are visible in review. These four are not, because a snapshot
//     whose Close error is blank-discarded can be silently truncated,
//     and a recovery path (the WAL that ROADMAP parks) would restore a
//     corrupt warehouse without any transaction having failed.
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
// refined edges) is exempt. Both shapes exempt the fmt print family
// and strings.Builder/bytes.Buffer methods, whose errors are
// unobservable by construction (errorExempt).
var analyzerErrorFlow = &Analyzer{
	Name: "error-flow",
	Doc:  "no error result is silently dropped; Write/Sync/Flush/Close errors are blank-discarded only as cleanup on a failing path",
	Run:  runErrorFlow,
}

// Nil-state lattice bits: which values an error may hold at a program
// point.
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

// checkDiscard flags a statement that drops an error result, and a
// blank discard of a persistence-method error unless an error is
// already in flight on every path into it.
func (ef *errorFlow) checkDiscard(n ast.Node, facts flowFacts) {
	info := ef.p.Pkg.Info
	switch n := n.(type) {
	case *ast.ExprStmt:
		if call, ok := n.X.(*ast.CallExpr); ok {
			ef.checkDropped(call)
		}
	case *ast.DeferStmt:
		ef.checkDropped(n.Call)
	case *ast.GoStmt:
		ef.checkDropped(n.Call)
	}
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

// checkDropped flags a call whose error result a statement drops.
func (ef *errorFlow) checkDropped(call *ast.CallExpr) {
	t := ef.p.TypeOf(call)
	if t == nil || !resultHasError(t) {
		return
	}
	f := CalleeOf(ef.p.Pkg.Info, call)
	if f != nil && errorExempt(f) {
		return
	}
	name := "call"
	if f != nil {
		name = f.Name()
	}
	ef.p.Reportf(call.Pos(), "result of %s includes an error that is silently dropped; handle it or discard explicitly with _ =", name)
}

var errType = types.Universe.Lookup("error").Type()

func resultHasError(t types.Type) bool {
	if tup, ok := t.(*types.Tuple); ok {
		for i := 0; i < tup.Len(); i++ {
			if types.Identical(tup.At(i).Type(), errType) {
				return true
			}
		}
		return false
	}
	return types.Identical(t, errType)
}

// errorExempt reports whether f's error is conventionally ignorable:
// the fmt print family and in-memory builders that document err==nil.
func errorExempt(f *types.Func) bool {
	if f.Pkg() != nil && f.Pkg().Path() == "fmt" {
		return true
	}
	return isMethodOn(f, "strings", "Builder") || isMethodOn(f, "bytes", "Buffer")
}
