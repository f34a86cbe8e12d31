package lint

import (
	"go/ast"
	"go/types"
	"sort"
)

// analyzerClosurePurity guards the property the paper's correctness
// argument rests on: a compiled delta program is a pure function of
// its input bags. algebra.Compile fuses each Figure-2 delta expression
// into a tree of closures; if one of those closures wrote a captured
// variable, or captured live engine state (a map, a bag, a storage
// table) instead of a compile-time constant, then compiled and
// interpreted evaluation could diverge — two refreshes of the same log
// window could disagree, and every INV_* invariant check downstream
// would be measuring a moving target.
//
// The analyzer walks the static call graph from the compile roots —
// every function named Compile in the algebra package, plus the Bind
// methods that compile predicates — restricted to algebra-package
// callees, and checks every outermost function literal in the reached
// functions:
//
//   - no write to a variable captured from outside the literal (direct
//     assignment, assignment through a selector/index on a captured
//     base, ++/--, delete, or channel send); mutating state through
//     the *State parameter is the sanctioned channel and is naturally
//     exempt, since the parameter is declared inside the literal;
//   - no capture of mutable engine state: a variable of map type, a
//     bag.Bag, or a storage Table. A *bag.Bag local that the compiling
//     function created fresh — Clone(), bag.New(), bag.FromTuples() —
//     is allowed (the closure privately owns it; this is the
//     Literal-node `lit := n.Bag.Clone()` idiom, and the clone is a
//     copy-on-write handle: it shares the source's map until either
//     side is written, and the first write copies), as are journal-synced
//     bag.Index handles, whose mutation discipline is enforced on the
//     bag side.
//
// "Outermost" matters: the bag-builder callbacks a compiled node
// passes to Each/Project write an `out` bag declared inside the
// enclosing compiled closure — local state of one evaluation, not a
// capture across evaluations — so the capture boundary is the
// outermost literal, and nested literals are checked as part of it.
var analyzerClosurePurity = &Analyzer{
	Name: "closure-purity",
	Doc:  "closures compiled into delta programs must not write captures or capture mutable engine state",
	Run:  runClosurePurity,
}

func runClosurePurity(p *Pass) {
	if p.Pkg.Path != p.Cfg.AlgebraPkg {
		return // all compile roots and reached functions live there
	}
	u := p.Unit
	u.ensureDecls()
	// Roots: Compile entry points and predicate Bind methods.
	var roots []*declInfo
	for _, di := range u.declList {
		if di.pkg.Path != p.Cfg.AlgebraPkg {
			continue
		}
		name := di.fn.Name()
		if name == "Compile" || name == "Bind" {
			roots = append(roots, di)
		}
	}
	// BFS over static calls (deferred ones included) within the algebra
	// package. Dynamic calls are excluded on purpose: a compiled closure
	// calling a bound predicate value would otherwise pull in every
	// signature-compatible function in the module.
	reached := map[*types.Func]*declInfo{}
	queue := append([]*declInfo(nil), roots...)
	for len(queue) > 0 {
		di := queue[0]
		queue = queue[1:]
		if reached[di.fn] != nil {
			continue
		}
		reached[di.fn] = di
		ast.Inspect(di.decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if f := CalleeOf(di.pkg.Info, call); f != nil {
				if callee := u.declOf(f); callee != nil && callee.pkg.Path == p.Cfg.AlgebraPkg && reached[f] == nil {
					queue = append(queue, callee)
				}
			}
			return true
		})
	}
	var order []*declInfo
	for _, di := range reached {
		order = append(order, di)
	}
	sort.Slice(order, func(i, j int) bool { return order[i].decl.Pos() < order[j].decl.Pos() })
	for _, di := range order {
		var outermost []*ast.FuncLit
		ast.Inspect(di.decl.Body, func(n ast.Node) bool {
			if lit, ok := n.(*ast.FuncLit); ok {
				outermost = append(outermost, lit)
				return false // nested literals belong to this one's scope
			}
			return true
		})
		for _, lit := range outermost {
			p.checkCompiledClosure(di, lit)
		}
	}
}

// checkCompiledClosure enforces the two purity rules over one
// outermost compiled literal.
func (p *Pass) checkCompiledClosure(di *declInfo, lit *ast.FuncLit) {
	info := di.pkg.Info
	captured := func(obj types.Object) bool {
		if obj == nil || !obj.Pos().IsValid() {
			return false
		}
		v, isVar := obj.(*types.Var)
		// Struct fields are excluded: a field's definition is always
		// outside the literal, and field access through the *State
		// parameter is the sanctioned mutation channel.
		return isVar && !v.IsField() && (obj.Pos() < lit.Pos() || obj.Pos() > lit.End())
	}
	reportedWrite := map[types.Object]bool{}
	reportedCapture := map[types.Object]bool{}
	writeTo := func(e ast.Expr) {
		id := baseIdent(e)
		if id == nil {
			return
		}
		obj := info.Uses[id]
		if obj == nil {
			obj = info.Defs[id]
		}
		if !captured(obj) || reportedWrite[obj] {
			return
		}
		reportedWrite[obj] = true
		p.Reportf(id.Pos(),
			"compiled closure writes captured variable %s; delta programs must be pure functions of their input bags (mutate only through *State)",
			id.Name)
	}
	ast.Inspect(lit, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				writeTo(lhs)
			}
		case *ast.IncDecStmt:
			writeTo(n.X)
		case *ast.SendStmt:
			writeTo(n.Chan)
		case *ast.CallExpr:
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && id.Name == "delete" && len(n.Args) > 0 {
				if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
					writeTo(n.Args[0])
				}
			}
		case *ast.Ident:
			obj := info.Uses[n]
			if !captured(obj) || reportedCapture[obj] {
				return true
			}
			kind, banned := p.mutableEngineState(obj.Type())
			if !banned || p.freshLocalBag(di, obj) {
				return true
			}
			reportedCapture[obj] = true
			p.Reportf(n.Pos(),
				"compiled closure captures %s %s; snapshot it at compile time (Clone/bag.New) or reach it through *State",
				kind, n.Name)
		}
		return true
	})
}

// mutableEngineState classifies types whose capture would make a
// compiled closure observe (or mutate) live engine state: maps, bags,
// and storage tables. bag.Index handles are deliberately absent — they
// are journal-synced, and the bag layer owns their discipline.
func (p *Pass) mutableEngineState(t types.Type) (string, bool) {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		obj := named.Obj()
		if obj.Pkg() != nil {
			switch {
			case obj.Pkg().Path() == p.Cfg.BagPkg && obj.Name() == "Bag":
				return "live bag", true
			case obj.Pkg().Path() == p.Cfg.StoragePkg && obj.Name() == "Table":
				return "storage table", true
			}
		}
	}
	if _, ok := t.Underlying().(*types.Map); ok {
		return "mutable map", true
	}
	return "", false
}

// freshLocalBag reports whether obj is a local of the compiling
// function initialized exactly once from a constructor that hands back a
// bag of its own (Clone — a copy-on-write handle — New, NewSized,
// FromTuples): one the closure may own.
func (p *Pass) freshLocalBag(di *declInfo, obj types.Object) bool {
	info := di.pkg.Info
	defs := 0
	fresh := false
	ast.Inspect(di.decl.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, lhs := range as.Lhs {
			id, ok := ast.Unparen(lhs).(*ast.Ident)
			if !ok {
				continue
			}
			if info.Defs[id] != obj && info.Uses[id] != obj {
				continue
			}
			defs++
			if len(as.Lhs) != len(as.Rhs) {
				continue
			}
			call, ok := ast.Unparen(as.Rhs[i]).(*ast.CallExpr)
			if !ok {
				continue
			}
			name := calleeName(info, call)
			if name == "Clone" || name == "New" || name == "NewSized" || name == "FromTuples" {
				fresh = true
			}
		}
		return true
	})
	return fresh && defs == 1
}

// calleeName returns the bare name of a call's callee (function or
// method), or "".
func calleeName(info *types.Info, call *ast.CallExpr) string {
	if f := CalleeOf(info, call); f != nil {
		return f.Name()
	}
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		return sel.Sel.Name
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		return id.Name
	}
	return ""
}
