package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// analyzerSharedStateEscape tracks references that alias the engine's
// shared mutable internals — the live *bag.Bag behind a table
// ((*storage.Table).Data, (*storage.Database).Bag) and bag/map/slice
// fields of the core and storage structs — with def-use alias facts.
// Two escape shapes are flagged:
//
//   - a reference obtained INSIDE a locked region (the closure argument
//     of a txn.LockManager acquisition, the body of a function that
//     takes a txn.Held, or the function literal a borrowed read — core's
//     Manager.Read or Serialized.Read — runs over the live MV, whose
//     bag parameter is such a reference from the start) must not
//     outlive it: assigning it to a variable declared outside the
//     region, storing it into a field or an outer container, sending
//     it on a channel, or returning it all let lock-free code read
//     state the lock was guarding (Clone it under the lock instead —
//     the Query pattern: a clone is a copy-on-write handle that shares
//     the map until either side is written, so it keeps the value it
//     read at a pointer's cost);
//   - an exported core/storage function must not return a direct
//     reference to an internal bag, map, or slice field: the caller
//     holds an alias into lock-guarded state with no lock protocol
//     attached. Return a clone, or suppress with the documented
//     ownership contract.
var analyzerSharedStateEscape = &Analyzer{
	Name: "shared-state-escape",
	Doc:  "references to lock-guarded engine internals never escape their locked region or leak through exported accessors",
	Run:  runSharedStateEscape,
}

func runSharedStateEscape(p *Pass) {
	for _, file := range p.Pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			p.checkEscapeRegions(fd)
			if p.Pkg.Path == p.Cfg.CorePkg || p.Pkg.Path == p.Cfg.StoragePkg {
				p.checkAccessorLeak(fd)
			}
		}
	}
}

// checkEscapeRegions finds the locked regions of fd and runs the
// escape analysis over each: every lock-acquire closure argument, plus
// the whole body when fd takes a txn.Held.
func (p *Pass) checkEscapeRegions(fd *ast.FuncDecl) {
	info := p.Pkg.Info
	if fn, ok := info.Defs[fd.Name].(*types.Func); ok && takesHeld(fn, p.Cfg.TxnPkg) {
		p.checkRegion(fd.Body, fd.Name.Name+" (it takes a txn.Held: its caller holds the lock)", nil)
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return true
		}
		lit, ok := ast.Unparen(call.Args[len(call.Args)-1]).(*ast.FuncLit)
		if !ok {
			return true
		}
		switch f := CalleeOf(info, call); {
		case isLockAcquire(f, p.Cfg.TxnPkg):
			p.checkRegion(lit.Body, "the locked region", nil)
		case f != nil && f.Name() == "Read" && (isMethodOn(f, p.Cfg.CorePkg, "Manager") || isMethodOn(f, p.Cfg.CorePkg, "Serialized")):
			// The callback's bag IS the live MV, lent for the call.
			lent := map[types.Object]string{}
			for _, obj := range p.bagParams(lit.Type) {
				lent[obj] = "the view's MV, lent by " + f.Name()
			}
			p.checkRegion(lit.Body, "the borrowed read", lent)
		}
		return true
	})
}

// isLockAcquire reports whether f is one of LockManager's acquisitions.
func isLockAcquire(f *types.Func, txnPkg string) bool {
	if f == nil {
		return false
	}
	if !strings.HasPrefix(f.Name(), "WithWrite") && !strings.HasPrefix(f.Name(), "WithRead") {
		return false
	}
	return isMethodOn(f, txnPkg, "LockManager")
}

// isHeld reports whether t is txn.Held.
func isHeld(t types.Type, txnPkg string) bool {
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == "Held" && named.Obj().Pkg() != nil && named.Obj().Pkg().Path() == txnPkg
}

// takesHeld reports whether fn has a txn.Held parameter: its caller
// holds an MV write lock.
func takesHeld(fn *types.Func, txnPkg string) bool {
	params := fn.Type().(*types.Signature).Params()
	for i := 0; i < params.Len(); i++ {
		if isHeld(params.At(i).Type(), txnPkg) {
			return true
		}
	}
	return false
}

// isInternalRefCall reports whether call returns a reference aliasing
// live table storage: (*storage.Table).Data() or
// (*storage.Database).Bag(...).
func isInternalRefCall(info *types.Info, call *ast.CallExpr, storagePkg string) bool {
	f := CalleeOf(info, call)
	if f == nil {
		return false
	}
	return (f.Name() == "Data" && isMethodOn(f, storagePkg, "Table")) ||
		(f.Name() == "Bag" && isMethodOn(f, storagePkg, "Database"))
}

// checkRegion runs the def-use escape analysis over one locked region.
// lent holds the objects that alias live table state on entry (a
// borrowed read's parameter), by description; nil for none.
func (p *Pass) checkRegion(body ast.Node, regionDesc string, lent map[types.Object]string) {
	info := p.Pkg.Info

	// Pass A: taint fixpoint. tainted maps a local object to the source
	// text of the internal reference it aliases.
	tainted := map[types.Object]string{}
	for obj, src := range lent {
		tainted[obj] = src
	}
	var taintOf func(e ast.Expr) (string, bool)
	taintOf = func(e ast.Expr) (string, bool) {
		switch e := ast.Unparen(e).(type) {
		case *ast.CallExpr:
			if isInternalRefCall(info, e, p.Cfg.StoragePkg) {
				return types.ExprString(e), true
			}
			// append propagates aliasing: the result's backing array can
			// still hold the tainted reference.
			if id, ok := ast.Unparen(e.Fun).(*ast.Ident); ok && id.Name == "append" {
				for _, a := range e.Args {
					if src, ok := taintOf(a); ok {
						return src, true
					}
				}
			}
		case *ast.Ident:
			if obj := info.Uses[e]; obj != nil {
				if src, ok := tainted[obj]; ok {
					return src, true
				}
			}
		}
		return "", false
	}
	for changed := true; changed; {
		changed = false
		mark := func(lhs ast.Expr, src string) {
			id, ok := lhs.(*ast.Ident)
			if !ok {
				return
			}
			obj := info.Defs[id]
			if obj == nil {
				obj = info.Uses[id]
			}
			if obj == nil {
				return
			}
			if _, seen := tainted[obj]; !seen {
				tainted[obj] = src
				changed = true
			}
		}
		ast.Inspect(body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok {
				return true
			}
			switch {
			case len(as.Lhs) == len(as.Rhs):
				for i := range as.Lhs {
					if src, ok := taintOf(as.Rhs[i]); ok {
						mark(as.Lhs[i], src)
					}
				}
			case len(as.Rhs) == 1:
				// b, ok := db.Bag("mv_a"): the reference is result 0.
				if src, ok := taintOf(as.Rhs[0]); ok {
					mark(as.Lhs[0], src)
				}
			}
			return true
		})
	}

	// insideRegion reports whether an object's declaration sits inside
	// the region — the variables whose lifetime the lock bounds.
	insideRegion := func(obj types.Object) bool {
		return obj != nil && body.Pos() <= obj.Pos() && obj.Pos() <= body.End()
	}

	// Pass B: sinks, with function-literal depth so a `return` inside a
	// nested closure is not mistaken for leaving the region.
	var walk func(n ast.Node, depth int)
	walk = func(n ast.Node, depth int) {
		if n == nil {
			return
		}
		ast.Inspect(n, func(m ast.Node) bool {
			switch m := m.(type) {
			case *ast.FuncLit:
				if ast.Node(m) == n {
					return true
				}
				walk(m.Body, depth+1)
				return false
			case *ast.AssignStmt:
				sink := func(rawLHS ast.Expr, src string) {
					switch lhs := ast.Unparen(rawLHS).(type) {
					case *ast.Ident:
						obj := info.Defs[lhs]
						if obj == nil {
							obj = info.Uses[lhs]
						}
						if obj != nil && !insideRegion(obj) {
							p.Reportf(m.Pos(),
								"%s (aliasing live table state) is assigned to %s, which outlives %s; the reference escapes the lock — Clone() under the lock instead",
								src, lhs.Name, regionDesc)
						}
					case *ast.SelectorExpr:
						p.Reportf(m.Pos(),
							"%s (aliasing live table state) is stored into field %s and outlives %s; the reference escapes the lock — Clone() under the lock instead",
							src, types.ExprString(lhs), regionDesc)
					case *ast.IndexExpr:
						if base, ok := ast.Unparen(lhs.X).(*ast.Ident); ok {
							if obj := info.Uses[base]; obj != nil && insideRegion(obj) {
								return
							}
						}
						p.Reportf(m.Pos(),
							"%s (aliasing live table state) is stored into container %s that outlives %s; the reference escapes the lock — Clone() under the lock instead",
							src, types.ExprString(lhs.X), regionDesc)
					}
				}
				switch {
				case len(m.Lhs) == len(m.Rhs):
					for i := range m.Lhs {
						if src, ok := taintOf(m.Rhs[i]); ok {
							sink(m.Lhs[i], src)
						}
					}
				case len(m.Rhs) == 1:
					if src, ok := taintOf(m.Rhs[0]); ok {
						sink(m.Lhs[0], src)
					}
				}
			case *ast.SendStmt:
				if src, ok := taintOf(m.Value); ok {
					p.Reportf(m.Pos(),
						"%s (aliasing live table state) is sent on a channel out of %s; the receiver reads lock-guarded state with no lock held — Clone() under the lock instead",
						src, regionDesc)
				}
			case *ast.ReturnStmt:
				if depth != 0 {
					return true
				}
				for _, r := range m.Results {
					if src, ok := taintOf(r); ok {
						p.Reportf(m.Pos(),
							"%s (aliasing live table state) is returned out of %s; the caller keeps the reference after the lock releases — Clone() under the lock instead",
							src, regionDesc)
					}
				}
			}
			return true
		})
	}
	walk(body, 0)
}

// checkAccessorLeak flags exported core/storage functions that return a
// direct reference to an internal bag, map, or slice field: the alias
// outlives every lock the engine takes around that state.
func (p *Pass) checkAccessorLeak(fd *ast.FuncDecl) {
	if !fd.Name.IsExported() {
		return
	}
	info := p.Pkg.Info

	// Local aliases of internal field references: x := t.data.
	alias := map[types.Object]string{}
	fieldRef := func(e ast.Expr) (string, bool) {
		switch e := ast.Unparen(e).(type) {
		case *ast.SelectorExpr:
			obj := info.Uses[e.Sel]
			v, ok := obj.(*types.Var)
			if !ok || !v.IsField() || v.Pkg() == nil {
				return "", false
			}
			if v.Pkg().Path() != p.Cfg.CorePkg && v.Pkg().Path() != p.Cfg.StoragePkg {
				return "", false
			}
			if !sharedMutableType(v.Type()) {
				return "", false
			}
			return types.ExprString(e), true
		case *ast.Ident:
			if obj := info.Uses[e]; obj != nil {
				if src, ok := alias[obj]; ok {
					return src, true
				}
			}
		}
		return "", false
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i := range as.Lhs {
			if src, ok := fieldRef(as.Rhs[i]); ok {
				if id, isID := as.Lhs[i].(*ast.Ident); isID {
					if obj := info.Defs[id]; obj != nil {
						alias[obj] = src
					}
				}
			}
		}
		return true
	})

	var walk func(n ast.Node, depth int)
	walk = func(n ast.Node, depth int) {
		ast.Inspect(n, func(m ast.Node) bool {
			switch m := m.(type) {
			case *ast.FuncLit:
				if ast.Node(m) == n {
					return true
				}
				walk(m.Body, depth+1)
				return false
			case *ast.ReturnStmt:
				if depth != 0 {
					return true
				}
				for _, r := range m.Results {
					if src, ok := fieldRef(r); ok {
						p.Reportf(m.Pos(),
							"exported %s returns %s, a direct reference to an internal %s; callers bypass the lock protocol on shared engine state — return a clone or document the ownership contract",
							fd.Name.Name, src, typeClass(info, r))
					}
				}
			}
			return true
		})
	}
	walk(fd.Body, 0)
}

// sharedMutableType reports whether t is one of the aliasing-dangerous
// internal state types: *bag.Bag, a map, or a slice.
func sharedMutableType(t types.Type) bool {
	if t == nil {
		return false
	}
	if ptr, ok := t.(*types.Pointer); ok {
		named, ok := ptr.Elem().(*types.Named)
		if ok && named.Obj().Name() == "Bag" && named.Obj().Pkg() != nil &&
			named.Obj().Pkg().Name() == "bag" {
			return true
		}
		return false
	}
	switch t.Underlying().(type) {
	case *types.Map, *types.Slice:
		return true
	}
	return false
}

// typeClass names the class of an expression's type for diagnostics.
func typeClass(info *types.Info, e ast.Expr) string {
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil {
		return "reference"
	}
	switch tv.Type.Underlying().(type) {
	case *types.Map:
		return "map"
	case *types.Slice:
		return "slice"
	}
	return "bag"
}

// bagParams returns the named *bag.Bag parameters of a function type.
func (p *Pass) bagParams(typ *ast.FuncType) []types.Object {
	if typ.Params == nil {
		return nil
	}
	var out []types.Object
	for _, field := range typ.Params.List {
		for _, id := range field.Names {
			if obj := p.Pkg.Info.Defs[id]; obj != nil && isPtrToNamed(obj.Type(), p.Cfg.BagPkg, "Bag") {
				out = append(out, obj)
			}
		}
	}
	return out
}
