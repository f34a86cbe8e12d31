package lint

import (
	"go/ast"
	"go/types"
	"sort"
)

// callgraph.go builds the whole-module call-resolution substrate the
// interprocedural analyzers stand on. Nodes are the module's declared
// functions and methods; static calls resolve through go/types, and the
// two dynamic call shapes are resolved conservatively:
//
//   - a call through an interface method resolves to every module
//     method with that name whose receiver type implements the
//     interface (types.Implements on T and *T);
//   - a call through a function value (a variable, field, or method
//     value) resolves to every module function whose address is taken
//     somewhere and whose signature is identical to the call's.
//
// Over-approximating dynamic targets keeps lock-order's reachability
// walk sound; the precision loss only widens the set of functions it
// walks under a lock.

// declInfo is one declared function or method of the module.
type declInfo struct {
	fn   *types.Func
	decl *ast.FuncDecl
	pkg  *Package
}

// ensureDecls indexes every declared function of the unit's packages
// and records which functions have their address taken (referenced
// anywhere other than as the operator of a call).
func (u *Unit) ensureDecls() {
	if u.decls != nil {
		return
	}
	u.decls = map[*types.Func]*declInfo{}
	u.addrTaken = map[*types.Func]bool{}
	for _, pkg := range u.Pkgs {
		for _, file := range pkg.Files {
			for _, d := range file.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				di := &declInfo{fn: fn, decl: fd, pkg: pkg}
				u.decls[fn] = di
				u.declList = append(u.declList, di)
			}
		}
		// Address-taken detection: first mark the identifiers that
		// are callees, then every other use of a *types.Func is a
		// value reference.
		callees := map[*ast.Ident]bool{}
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				switch fun := ast.Unparen(call.Fun).(type) {
				case *ast.Ident:
					callees[fun] = true
				case *ast.SelectorExpr:
					callees[fun.Sel] = true
				}
				return true
			})
		}
		for id, obj := range pkg.Info.Uses {
			if fn, ok := obj.(*types.Func); ok && !callees[id] {
				u.addrTaken[fn] = true
			}
		}
	}
	sort.Slice(u.declList, func(i, j int) bool {
		return u.declList[i].decl.Pos() < u.declList[j].decl.Pos()
	})
}

// declOf returns the module declaration of fn, or nil for functions
// outside the unit (standard library, interface methods).
func (u *Unit) declOf(fn *types.Func) *declInfo {
	u.ensureDecls()
	return u.decls[fn]
}

// dynamicTargets conservatively resolves a call whose callee is not a
// single statically known function: interface method calls resolve to
// all implementing module methods, function-value calls to all
// address-taken module functions of identical signature, and builtin
// calls and conversions to nothing. Results are in deterministic
// (position) order.
func (u *Unit) dynamicTargets(pkg *Package, call *ast.CallExpr) []*declInfo {
	u.ensureDecls()
	info := pkg.Info
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if s := info.Selections[sel]; s != nil && s.Kind() == types.MethodVal && types.IsInterface(s.Recv()) {
			iface, ok := s.Recv().Underlying().(*types.Interface)
			if !ok {
				return nil
			}
			var out []*declInfo
			for _, di := range u.declList {
				sig, ok := di.fn.Type().(*types.Signature)
				if !ok || sig.Recv() == nil || di.fn.Name() != sel.Sel.Name {
					continue
				}
				if types.Implements(sig.Recv().Type(), iface) {
					out = append(out, di)
				}
			}
			return out
		}
	}
	// A builtin's call (len, cap) and a conversion call no function
	// value, though go/types records a signature for the builtin, and a
	// conversion to a function type has one.
	tv, ok := info.Types[call.Fun]
	if !ok || tv.Type == nil || tv.IsBuiltin() || tv.IsType() {
		return nil
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return nil
	}
	var out []*declInfo
	for _, di := range u.declList {
		if !u.addrTaken[di.fn] {
			continue
		}
		fsig, ok := di.fn.Type().(*types.Signature)
		if ok && (sameSignature(fsig, sig) || methodExprMatches(fsig, sig)) {
			out = append(out, di)
		}
	}
	return out
}

// methodExprMatches reports whether a method's signature, viewed as a
// bound-method expression (the receiver prepended as the first
// parameter, as in `f := (*T).Work; f(t)`), matches the call-site
// signature sig. sameSignature cannot see these: the method's own
// signature keeps the receiver out of Params.
func methodExprMatches(fsig, sig *types.Signature) bool {
	if fsig.Recv() == nil || fsig.Variadic() != sig.Variadic() {
		return false
	}
	if sig.Params().Len() != fsig.Params().Len()+1 || !identicalTuples(fsig.Results(), sig.Results()) {
		return false
	}
	if !types.Identical(sig.Params().At(0).Type(), fsig.Recv().Type()) {
		return false
	}
	for i := 0; i < fsig.Params().Len(); i++ {
		if !types.Identical(fsig.Params().At(i).Type(), sig.Params().At(i+1).Type()) {
			return false
		}
	}
	return true
}

// sameSignature reports whether two signatures have identical
// parameter and result tuples (receivers are ignored, so a method
// value matches the signature it is used at).
func sameSignature(a, b *types.Signature) bool {
	if a.Variadic() != b.Variadic() {
		return false
	}
	return identicalTuples(a.Params(), b.Params()) && identicalTuples(a.Results(), b.Results())
}

func identicalTuples(a, b *types.Tuple) bool {
	if a.Len() != b.Len() {
		return false
	}
	for i := 0; i < a.Len(); i++ {
		if !types.Identical(a.At(i).Type(), b.At(i).Type()) {
			return false
		}
	}
	return true
}
