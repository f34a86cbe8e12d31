package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// analyzerLockOrder keeps the engine's locking to what the paper needs:
// one lock per view, the exclusive MV lock a refresh holds (Section 1.1,
// Figure 3), and never two at once. Its rule is that no lock acquisition
// is reachable while a lock is held. A lock is held in the callback of a
// txn.LockManager acquisition (WithWrite, WithRead and their *Span
// variants) — a literal, a local bound to one, or a named function — and
// in the body of every function with a txn.Held parameter. From those
// roots the walk follows callgraph.go's static calls and dynamic
// targets, but not a go statement (single-writer flags it); every
// acquisition it reaches is a finding. Without nesting no acquisition
// order can be inverted, no cycle closed and no non-reentrant lock
// re-taken, so the rule flags every deadlock an order graph would.
//
// A txn.Held is the proof that a write lock is held, so one made outside
// the txn package, by a composite literal or a var, is a finding too.
var analyzerLockOrder = &Analyzer{
	Name: "lock-order",
	Doc:  "no lock acquisition reachable while a lock is held, and no txn.Held made outside txn",
	Run:  runLockOrder,
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

func runLockOrder(p *Pass) {
	for _, f := range p.Unit.nestedAcquires()[p.Pkg] {
		p.Reportf(f.pos, "%s", f.msg)
	}
	if p.Pkg.Path == p.Cfg.TxnPkg {
		return
	}
	for _, file := range p.Pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			var e ast.Expr
			switch n := n.(type) {
			case *ast.CompositeLit:
				e = n
			case *ast.ValueSpec:
				e = n.Type
			}
			if e != nil && isHeld(p.Pkg.Info.TypeOf(e), p.Cfg.TxnPkg) {
				p.Reportf(n.Pos(), "txn.Held made outside txn: only the LockManager makes the proof that a write lock is held; take the Held its WithWriteSpan callback receives")
			}
			return true
		})
	}
}

// lockFinding is one acquisition reached under a lock.
type lockFinding struct {
	pos token.Pos
	msg string
}

// nestedAcquires walks the module once, from every place a lock is
// held, and returns the acquisitions it reaches by package. Each
// function is walked once, under the first root that reaches it.
func (u *Unit) nestedAcquires() map[*Package][]lockFinding {
	if u.locks != nil {
		return u.locks
	}
	u.ensureDecls()
	u.locks = map[*Package][]lockFinding{}
	txnPkg := u.Cfg.TxnPkg
	seen := map[*types.Func]bool{}
	reported := map[token.Pos]bool{}
	var walk func(pkg *Package, body ast.Node, desc string)
	enter := func(fn *types.Func, desc string) {
		if di := u.declOf(fn); di != nil && !seen[fn] {
			seen[fn] = true
			walk(di.pkg, di.decl.Body, desc)
		}
	}
	walk = func(pkg *Package, body ast.Node, desc string) {
		ast.Inspect(body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				return false
			case *ast.CallExpr:
				switch f := CalleeOf(pkg.Info, n); {
				case isLockAcquire(f, txnPkg):
					if !reported[n.Pos()] {
						reported[n.Pos()] = true
						u.locks[pkg] = append(u.locks[pkg], lockFinding{n.Pos(), f.Name() + " acquires a lock while " + desc +
							" holds one; the engine never nests acquisitions (a nesting can invert the sorted order, close a cycle, or re-take a non-reentrant lock): acquire it before or after the section"})
					}
				case f == nil || isInterfaceMethod(f):
					for _, di := range u.dynamicTargets(pkg, n) {
						enter(di.fn, desc)
					}
				default:
					enter(f, desc)
				}
			}
			return true
		})
	}
	for _, di := range u.declList {
		if takesHeld(di.fn, txnPkg) {
			enter(di.fn, di.fn.Name()+"'s caller (it takes a txn.Held)")
		}
		info := di.pkg.Info
		bound := map[types.Object][]*ast.FuncLit{} // locals assigned a literal
		ast.Inspect(di.decl.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for i := 0; i < len(n.Lhs) && len(n.Lhs) == len(n.Rhs); i++ {
					id, isID := n.Lhs[i].(*ast.Ident)
					if lit, ok := n.Rhs[i].(*ast.FuncLit); ok && isID {
						bound[info.ObjectOf(id)] = append(bound[info.ObjectOf(id)], lit)
					}
				}
			case *ast.CallExpr:
				f := CalleeOf(info, n)
				if !isLockAcquire(f, txnPkg) || len(n.Args) == 0 {
					return true
				}
				desc := "the " + f.Name() + " callback in " + di.fn.Name()
				cb := ast.Unparen(n.Args[len(n.Args)-1])
				if lit, ok := cb.(*ast.FuncLit); ok {
					walk(di.pkg, lit.Body, desc)
				} else if id, ok := cb.(*ast.Ident); ok {
					for _, lit := range bound[info.ObjectOf(id)] {
						walk(di.pkg, lit.Body, desc)
					}
				}
				if fn := CalleeOf(info, &ast.CallExpr{Fun: cb}); fn != nil {
					enter(fn, desc) // a named function or method value
				}
			}
			return true
		})
	}
	return u.locks
}

// isInterfaceMethod reports whether f is an interface's method, whose
// callee is known only at run time.
func isInterfaceMethod(f *types.Func) bool {
	recv := f.Type().(*types.Signature).Recv()
	return recv != nil && types.IsInterface(recv.Type())
}
