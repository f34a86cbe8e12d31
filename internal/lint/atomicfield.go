package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
)

// analyzerAtomicDiscipline enforces the sync/atomic all-or-nothing
// rule: a struct field that is accessed through sync/atomic anywhere in
// the module must be accessed atomically everywhere. A single plain
// read can observe a torn or stale value, a plain write can be lost
// under a concurrent atomic RMW, and handing the field's address to
// non-atomic code gives up the discipline entirely. The facts are
// whole-module (computed once per Unit): field identity is the
// *types.Var, which the shared loader keeps identical across packages,
// so a field atomically written in one package and plainly read in
// another is still caught. Fields typed atomic.Int64/atomic.Value etc.
// are immune by construction (the obs counters pattern) — the type
// system already forbids plain access, and `go vet`'s copylocks covers
// copies.
var analyzerAtomicDiscipline = &Analyzer{
	Name: "atomic-discipline",
	Doc:  "fields accessed via sync/atomic are accessed atomically everywhere: no mixed plain reads, writes, or address escapes",
	Run:  runAtomicDiscipline,
}

// atomicFacts is the whole-module map from struct fields accessed via
// sync/atomic to one representative atomic-use site (for diagnostics).
type atomicFacts struct {
	site map[*types.Var]token.Position
}

// ensureAtomic computes atomicFacts once per Unit.
func (u *Unit) ensureAtomic() {
	if u.atomic != nil {
		return
	}
	facts := &atomicFacts{site: map[*types.Var]token.Position{}}
	for _, pkg := range u.Pkgs {
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok || len(call.Args) == 0 {
					return true
				}
				if !isSyncAtomicCall(pkg.Info, call) {
					return true
				}
				v := addrOfField(pkg.Info, call.Args[0])
				if v == nil {
					return true
				}
				pos := pkg.Fset.Position(call.Pos())
				if prev, ok := facts.site[v]; !ok || before(pos, prev) {
					facts.site[v] = pos
				}
				return true
			})
		}
	}
	u.atomic = facts
}

func before(a, b token.Position) bool {
	if a.Filename != b.Filename {
		return a.Filename < b.Filename
	}
	return a.Line < b.Line
}

// isSyncAtomicCall reports whether call invokes a sync/atomic package
// function (Add*, Load*, Store*, Swap*, CompareAndSwap*, ...), all of
// which take the target address as their first argument.
func isSyncAtomicCall(info *types.Info, call *ast.CallExpr) bool {
	f := CalleeOf(info, call)
	if f == nil || f.Pkg() == nil || f.Pkg().Path() != "sync/atomic" {
		return false
	}
	sig, ok := f.Type().(*types.Signature)
	return ok && sig.Recv() == nil // package functions, not atomic.Int64 methods
}

// addrOfField unwraps &x.f and returns the field variable, or nil.
func addrOfField(info *types.Info, e ast.Expr) *types.Var {
	un, ok := ast.Unparen(e).(*ast.UnaryExpr)
	if !ok || un.Op != token.AND {
		return nil
	}
	sel, ok := ast.Unparen(un.X).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	v, ok := info.Uses[sel.Sel].(*types.Var)
	if !ok || !v.IsField() {
		return nil
	}
	return v
}

func runAtomicDiscipline(p *Pass) {
	p.Unit.ensureAtomic()
	facts := p.Unit.atomic
	if len(facts.site) == 0 {
		return
	}
	info := p.Pkg.Info
	for _, file := range p.Pkg.Files {
		// Classify every mention of an atomic field in this file.
		sanctioned := map[ast.Node]bool{} // &x.f passed to sync/atomic, and the selector inside it
		writes := map[*ast.SelectorExpr]string{}
		escapes := map[*ast.SelectorExpr]bool{}
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				if isSyncAtomicCall(info, n) && len(n.Args) > 0 {
					if un, ok := ast.Unparen(n.Args[0]).(*ast.UnaryExpr); ok && un.Op == token.AND {
						sanctioned[un] = true
						if sel, ok := ast.Unparen(un.X).(*ast.SelectorExpr); ok {
							sanctioned[sel] = true
						}
					}
				}
			case *ast.UnaryExpr:
				if n.Op == token.AND && !sanctioned[n] {
					if sel, ok := ast.Unparen(n.X).(*ast.SelectorExpr); ok {
						if fieldVarOf(info, sel) != nil {
							escapes[sel] = true
						}
					}
				}
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					if sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr); ok {
						writes[sel] = "written"
					}
				}
			case *ast.IncDecStmt:
				if sel, ok := ast.Unparen(n.X).(*ast.SelectorExpr); ok {
					writes[sel] = "incremented"
				}
			}
			return true
		})
		type hit struct {
			pos token.Pos
			msg string
		}
		var hits []hit
		ast.Inspect(file, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok || sanctioned[sel] {
				return true
			}
			v := fieldVarOf(info, sel)
			if v == nil {
				return true
			}
			site, isAtomic := facts.site[v]
			if !isAtomic {
				return true
			}
			where := "plainly read"
			switch {
			case writes[sel] != "":
				where = "plainly " + writes[sel]
			case escapes[sel]:
				where = "address-escaped to non-atomic code"
			}
			hits = append(hits, hit{sel.Pos(), sprintfAtomic(v, where, site)})
			return true
		})
		sort.Slice(hits, func(i, j int) bool { return hits[i].pos < hits[j].pos })
		for _, h := range hits {
			p.Reportf(h.pos, "%s", h.msg)
		}
	}
}

// fieldVarOf resolves sel to a struct field variable, or nil.
func fieldVarOf(info *types.Info, sel *ast.SelectorExpr) *types.Var {
	v, ok := info.Uses[sel.Sel].(*types.Var)
	if !ok || !v.IsField() {
		return nil
	}
	return v
}

func sprintfAtomic(v *types.Var, where string, site token.Position) string {
	return fmt.Sprintf("field %s is accessed via sync/atomic (%s:%d) but %s here; mixed atomic/plain access races — every access must go through sync/atomic",
		v.Name(), filepath.Base(site.Filename), site.Line, where)
}
