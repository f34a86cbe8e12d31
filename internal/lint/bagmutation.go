package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// analyzerBagMutation protects the pure-algebra assumption behind the
// paper's DEL/ADD correctness (Section 2.1, Figure 2): the bag algebra
// operators are pure functions, and the differential queries ∇(T,Q) and
// △(T,Q) are only correct if evaluating one expression never mutates an
// operand another expression will read. Concretely: a function that
// receives a *bag.Bag parameter must not call a mutating method on it
// (Add, AddBag, ApplyDelta, Remove, Clear) unless its name carries an explicit
// in-place marker ("Mutate", "Apply", or "InPlace"), which documents
// the ownership transfer at every call site.
var analyzerBagMutation = &Analyzer{
	Name: "bag-mutation",
	Doc:  "functions taking *bag.Bag must not mutate it unless named *Mutate*/*Apply*/*InPlace*",
	Run:  runBagMutation,
}

var bagMutators = map[string]bool{
	"Add": true, "AddBag": true, "ApplyDelta": true, "Remove": true, "Clear": true,
}

func hasInPlaceMarker(name string) bool {
	l := strings.ToLower(name)
	return strings.Contains(l, "mutate") || strings.Contains(l, "apply") || strings.Contains(l, "inplace")
}

func runBagMutation(p *Pass) {
	info := p.Pkg.Info
	for _, file := range p.Pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || fd.Type.Params == nil {
				continue
			}
			if hasInPlaceMarker(fd.Name.Name) {
				continue
			}
			// Bag-typed parameters (receivers are exempt: the Bag
			// methods themselves are the mutation primitives).
			params := map[types.Object]bool{}
			for _, field := range fd.Type.Params.List {
				for _, name := range field.Names {
					obj := info.Defs[name]
					if obj != nil && isPtrToNamed(obj.Type(), p.Cfg.BagPkg, "Bag") {
						params[obj] = true
					}
				}
			}
			if len(params) == 0 {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
				if !ok || !bagMutators[sel.Sel.Name] {
					return true
				}
				id, ok := ast.Unparen(sel.X).(*ast.Ident)
				if !ok || !params[info.Uses[id]] {
					return true
				}
				f := CalleeOf(info, call)
				if f == nil || !isMethodOn(f, p.Cfg.BagPkg, "Bag") {
					return true
				}
				p.Reportf(call.Pos(),
					"%s mutates bag parameter %q via %s; bag operands are pure — clone first, or mark the function with Mutate/Apply/InPlace",
					fd.Name.Name, id.Name, sel.Sel.Name)
				return true
			})
		}
	}
}
