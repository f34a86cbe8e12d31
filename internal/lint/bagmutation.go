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
// (Add, AddBag, ApplyDelta, AddMonus, Refill, Remove, Clear, Adopt)
// unless its name carries an explicit in-place marker ("Mutate",
// "Apply", or "InPlace"), which documents the ownership transfer at
// every call site. A function literal is held to the same rule and has
// no name to carry a marker: it is what a borrowed read
// (core.Manager.Read, the sql engine's read path) runs over a live
// table, whose read-only contract this is.
var analyzerBagMutation = &Analyzer{
	Name: "bag-mutation",
	Doc:  "functions taking *bag.Bag must not mutate it unless named *Mutate*/*Apply*/*InPlace*",
	Run:  runBagMutation,
}

var bagMutators = map[string]bool{
	"Add": true, "AddBag": true, "ApplyDelta": true, "AddMonus": true, "Refill": true, "Remove": true, "Clear": true, "Adopt": true,
}

func hasInPlaceMarker(name string) bool {
	l := strings.ToLower(name)
	return strings.Contains(l, "mutate") || strings.Contains(l, "apply") || strings.Contains(l, "inplace")
}

func runBagMutation(p *Pass) {
	for _, file := range p.Pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil && !hasInPlaceMarker(fn.Name.Name) {
					p.checkBagParams(fn.Name.Name, ", or mark the function with Mutate/Apply/InPlace", fn.Type, fn.Body)
				}
			case *ast.FuncLit:
				p.checkBagParams("function literal", "", fn.Type, fn.Body)
			}
			return true
		})
	}
}

// checkBagParams reports the mutating calls body makes on the
// *bag.Bag parameters of the function it belongs to (receivers are
// exempt: the Bag methods themselves are the mutation primitives).
func (p *Pass) checkBagParams(name, orMark string, typ *ast.FuncType, body *ast.BlockStmt) {
	info := p.Pkg.Info
	params := map[types.Object]bool{}
	for _, obj := range p.bagParams(typ) {
		params[obj] = true
	}
	if len(params) == 0 {
		return
	}
	ast.Inspect(body, func(n ast.Node) bool {
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
			"%s mutates bag parameter %q via %s; bag operands are pure — clone first%s",
			name, id.Name, sel.Sel.Name, orMark)
		return true
	})
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
