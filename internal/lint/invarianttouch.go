package lint

import (
	"go/ast"
	"go/types"
)

// analyzerInvariantTouch guards the database invariants of Figure 1
// (INV_BL, INV_DT, INV_C): they are preserved only because every
// mutation of MV, ∇MV/△MV, or the logs goes through the Figure 3
// transactions (makesafe_*, refresh_*, propagate_*), whose
// invariant-preservation the paper proves (Theorems 1-5). Any other
// code path that writes a table from inside the core package is a
// latent invariant violation, so table mutation in the core package —
// storage.Table.Replace/Clear/Insert/Delete, bag mutators reached
// through Table.Data(), and txn.ApplyAssignments — is only allowed
// inside the blessed entry points listed in Config.Blessed.
var analyzerInvariantTouch = &Analyzer{
	Name: "invariant-touch",
	Doc:  "maintained tables mutated only by blessed refresh_*/propagate_*/makesafe_* entry points",
	Run:  runInvariantTouch,
}

// bagMutators are the Bag methods that write a bag's contents; one
// called on a bag reached through Table.Data() writes the table.
var bagMutators = map[string]bool{
	"Add": true, "AddBag": true, "ApplyDelta": true, "AddMonus": true, "Refill": true, "Remove": true, "Clear": true, "Adopt": true,
}

// tableMutators are the Table methods that write the table.
var tableMutators = map[string]bool{
	"Replace": true, "Clear": true, "Insert": true, "Delete": true,
}

func runInvariantTouch(p *Pass) {
	if p.Pkg.Path != p.Cfg.CorePkg {
		return
	}
	blessed := map[string]bool{}
	for _, n := range p.Cfg.Blessed {
		blessed[n] = true
	}
	info := p.Pkg.Info
	for _, file := range p.Pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || blessed[fd.Name.Name] {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				f := CalleeOf(info, call)
				if f == nil {
					return true
				}
				switch {
				case tableMutators[f.Name()] && isMethodOn(f, p.Cfg.StoragePkg, "Table"):
					p.Reportf(call.Pos(),
						"%s mutates a table via Table.%s outside the blessed maintenance entry points; route it through a refresh_*/propagate_*/makesafe_* transaction (Figure 3)",
						fd.Name.Name, f.Name())
				case bagMutators[f.Name()] && isMethodOn(f, p.Cfg.BagPkg, "Bag") && mutatesTableBag(info, call, p.Cfg.StoragePkg):
					p.Reportf(call.Pos(),
						"%s mutates table contents via Bag.%s outside the blessed maintenance entry points; route it through a refresh_*/propagate_*/makesafe_* transaction (Figure 3)",
						fd.Name.Name, f.Name())
				case f.Name() == "ApplyAssignments" && f.Pkg() != nil && f.Pkg().Path() == p.Cfg.TxnPkg:
					p.Reportf(call.Pos(),
						"%s applies table assignments outside the blessed maintenance entry points; route it through a refresh_*/propagate_*/makesafe_* transaction (Figure 3)",
						fd.Name.Name)
				}
				return true
			})
		}
	}
}

// mutatesTableBag reports whether a bag-mutator call's receiver chain
// passes through storage.Table.Data() — i.e. the bag being mutated is
// live table contents, not a local scratch bag.
func mutatesTableBag(info *types.Info, call *ast.CallExpr, storagePkg string) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	for x := ast.Unparen(sel.X); ; {
		c, ok := x.(*ast.CallExpr)
		if !ok {
			return false
		}
		if f := CalleeOf(info, c); f != nil && f.Name() == "Data" && isMethodOn(f, storagePkg, "Table") {
			return true
		}
		inner, ok := ast.Unparen(c.Fun).(*ast.SelectorExpr)
		if !ok {
			return false
		}
		x = ast.Unparen(inner.X)
	}
}
