package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"sort"
	"strconv"
)

// analyzerStateBug encodes the paper's Section 3 "state bug": a
// deferred-maintenance transaction that first applies its updates to a
// table and then evaluates a maintenance expression over that table
// reads post-update state where the algorithms (DEL/ADD, Lemma 1)
// require pre-update state. Within the Blessed Figure-3 functions of
// the core package, the analyzer orders each function's table events
// lexically and flags any read of a table or log (Database.Bag, or
// Table.Data outside a mutator chain) positioned after the same
// transaction applied updates to that table (Table.Replace/Clear/
// Insert/Delete, bag mutators through Table.Data, or
// txn.ApplyAssignments). Writes propagate through static calls via
// per-function transitive write summaries, so an apply buried in a
// helper still poisons the table for later direct reads; reads are
// deliberately direct-only, since a helper reading a table it did not
// itself update is the helper's own analysis to get right.
//
// Tables are identified by key: a constant name reads as "mv_a"
// (quoted), a dynamic one as its source expression (v.mvName), so the
// pre/post ordering is checked per-table even for symbolic names.
var analyzerStateBug = &Analyzer{
	Name: "state-bug",
	Doc:  "Figure-3 transactions never read a table after applying their own updates to it (pre-update state required)",
	Run:  runStateBug,
}

// tblEvent is one read or apply of a table key inside a blessed body.
type tblEvent struct {
	pos   token.Pos
	key   string
	apply bool
}

func runStateBug(p *Pass) {
	if p.Pkg.Path != p.Cfg.CorePkg {
		return
	}
	blessed := map[string]bool{}
	for _, n := range p.Cfg.Blessed {
		blessed[n] = true
	}
	for _, file := range p.Pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !blessed[fd.Name.Name] {
				continue
			}
			p.checkStateBug(fd)
		}
	}
}

// checkStateBug collects the lexical event stream of one blessed
// function and reports reads that follow an apply of the same key.
func (p *Pass) checkStateBug(fd *ast.FuncDecl) {
	info := p.Pkg.Info
	binds := tableBindings(info, fd.Body, p.Cfg.StoragePkg)
	var events []tblEvent

	// Data() calls that sit in a bag-mutator receiver chain are the
	// write side of the chain, not reads.
	mutatorData := map[*ast.CallExpr]bool{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		f := CalleeOf(info, call)
		if f == nil || !bagMutators[f.Name()] || !isMethodOn(f, p.Cfg.BagPkg, "Bag") {
			return true
		}
		if dc := dataCallInChain(info, call, p.Cfg.StoragePkg); dc != nil {
			mutatorData[dc] = true
		}
		return true
	})

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
			// Apply events land at the call's end so reads evaluated in
			// the argument list (pre-update state fed INTO the apply)
			// stay on the pre side.
			if key := receiverTableKey(info, call, binds); key != "" {
				events = append(events, tblEvent{pos: call.End(), key: key, apply: true})
			}
		case bagMutators[f.Name()] && isMethodOn(f, p.Cfg.BagPkg, "Bag"):
			if dc := dataCallInChain(info, call, p.Cfg.StoragePkg); dc != nil {
				if key := receiverTableKey(info, dc, binds); key != "" {
					events = append(events, tblEvent{pos: call.End(), key: key, apply: true})
				}
			}
		case f.Name() == "ApplyAssignments" && f.Pkg() != nil && f.Pkg().Path() == p.Cfg.TxnPkg:
			for _, key := range assignmentKeys(info, fd.Body, p.Cfg.TxnPkg) {
				events = append(events, tblEvent{pos: call.End(), key: key, apply: true})
			}
		case f.Name() == "Bag" && isMethodOn(f, p.Cfg.StoragePkg, "Database"):
			if len(call.Args) == 1 {
				events = append(events, tblEvent{pos: call.Pos(), key: exprKey(info, call.Args[0])})
			}
		case f.Name() == "Data" && isMethodOn(f, p.Cfg.StoragePkg, "Table"):
			if mutatorData[call] {
				return true
			}
			if key := receiverTableKey(info, call, binds); key != "" {
				events = append(events, tblEvent{pos: call.Pos(), key: key})
			}
		default:
			// A static call into the module splices the callee's
			// transitive write summary at the call site.
			if p.Unit.declOf(f) != nil {
				for key := range p.Unit.writeSummary(f) {
					events = append(events, tblEvent{pos: call.End(), key: key, apply: true})
				}
			}
		}
		return true
	})

	sort.Slice(events, func(i, j int) bool { return events[i].pos < events[j].pos })
	applied := map[string]bool{}
	for _, ev := range events {
		if ev.apply {
			applied[ev.key] = true
			continue
		}
		if applied[ev.key] {
			p.Reportf(ev.pos,
				"%s reads %s after this transaction applied updates to it; the maintenance expression needs pre-update state (paper Section 3 state bug)",
				fd.Name.Name, ev.key)
		}
	}
}

// writeSummary returns the set of table keys fn (transitively, through
// static module calls) applies updates to. Memoized per Unit; a cycle
// sees the partial summary of the in-progress caller, which converges
// because keys only accumulate.
func (u *Unit) writeSummary(fn *types.Func) map[string]token.Pos {
	if u.writeSums == nil {
		u.writeSums = map[*types.Func]map[string]token.Pos{}
	}
	if sum, ok := u.writeSums[fn]; ok {
		return sum
	}
	sum := map[string]token.Pos{}
	u.writeSums[fn] = sum // pre-publish: recursion guard
	di := u.declOf(fn)
	if di == nil {
		return sum
	}
	info := di.pkg.Info
	cfg := u.Cfg
	binds := tableBindings(info, di.decl.Body, cfg.StoragePkg)
	ast.Inspect(di.decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		f := CalleeOf(info, call)
		if f == nil {
			return true
		}
		switch {
		case tableMutators[f.Name()] && isMethodOn(f, cfg.StoragePkg, "Table"):
			if key := receiverTableKey(info, call, binds); key != "" {
				sum[key] = call.Pos()
			}
		case bagMutators[f.Name()] && isMethodOn(f, cfg.BagPkg, "Bag"):
			if dc := dataCallInChain(info, call, cfg.StoragePkg); dc != nil {
				if key := receiverTableKey(info, dc, binds); key != "" {
					sum[key] = call.Pos()
				}
			}
		case f.Name() == "ApplyAssignments" && f.Pkg() != nil && f.Pkg().Path() == cfg.TxnPkg:
			for _, key := range assignmentKeys(info, di.decl.Body, cfg.TxnPkg) {
				sum[key] = call.Pos()
			}
		default:
			if u.decls[f] != nil {
				for key, pos := range u.writeSummary(f) {
					if _, ok := sum[key]; !ok {
						sum[key] = pos
					}
				}
			}
		}
		return true
	})
	return sum
}

// tableBinding is one `tb, _ := db.Table("x")` (or db.Create) binding.
type tableBinding struct {
	obj types.Object
	pos token.Pos
	key string
}

// tableBindings collects local variables bound to tables looked up by
// name, in source order, so a receiver resolves to the nearest
// preceding binding (RefreshRecompute reuses one variable for two
// tables).
func tableBindings(info *types.Info, body ast.Node, storagePkg string) []tableBinding {
	var out []tableBinding
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Rhs) != 1 {
			return true
		}
		call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return true
		}
		f := CalleeOf(info, call)
		if f == nil || (f.Name() != "Table" && f.Name() != "Create") || !isMethodOn(f, storagePkg, "Database") {
			return true
		}
		id, ok := as.Lhs[0].(*ast.Ident)
		if !ok {
			return true
		}
		obj := info.Defs[id]
		if obj == nil {
			obj = info.Uses[id]
		}
		if obj == nil {
			return true
		}
		out = append(out, tableBinding{obj: obj, pos: as.Pos(), key: exprKey(info, call.Args[0])})
		return true
	})
	sort.Slice(out, func(i, j int) bool { return out[i].pos < out[j].pos })
	return out
}

// receiverTableKey resolves the table a method call operates on: either
// an inline `db.Table("x").M(...)` chain or an identifier bound by a
// preceding db.Table/db.Create assignment.
func receiverTableKey(info *types.Info, call *ast.CallExpr, binds []tableBinding) string {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	switch x := ast.Unparen(sel.X).(type) {
	case *ast.CallExpr:
		f := CalleeOf(info, x)
		if f != nil && (f.Name() == "Table" || f.Name() == "Create") && len(x.Args) > 0 {
			return exprKey(info, x.Args[0])
		}
	case *ast.Ident:
		obj := info.Uses[x]
		if obj == nil {
			return ""
		}
		key := ""
		for _, b := range binds {
			if b.obj == obj && b.pos <= x.Pos() {
				key = b.key
			}
		}
		return key
	}
	return ""
}

// dataCallInChain walks a method call's receiver chain looking for the
// Table.Data() hop (the same shape invariant-touch matches); it returns
// that call so the table can be identified.
func dataCallInChain(info *types.Info, call *ast.CallExpr, storagePkg string) *ast.CallExpr {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	for x := ast.Unparen(sel.X); ; {
		c, ok := x.(*ast.CallExpr)
		if !ok {
			return nil
		}
		if f := CalleeOf(info, c); f != nil && f.Name() == "Data" && isMethodOn(f, storagePkg, "Table") {
			return c
		}
		inner, ok := ast.Unparen(c.Fun).(*ast.SelectorExpr)
		if !ok {
			return nil
		}
		x = ast.Unparen(inner.X)
	}
}

// assignmentKeys collects the Table: keys of every txn.Assignment
// composite literal in the body — the tables an ApplyAssignments call
// in this function writes.
func assignmentKeys(info *types.Info, body ast.Node, txnPkg string) []string {
	var out []string
	seen := map[string]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		lit, ok := n.(*ast.CompositeLit)
		if !ok {
			return true
		}
		tv, ok := info.Types[lit]
		if !ok || tv.Type == nil {
			return true
		}
		named, ok := tv.Type.(*types.Named)
		if !ok {
			return true
		}
		obj := named.Obj()
		if obj.Name() != "Assignment" || obj.Pkg() == nil || obj.Pkg().Path() != txnPkg {
			return true
		}
		for _, elt := range lit.Elts {
			kv, ok := elt.(*ast.KeyValueExpr)
			if !ok {
				continue
			}
			if k, ok := kv.Key.(*ast.Ident); !ok || k.Name != "Table" {
				continue
			}
			key := exprKey(info, kv.Value)
			if !seen[key] {
				seen[key] = true
				out = append(out, key)
			}
		}
		return true
	})
	sort.Strings(out)
	return out
}

// exprKey abstracts a table-name expression: constant strings display
// quoted, anything else as its source text.
func exprKey(info *types.Info, e ast.Expr) string {
	e = ast.Unparen(e)
	if tv, ok := info.Types[e]; ok && tv.Value != nil && tv.Value.Kind() == constant.String {
		return strconv.Quote(constant.StringVal(tv.Value))
	}
	return types.ExprString(e)
}
