package lint

import (
	"go/ast"
	"go/types"
	"testing"
)

// dataflowPkg loads the dataflow fixture.
func dataflowPkg(t *testing.T) *Package {
	t.Helper()
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := loader.Load(fixturePrefix + "dataflow")
	if err != nil {
		t.Fatal(err)
	}
	return pkg
}

// declNamed finds a fixture function's declaration by name.
func declNamed(t *testing.T, pkg *Package, name string) *ast.FuncDecl {
	t.Helper()
	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.Name == name {
				return fd
			}
		}
	}
	t.Fatalf("fixture function %s not found", name)
	return nil
}

// objNamed resolves a local or parameter of fd by name.
func objNamed(t *testing.T, pkg *Package, fd *ast.FuncDecl, name string) types.Object {
	t.Helper()
	var obj types.Object
	ast.Inspect(fd, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && id.Name == name && obj == nil {
			if o := pkg.Info.Defs[id]; o != nil {
				obj = o
			}
		}
		return true
	})
	if obj == nil {
		t.Fatalf("no definition of %s in %s", name, fd.Name.Name)
	}
	return obj
}

// TestCFGWellFormed pins the structural invariants every client relies
// on: block 0 is the exit and has no successors, block 1 is the entry,
// every edge stays inside the graph, and every normal exit is a
// ReturnStmt (synthesized at the closing brace when the source falls
// off the end).
func TestCFGWellFormed(t *testing.T) {
	pkg := dataflowPkg(t)
	for _, name := range []string{
		"BranchJoin", "Guarded", "Loop", "DeferOrder", "Capture",
		"AddrTaken", "Plain", "Variadic", "RangeNil", "Terminates",
		"SwitchFacts", "Conds",
	} {
		t.Run(name, func(t *testing.T) {
			fd := declNamed(t, pkg, name)
			cfg := buildCFG(fd.Body)
			if cfg.exit != cfg.blocks[0] || cfg.entry != cfg.blocks[1] {
				t.Fatal("exit must be block 0 and entry block 1")
			}
			if len(cfg.exit.succ) != 0 {
				t.Errorf("exit block has %d successors; want none", len(cfg.exit.succ))
			}
			ids := map[*cfgBlock]bool{}
			for _, b := range cfg.blocks {
				ids[b] = true
			}
			returns := 0
			for _, b := range cfg.blocks {
				for _, e := range b.succ {
					if !ids[e.to] {
						t.Errorf("block %d has an edge to a block outside the graph", b.id)
					}
				}
				for _, n := range b.nodes {
					if _, ok := n.(*ast.ReturnStmt); ok {
						returns++
					}
				}
			}
			if returns == 0 {
				t.Error("no ReturnStmt in the graph; normal exits must be returns")
			}
		})
	}
}

// TestCFGBranchEdges: a conditional spawns a true edge and a false
// edge carrying the same condition expression, so refine() sees both
// polarities.
func TestCFGBranchEdges(t *testing.T) {
	pkg := dataflowPkg(t)
	cfg := buildCFG(declNamed(t, pkg, "Guarded").Body)
	found := false
	for _, b := range cfg.blocks {
		var trueCond, falseCond ast.Expr
		for _, e := range b.succ {
			if e.cond == nil {
				continue
			}
			if e.truth {
				trueCond = e.cond
			} else {
				falseCond = e.cond
			}
		}
		if trueCond != nil && trueCond == falseCond {
			found = true
			if bin, ok := trueCond.(*ast.BinaryExpr); !ok || bin.Op.String() != "!=" {
				t.Errorf("guard condition = %T; want the x != nil comparison", trueCond)
			}
		}
	}
	if !found {
		t.Error("no block carries a true/false edge pair for the guard")
	}
}

// TestCFGSynthesizedReturnAndDeferOrder: a body with no explicit
// return gets exactly one synthesized ReturnStmt at the closing brace,
// downstream of both defers, which appear in source order.
func TestCFGSynthesizedReturnAndDeferOrder(t *testing.T) {
	pkg := dataflowPkg(t)
	fd := declNamed(t, pkg, "DeferOrder")
	cfg := buildCFG(fd.Body)
	var seq []ast.Node
	for _, b := range cfg.blocks {
		seq = append(seq, b.nodes...)
	}
	var kinds []string
	var ret *ast.ReturnStmt
	for _, n := range seq {
		switch n := n.(type) {
		case *ast.DeferStmt:
			kinds = append(kinds, "defer")
		case *ast.ReturnStmt:
			kinds = append(kinds, "return")
			ret = n
		case *ast.ExprStmt:
			kinds = append(kinds, "call")
		}
	}
	want := []string{"defer", "defer", "call", "return"}
	if len(kinds) != len(want) {
		t.Fatalf("node kinds = %v; want %v", kinds, want)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("node kinds = %v; want %v", kinds, want)
		}
	}
	if ret.Return != fd.Body.End() {
		t.Errorf("synthesized return at %v; want the body's closing brace %v", ret.Return, fd.Body.End())
	}
}

// TestCFGTerminatingCalls: panic and os.Exit end their blocks with no
// successors — obligations die with the process.
func TestCFGTerminatingCalls(t *testing.T) {
	pkg := dataflowPkg(t)
	cfg := buildCFG(declNamed(t, pkg, "Terminates").Body)
	terminated := 0
	for _, b := range cfg.blocks {
		for _, n := range b.nodes {
			es, ok := n.(*ast.ExprStmt)
			if !ok {
				continue
			}
			if call, ok := es.X.(*ast.CallExpr); ok && callTerminates(call) {
				terminated++
				if len(b.succ) != 0 {
					t.Errorf("block %d ends in a terminating call but has %d successors", b.id, len(b.succ))
				}
			}
		}
	}
	if terminated != 2 {
		t.Errorf("found %d terminating calls; want panic and os.Exit", terminated)
	}
}

// TestCFGLoopBackEdge: the for loop closes with an edge to an earlier
// block, the shape the fixpoint iterates on.
func TestCFGLoopBackEdge(t *testing.T) {
	pkg := dataflowPkg(t)
	cfg := buildCFG(declNamed(t, pkg, "Loop").Body)
	for _, b := range cfg.blocks {
		for _, e := range b.succ {
			if e.to.id != 0 && e.to.id < b.id {
				return
			}
		}
	}
	t.Error("no back edge found in the loop CFG")
}

// TestCFGMemoization: the Unit-level accessors hand every analyzer the
// same graph, never a rebuild.
func TestCFGMemoization(t *testing.T) {
	pkg := dataflowPkg(t)
	u := &Unit{Pkgs: []*Package{pkg}, Cfg: DefaultConfig()}
	fd := declNamed(t, pkg, "Capture")
	if u.cfgOf(fd) != u.cfgOf(fd) {
		t.Error("cfgOf rebuilt the graph")
	}
	var lit *ast.FuncLit
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if l, ok := n.(*ast.FuncLit); ok && lit == nil {
			lit = l
		}
		return true
	})
	if lit == nil {
		t.Fatal("Capture has no literal")
	}
	if u.litCFGOf(lit) != u.litCFGOf(lit) {
		t.Error("litCFGOf rebuilt the graph")
	}
}
