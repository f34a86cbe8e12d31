package lint

import (
	"go/ast"
	"go/types"
	"testing"
)

// ptrFlow is a miniature flowClient used only by these tests: it
// tracks whether each pointer-typed local may be nil (tNil) or may be
// non-nil (tNonNil), independent of the production clients, so the
// framework — joins, refinement, back-edge propagation — is tested
// without depending on any production client's policy.
const (
	tNil fact = 1 << iota
	tNonNil
)

type ptrFlow struct{ info *types.Info }

func (c *ptrFlow) transfer(n ast.Node, facts flowFacts) {
	switch n := n.(type) {
	case *ast.AssignStmt:
		for i, lhs := range n.Lhs {
			obj := localObj(c.info, lhs)
			if obj == nil {
				continue
			}
			if _, isPtr := obj.Type().Underlying().(*types.Pointer); !isPtr {
				continue
			}
			if len(n.Lhs) != len(n.Rhs) {
				facts[obj] = tNil | tNonNil
				continue
			}
			facts[obj] = c.classify(n.Rhs[i])
		}
	case *ast.ValueSpec:
		for _, name := range n.Names {
			obj := c.info.Defs[name]
			if obj == nil {
				continue
			}
			if _, isPtr := obj.Type().Underlying().(*types.Pointer); !isPtr {
				continue
			}
			if len(n.Values) == 0 {
				facts[obj] = tNil
			} else {
				facts[obj] = tNil | tNonNil
			}
		}
	case *ast.DeclStmt:
		if gd, ok := n.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					c.transfer(vs, facts)
				}
			}
		}
	case *ast.RangeStmt:
		for _, e := range []ast.Expr{n.Key, n.Value} {
			if e == nil {
				continue
			}
			if obj := localObj(c.info, e); obj != nil {
				facts[obj] = tNil | tNonNil
			}
		}
	}
}

func (c *ptrFlow) classify(e ast.Expr) fact {
	e = ast.Unparen(e)
	if isNilIdent(c.info, e) {
		return tNil
	}
	switch e := e.(type) {
	case *ast.UnaryExpr:
		if e.Op.String() == "&" {
			return tNonNil
		}
	case *ast.CallExpr:
		if id, ok := ast.Unparen(e.Fun).(*ast.Ident); ok && c.info.Uses[id] == types.Universe.Lookup("new") {
			return tNonNil
		}
	}
	return tNil | tNonNil
}

func (c *ptrFlow) refine(cond ast.Expr, truth bool, facts flowFacts) {
	obj, isNil, ok := nilCompare(c.info, cond)
	if !ok {
		return
	}
	mask := tNonNil
	if (truth && isNil) || (!truth && !isNil) {
		mask = tNil
	}
	if v, tracked := facts[obj]; tracked && v&mask != 0 {
		facts[obj] = v & mask
	} else {
		facts[obj] = mask
	}
}

// factsAt runs the test client to fixpoint over fn and returns the
// facts in force immediately before the first node matching pred.
func factsAt(t *testing.T, pkg *Package, fn string, pred func(ast.Node) bool) (flowFacts, *ast.FuncDecl) {
	t.Helper()
	fd := declNamed(t, pkg, fn)
	var got flowFacts
	runForward(buildCFG(fd.Body), &ptrFlow{info: pkg.Info}, func(n ast.Node, facts flowFacts) {
		if got == nil && pred(n) {
			got = facts.clone()
		}
	})
	if got == nil {
		t.Fatalf("no node in %s matched the predicate", fn)
	}
	return got, fd
}

// returnWith matches a ReturnStmt whose single result has the given
// dynamic type (e.g. *ast.StarExpr for `return *x`).
func returnWith(match func(ast.Expr) bool) func(ast.Node) bool {
	return func(n ast.Node) bool {
		ret, ok := n.(*ast.ReturnStmt)
		return ok && len(ret.Results) == 1 && match(ret.Results[0])
	}
}

// TestForwardBranchJoin: x is nil on the skip path and non-nil on the
// assign path; the join at the return must union both.
func TestForwardBranchJoin(t *testing.T) {
	pkg := dataflowPkg(t)
	facts, fd := factsAt(t, pkg, "BranchJoin", returnWith(func(e ast.Expr) bool {
		_, ok := e.(*ast.Ident)
		return ok
	}))
	if got := facts[objNamed(t, pkg, fd, "x")]; got != tNil|tNonNil {
		t.Errorf("facts[x] at the join = %b; want the union %b", got, tNil|tNonNil)
	}
}

// TestForwardRefine: the guard's true edge narrows x to non-nil, its
// false edge to nil.
func TestForwardRefine(t *testing.T) {
	pkg := dataflowPkg(t)
	facts, fd := factsAt(t, pkg, "Guarded", returnWith(func(e ast.Expr) bool {
		_, ok := e.(*ast.StarExpr)
		return ok
	}))
	x := objNamed(t, pkg, fd, "x")
	if got := facts[x]; got != tNonNil {
		t.Errorf("facts[x] inside the guard = %b; want non-nil only (%b)", got, tNonNil)
	}
	facts, _ = factsAt(t, pkg, "Guarded", returnWith(func(e ast.Expr) bool {
		_, ok := e.(*ast.BasicLit)
		return ok
	}))
	if got := facts[x]; got != tNil {
		t.Errorf("facts[x] past the guard = %b; want nil only (%b)", got, tNil)
	}
}

// TestForwardLoopFixpoint: the loop head's stable facts include the
// body's rebind carried around the back edge — a single forward pass
// would see only the nil entry state.
func TestForwardLoopFixpoint(t *testing.T) {
	pkg := dataflowPkg(t)
	head := func(n ast.Node) bool {
		bin, ok := n.(*ast.BinaryExpr)
		return ok && bin.Op.String() == "<"
	}
	facts, fd := factsAt(t, pkg, "Loop", head)
	p := objNamed(t, pkg, fd, "p")
	if got := facts[p]; got != tNil|tNonNil {
		t.Errorf("facts[p] at the loop head = %b; want the back-edge union %b", got, tNil|tNonNil)
	}
	facts, _ = factsAt(t, pkg, "Loop", returnWith(func(e ast.Expr) bool {
		_, ok := e.(*ast.Ident)
		return ok
	}))
	if got := facts[p]; got != tNil|tNonNil {
		t.Errorf("facts[p] at the return = %b; want %b", got, tNil|tNonNil)
	}
}

// TestForwardRangeRefine: the element ranged out of the slice is
// unknown, and the body's guard narrows it before the deref.
func TestForwardRangeRefine(t *testing.T) {
	pkg := dataflowPkg(t)
	deref := func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Rhs) != 1 {
			return false
		}
		_, star := as.Rhs[0].(*ast.StarExpr)
		return star
	}
	facts, fd := factsAt(t, pkg, "RangeNil", deref)
	if got := facts[objNamed(t, pkg, fd, "p")]; got != tNonNil {
		t.Errorf("facts[p] at the guarded deref = %b; want non-nil only (%b)", got, tNonNil)
	}
}

// TestForwardTaglessSwitch: each tagless-switch case edge carries its
// guard, so the nil case sees nil and default sees the complement.
func TestForwardTaglessSwitch(t *testing.T) {
	pkg := dataflowPkg(t)
	facts, fd := factsAt(t, pkg, "SwitchFacts", returnWith(func(e ast.Expr) bool {
		_, ok := e.(*ast.BasicLit)
		return ok
	}))
	p := objNamed(t, pkg, fd, "p")
	if got := facts[p]; got != tNil {
		t.Errorf("facts[p] in the nil case = %b; want nil only (%b)", got, tNil)
	}
	facts, _ = factsAt(t, pkg, "SwitchFacts", returnWith(func(e ast.Expr) bool {
		_, ok := e.(*ast.StarExpr)
		return ok
	}))
	if got := facts[p]; got != tNonNil {
		t.Errorf("facts[p] in default = %b; want non-nil only (%b)", got, tNonNil)
	}
}

// TestNilCompare decodes every guard shape in the Conds fixture, in
// source order.
func TestNilCompare(t *testing.T) {
	pkg := dataflowPkg(t)
	fd := declNamed(t, pkg, "Conds")
	var conds []ast.Expr
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if ifs, ok := n.(*ast.IfStmt); ok {
			conds = append(conds, ifs.Cond)
		}
		return true
	})
	want := []struct {
		obj   string // "" means not a nil comparison
		isNil bool
	}{
		{"p", true},  // p == nil
		{"q", false}, // nil != q
		{"p", true},  // !(p != nil)
		{"", false},  // bare bool
		{"", false},  // p == q
	}
	if len(conds) != len(want) {
		t.Fatalf("found %d conditions; want %d", len(conds), len(want))
	}
	for i, cond := range conds {
		obj, isNil, ok := nilCompare(pkg.Info, cond)
		if want[i].obj == "" {
			if ok {
				t.Errorf("cond %d: decomposed to %v; want not-a-nil-comparison", i, obj)
			}
			continue
		}
		if !ok || obj.Name() != want[i].obj || isNil != want[i].isNil {
			t.Errorf("cond %d: (%v, %v, %v); want (%s, %v, true)", i, obj, isNil, ok, want[i].obj, want[i].isNil)
		}
	}
}

// TestJoinInto pins the lattice primitives: union semantics, change
// reporting, and clone independence.
func TestJoinInto(t *testing.T) {
	a := objPair()
	dst := flowFacts{a[0]: tNil}
	src := flowFacts{a[0]: tNil, a[1]: tNonNil}
	if !joinInto(dst, src) {
		t.Error("join adding a new object must report a change")
	}
	if dst[a[0]] != tNil || dst[a[1]] != tNonNil {
		t.Errorf("joined facts = %v", dst)
	}
	if joinInto(dst, src) {
		t.Error("idempotent join must report no change")
	}
	c := dst.clone()
	c[a[0]] |= tNonNil
	if dst[a[0]] != tNil {
		t.Error("clone shares storage with the original")
	}
}

// objPair makes two distinct types.Object keys for lattice tests.
func objPair() [2]types.Object {
	pkg := types.NewPackage("t", "t")
	return [2]types.Object{
		types.NewVar(0, pkg, "a", types.Typ[types.Int]),
		types.NewVar(0, pkg, "b", types.Typ[types.Int]),
	}
}
