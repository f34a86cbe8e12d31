package algebra

import (
	"math/rand"
	"strings"
	"testing"

	"dvm/internal/bag"
	"dvm/internal/schema"
)

func TestOptimizePreservesSemantics(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	u := NewRandomUniverse(3)
	for i := 0; i < 300; i++ {
		q := u.RandomQuery(r, 4)
		st := u.RandomState(r)
		want, err := Eval(q, st)
		if err != nil {
			t.Fatal(err)
		}
		opt := Optimize(q)
		got, err := Eval(opt, st)
		if err != nil {
			t.Fatalf("optimized query failed: %v\noriginal: %s\noptimized: %s", err, q, opt)
		}
		if !got.Equal(want) {
			t.Fatalf("optimize changed semantics:\noriginal:  %s -> %v\noptimized: %s -> %v", q, want, opt, got)
		}
		if !q.Schema().Equal(opt.Schema()) {
			t.Fatalf("optimize changed schema: %s vs %s", q.Schema(), opt.Schema())
		}
	}
}

func TestOptimizePushesSelectThroughUnion(t *testing.T) {
	sch := schema.NewSchema(schema.Col("x", schema.TInt))
	a := NewBase("A", sch)
	b := NewBase("B", sch)
	un, err := NewUnionAll(a, b)
	if err != nil {
		t.Fatal(err)
	}
	sel, err := NewSelect(Gt(A("x"), C(0)), un)
	if err != nil {
		t.Fatal(err)
	}
	opt := Optimize(sel)
	u2, ok := opt.(*UnionAll)
	if !ok {
		t.Fatalf("σ not pushed: %s", opt)
	}
	if _, ok := u2.L.(*Select); !ok {
		t.Fatalf("left side not selected: %s", opt)
	}
}

func TestOptimizeKeepsSelectWhenNamesDiffer(t *testing.T) {
	// Union of differently-named (but compatible) schemas: σ must stay on
	// top, since name-based rebinding on the right side could pick a
	// different column.
	l := NewBase("L", schema.NewSchema(schema.Col("x", schema.TInt), schema.Col("y", schema.TInt)))
	r := NewBase("R", schema.NewSchema(schema.Col("y", schema.TInt), schema.Col("x", schema.TInt)))
	un, err := NewUnionAll(l, r)
	if err != nil {
		t.Fatal(err)
	}
	sel, err := NewSelect(Gt(A("x"), C(0)), un)
	if err != nil {
		t.Fatal(err)
	}
	opt := Optimize(sel)
	if _, ok := opt.(*Select); !ok {
		t.Fatalf("σ was pushed across mismatched names: %s", opt)
	}
	// And semantics must be identical.
	st := MapSource{
		"L": bag.Of(schema.Row(1, -5), schema.Row(-1, 5)),
		"R": bag.Of(schema.Row(7, -7)),
	}
	want, _ := Eval(sel, st)
	got, _ := Eval(opt, st)
	if !got.Equal(want) {
		t.Fatalf("semantics changed: %v vs %v", got, want)
	}
}

func TestOptimizeMergesNestedSelects(t *testing.T) {
	sch := schema.NewSchema(schema.Col("x", schema.TInt))
	base := NewBase("A", sch)
	inner, _ := NewSelect(Gt(A("x"), C(0)), base)
	outer, _ := NewSelect(Lt(A("x"), C(10)), inner)
	opt := Optimize(outer)
	s, ok := opt.(*Select)
	if !ok {
		t.Fatalf("expected a single select, got %s", opt)
	}
	if _, nested := s.Child.(*Select); nested {
		t.Fatalf("selects not merged: %s", opt)
	}
	st := MapSource{"A": bag.Of(schema.Row(5), schema.Row(-5), schema.Row(15))}
	got, _ := Eval(opt, st)
	if !got.Equal(bag.Of(schema.Row(5))) {
		t.Fatalf("merged select wrong: %v", got)
	}
}

func TestOptimizePushesThroughDupElim(t *testing.T) {
	sch := schema.NewSchema(schema.Col("x", schema.TInt))
	base := NewBase("A", sch)
	sel, _ := NewSelect(Gt(A("x"), C(0)), NewDupElim(base))
	opt := Optimize(sel)
	if _, ok := opt.(*DupElim); !ok {
		t.Fatalf("σ(ε(E)) not rewritten to ε(σ(E)): %s", opt)
	}
	st := MapSource{"A": bag.Of(schema.Row(1), schema.Row(1), schema.Row(-1))}
	got, _ := Eval(opt, st)
	if !got.Equal(bag.Of(schema.Row(1))) {
		t.Fatalf("dupelim push wrong: %v", got)
	}
}

func TestOptimizePreservesSharing(t *testing.T) {
	// A shared subexpression must remain pointer-shared after rewriting.
	sch := schema.NewSchema(schema.Col("x", schema.TInt))
	shared, _ := NewSelect(Gt(A("x"), C(0)), NewBase("A", sch))
	l, _ := NewUnionAll(shared, shared)
	opt := Optimize(l).(*UnionAll)
	if opt.L != opt.R {
		t.Fatal("sharing lost during optimize")
	}
	// OptimizePair shares across the two results.
	a, b := OptimizePair(shared, shared)
	if a != b {
		t.Fatal("OptimizePair lost cross-expression sharing")
	}
}

func TestEvaluatorSharedMemo(t *testing.T) {
	sch := schema.NewSchema(schema.Col("x", schema.TInt))
	st := MapSource{"A": bag.Of(schema.Row(1), schema.Row(2))}
	base := NewBase("A", sch)
	ev := NewEvaluator(st)
	b1, err := ev.Eval(base)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := ev.Eval(base)
	if err != nil {
		t.Fatal(err)
	}
	if !b1.Equal(b2) {
		t.Fatal("evaluator results differ")
	}
	// Returned bags are owned copies: mutating one must not affect the
	// next evaluation.
	b1.Add(schema.Row(99), 1)
	b3, _ := ev.Eval(base)
	if b3.Contains(schema.Row(99)) {
		t.Fatal("evaluator leaked its memo to the caller")
	}
}

func TestOptimizePushesThroughProject(t *testing.T) {
	sch := schema.NewSchema(schema.Col("t.k", schema.TInt), schema.Col("t.v", schema.TInt))
	base := NewBase("T", sch)
	proj, err := NewProject([]string{"t.v", "t.k"}, []string{"val", "key"}, base)
	if err != nil {
		t.Fatal(err)
	}
	sel, err := NewSelect(Eq(A("key"), C(1)), proj)
	if err != nil {
		t.Fatal(err)
	}
	opt := Optimize(sel)
	// σ must now sit under the projection, renamed to t.k.
	p, ok := opt.(*Project)
	if !ok {
		t.Fatalf("σ not pushed through Π: %s", opt)
	}
	inner, ok := p.Child.(*Select)
	if !ok || !strings.Contains(inner.Pred.String(), "t.k") {
		t.Fatalf("renaming wrong: %s", opt)
	}
	st := MapSource{"T": bag.Of(schema.Row(1, 10), schema.Row(2, 20))}
	want, _ := Eval(sel, st)
	got, _ := Eval(opt, st)
	if !got.Equal(want) {
		t.Fatalf("semantics changed: %v vs %v", got, want)
	}
}

func TestOptimizeSplitsConjunctsAcrossProduct(t *testing.T) {
	ls := schema.NewSchema(schema.Col("l.k", schema.TInt), schema.Col("l.a", schema.TInt))
	rs := schema.NewSchema(schema.Col("r.k", schema.TInt), schema.Col("r.b", schema.TInt))
	prod := NewProduct(NewBase("L", ls), NewBase("R", rs))
	pred := AndOf(
		Eq(A("l.k"), A("r.k")), // cross-side: must stay above
		Gt(A("l.a"), C(0)),     // left-only: pushes left
		Lt(A("r.b"), C(10)),    // right-only: pushes right
	)
	sel, err := NewSelect(pred, prod)
	if err != nil {
		t.Fatal(err)
	}
	opt := Optimize(sel)
	top, ok := opt.(*Select)
	if !ok {
		t.Fatalf("residual σ missing: %s", opt)
	}
	if !strings.Contains(top.Pred.String(), "l.k = r.k") {
		t.Fatalf("equi-join conjunct lost from residual: %s", top.Pred)
	}
	p2, ok := top.Child.(*Product)
	if !ok {
		t.Fatalf("product lost: %s", opt)
	}
	if _, ok := p2.L.(*Select); !ok {
		t.Fatalf("left conjunct not pushed: %s", opt)
	}
	if _, ok := p2.R.(*Select); !ok {
		t.Fatalf("right conjunct not pushed: %s", opt)
	}
	st := MapSource{
		"L": bag.Of(schema.Row(1, 5), schema.Row(2, -1)),
		"R": bag.Of(schema.Row(1, 3), schema.Row(1, 99)),
	}
	want, _ := Eval(sel, st)
	got, _ := Eval(opt, st)
	if !got.Equal(want) {
		t.Fatalf("semantics changed: %v vs %v", got, want)
	}
	if want.Len() != 1 {
		t.Fatalf("fixture wrong: %v", want)
	}
}

// TestOptimizeRenameNormalForm checks the one normal form a pure
// renaming ρ gets: it sinks through ∸/⊎ to the leaves, and a selection
// pushed down stops above ρ(R) for a base table R — the shape the join
// rewrites recognize as "the table R" — while still passing through a ρ
// over anything else.
func TestOptimizeRenameNormalForm(t *testing.T) {
	sch := schema.NewSchema(schema.Col("a", schema.TInt), schema.Col("b", schema.TInt))
	r, d, i := NewBase("R", sch), NewBase("D", sch), NewBase("I", sch)
	m, err := NewMonus(r, d)
	if err != nil {
		t.Fatal(err)
	}
	past, err := NewUnionAll(m, i)
	if err != nil {
		t.Fatal(err)
	}
	sel, err := NewSelect(Eq(A("x.a"), C(1)), Qualified(past, "x")) // σ(ρ((R ∸ D) ⊎ I))
	if err != nil {
		t.Fatal(err)
	}
	opt := Optimize(sel)
	want := "((σ[x.a = 1](Π[a,b](R)) ∸ σ[x.a = 1](Π[a,b](D))) ⊎ σ[x.a = 1](Π[a,b](I)))"
	if got := opt.String(); got != want {
		t.Fatalf("Optimize(%s)\n  = %s\n want %s", sel, got, want)
	}
	if !opt.Schema().Equal(sel.Schema()) {
		t.Fatalf("schema changed: %s -> %s", sel.Schema(), opt.Schema())
	}
	for _, leaf := range spineLeaves(opt, nil) {
		if !baseLeaf(leaf) || !distributable(opt) {
			t.Fatalf("leaf %s is not seen as a base table by the join rewrites", leaf)
		}
		if base, preds := peelSelects(leaf); !isBase(base) || len(preds) != 1 {
			t.Fatalf("peelSelects(%s) = %s, %v", leaf, base, preds)
		}
	}
	// The renaming costs nothing to evaluate: same bag, both evaluators.
	st := MapSource{
		"R": bag.New().Add(schema.Row(1, 1), 2).Add(schema.Row(2, 1), 1),
		"D": bag.New().Add(schema.Row(1, 1), 1),
		"I": bag.New().Add(schema.Row(1, 7), 1),
	}
	before, err := Eval(sel, st)
	if err != nil {
		t.Fatal(err)
	}
	after, err := Eval(opt, st)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := Compile(opt)
	if err != nil {
		t.Fatal(err)
	}
	outs, _, err := prog.Eval(nil, st)
	if err != nil {
		t.Fatal(err)
	}
	if !before.Equal(after) || !before.Equal(outs[0]) || before.Len() != 2 {
		t.Fatalf("σ(ρ(PAST)) = %s, optimized %s, compiled %s", before, after, outs[0])
	}
	// A ρ over a derived operand still lets the selection through.
	overSel, err := NewSelect(Eq(A("x.a"), C(1)), Qualified(NewDupElim(r), "x"))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := Optimize(overSel).String(), "Π[a,b](ε(σ[a = 1](R)))"; got != want {
		t.Fatalf("Optimize(%s) = %s, want %s", overSel, got, want)
	}
}
