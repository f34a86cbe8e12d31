package algebra

import (
	"math/rand"
	"testing"

	"dvm/internal/bag"
	"dvm/internal/schema"
)

// TestOptimizePreservesSemantics: the rewrite Compile runs keeps every
// random query's schema and value.
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

// TestOptimizePushesSelectThroughUnion: σ over a ⊎ of products goes to
// each product, where the compiler fuses it into a join.
func TestOptimizePushesSelectThroughUnion(t *testing.T) {
	sch := schema.NewSchema(schema.Col("x", schema.TInt))
	c := Qualified(NewBase("C", sch), "c")
	un, err := NewUnionAll(NewProduct(NewBase("A", sch), c), NewProduct(NewBase("B", sch), c))
	if err != nil {
		t.Fatal(err)
	}
	sel, err := NewSelect(Eq(A("x"), A("c.x")), un)
	if err != nil {
		t.Fatal(err)
	}
	opt := Optimize(sel)
	u2, ok := opt.(*UnionAll)
	if !ok {
		t.Fatalf("σ not pushed: %s", opt)
	}
	for _, side := range []Expr{u2.L, u2.R} {
		if s, ok := side.(*Select); !ok {
			t.Fatalf("side %s of %s is not a σ", side, opt)
		} else if _, ok := s.Child.(*Product); !ok {
			t.Fatalf("side %s of %s is not a σ(×)", side, opt)
		}
	}
	st := MapSource{
		"A": bag.Of(schema.Row(1), schema.Row(2)),
		"B": bag.Of(schema.Row(2)),
		"C": bag.Of(schema.Row(2), schema.Row(3)),
	}
	want, _ := Eval(sel, st)
	got, _ := Eval(opt, st)
	if !got.Equal(want) || want.Len() != 2 {
		t.Fatalf("semantics changed: %v vs %v", got, want)
	}
}

// TestOptimizeKeepsSelectWhenNamesDiffer: a ∸ or ⊎ takes its left
// operand's column names, so a predicate pushed to a right operand with
// other names binds other columns. Compile must then leave σ above the
// spine, and a join above the ⊎, and answer as Eval does.
func TestOptimizeKeepsSelectWhenNamesDiffer(t *testing.T) {
	ab := schema.NewSchema(schema.Col("a", schema.TInt), schema.Col("b", schema.TInt))
	ba := schema.NewSchema(schema.Col("b", schema.TInt), schema.Col("a", schema.TInt))
	csch := schema.NewSchema(schema.Col("c", schema.TInt))
	r, s, tt := NewBase("R", ab), NewBase("S", ba), NewBase("T", csch)

	// σ[a=1]((R(a,b) × T(c)) ⊎ (S(b,a) × T(c))): the σ over the spine.
	overSpine := must(NewSelect(Eq(A("a"), C(1)), must(NewUnionAll(NewProduct(r, tt), NewProduct(s, tt)))))
	// σ[a=c]((R(a,b) ⊎ S(b,a)) × T(c)): the join over the ⊎.
	overJoin := must(NewSelect(Eq(A("a"), A("c")), NewProduct(must(NewUnionAll(r, s)), tt)))
	st := MapSource{
		"R": bag.Of(schema.Row(1, 2)),
		"S": bag.Of(schema.Row(1, 2)),
		"T": bag.Of(schema.Row(7)),
	}
	joinSt := MapSource{"R": st["R"], "S": st["S"], "T": bag.Of(schema.Row(1))}
	for _, c := range []struct {
		e  Expr
		st MapSource
	}{{overSpine, st}, {overJoin, joinSt}} {
		want, err := Eval(c.e, c.st)
		if err != nil {
			t.Fatal(err)
		}
		if want.Len() != 2 {
			t.Fatalf("fixture: Eval(%s) = %v, want 2 rows", c.e, want)
		}
		prog, err := Compile(c.e)
		if err != nil {
			t.Fatal(err)
		}
		ps := prog.NewState()
		for _, run := range []*State{nil, ps, ps} {
			got, _, err := prog.Eval(run, c.st)
			if err != nil {
				t.Fatal(err)
			}
			if !got[0].Equal(want) {
				t.Fatalf("compiled %s (as %s) = %v, Eval = %v", c.e, Optimize(c.e), got[0], want)
			}
		}
	}
}

// TestOptimizePreservesSharing: a subexpression shared before the
// rewrite is rewritten once and shared after it.
func TestOptimizePreservesSharing(t *testing.T) {
	sch := schema.NewSchema(schema.Col("x", schema.TInt))
	c := Qualified(NewBase("C", sch), "c")
	shared := must(NewSelect(Eq(A("x"), A("c.x")), NewProduct(must(NewUnionAll(NewBase("A", sch), NewBase("B", sch))), c)))
	opt := Optimize(must(NewUnionAll(shared, shared))).(*UnionAll)
	if opt.L != opt.R {
		t.Fatal("sharing lost during optimize")
	}
	if opt.L == Expr(shared) {
		t.Fatalf("the join was not distributed over A ⊎ B: %s", opt.L)
	}
}

// TestEvaluatorSharedMemo: the interpreter's memo and a compiled
// program's State both keep what one evaluation computed, and neither
// lends it to the caller of Eval: mutating a result changes neither the
// next evaluation nor the source.
func TestEvaluatorSharedMemo(t *testing.T) {
	sch := schema.NewSchema(schema.Col("x", schema.TInt))
	st := MapSource{"A": bag.Of(schema.Row(1), schema.Row(2))}
	base := NewBase("A", sch)
	prog, err := Compile(base, Optimize(base))
	if err != nil {
		t.Fatal(err)
	}
	ps := prog.NewState()
	for range 2 {
		outs, _, err := prog.Eval(ps, st)
		if err != nil {
			t.Fatal(err)
		}
		if !outs[0].Equal(st["A"]) || !outs[1].Equal(st["A"]) {
			t.Fatalf("compiled roots %v, want %v", outs, st["A"])
		}
		outs[0].Add(schema.Row(99), 1)
		outs[1].Add(schema.Row(98), 1)
	}
	if st["A"].Contains(schema.Row(99)) || st["A"].Contains(schema.Row(98)) {
		t.Fatal("a compiled root lent the source's table to the caller")
	}
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
