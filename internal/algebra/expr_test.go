package algebra

import (
	"strings"
	"testing"

	"dvm/internal/bag"
	"dvm/internal/schema"
)

func rsSchema() (*schema.Schema, *schema.Schema) {
	r := schema.NewSchema(schema.Col("A", schema.TString), schema.Col("B", schema.TString))
	s := schema.NewSchema(schema.Col("B2", schema.TString), schema.Col("C", schema.TString))
	return r, s
}

// example12State reproduces the tables of the paper's Example 1.2
// post-insert: R = {[a1,b1],[a1,b2]}, S = {[b1,c1],[b2,c2]}.
func example12State() (MapSource, *Base, *Base) {
	rsch, ssch := rsSchema()
	r := bag.Of(schema.Row("a1", "b1"), schema.Row("a1", "b2"))
	s := bag.Of(schema.Row("b1", "c1"), schema.Row("b2", "c2"))
	return MapSource{"R": r, "S": s}, NewBase("R", rsch), NewBase("S", ssch)
}

func TestEvalBaseAndLiteral(t *testing.T) {
	st, r, _ := example12State()
	got, err := Eval(r, st)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 2 {
		t.Fatalf("R has %d tuples", got.Len())
	}
	// Result must be caller-owned: mutating it must not corrupt the state.
	got.Add(schema.Row("zz", "zz"), 1)
	again, _ := Eval(r, st)
	if again.Contains(schema.Row("zz", "zz")) {
		t.Fatal("Eval result aliases stored table")
	}
	if _, err := Eval(NewBase("missing", r.Schema()), st); err == nil {
		t.Fatal("missing table should error")
	}
	empty, _ := Eval(Empty(r.Schema()), st)
	if !empty.Empty() {
		t.Fatal("∅ should evaluate empty")
	}
	lit, err := Singleton(r.Schema(), schema.Row("x", "y"))
	if err != nil {
		t.Fatal(err)
	}
	one, _ := Eval(lit, st)
	if one.Len() != 1 || !one.Contains(schema.Row("x", "y")) {
		t.Fatal("singleton wrong")
	}
	if _, err := Singleton(r.Schema(), schema.Row(1, 2)); err == nil {
		t.Fatal("singleton with wrong types should fail")
	}
}

func TestEvalSelectProject(t *testing.T) {
	st, r, _ := example12State()
	sel, err := NewSelect(Eq(A("B"), C("b2")), r)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Eval(sel, st)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 1 || !got.Contains(schema.Row("a1", "b2")) {
		t.Fatalf("select wrong: %v", got)
	}
	proj, err := NewProject([]string{"A"}, nil, r)
	if err != nil {
		t.Fatal(err)
	}
	pg, _ := Eval(proj, st)
	// Both R tuples project to [a1]: multiplicity 2 under bag semantics.
	if pg.Count(schema.Row("a1")) != 2 {
		t.Fatalf("project wrong: %v", pg)
	}
	if proj.Schema().Column(0).Name != "A" {
		t.Fatal("projection schema wrong")
	}
	ren, err := NewProject([]string{"A"}, []string{"alias"}, r)
	if err != nil {
		t.Fatal(err)
	}
	if ren.Schema().Column(0).Name != "alias" {
		t.Fatal("rename projection schema wrong")
	}
	if _, err := NewProject([]string{"missing"}, nil, r); err == nil {
		t.Fatal("projecting a missing column should fail")
	}
	if _, err := NewSelect(Eq(A("missing"), C(1)), r); err == nil {
		t.Fatal("selecting on a missing column should fail")
	}
}

func TestEvalSetOps(t *testing.T) {
	sch := schema.NewSchema(schema.Col("x", schema.TInt))
	st := MapSource{
		"P": bag.Of(schema.Row(1), schema.Row(1), schema.Row(2)),
		"Q": bag.Of(schema.Row(1), schema.Row(3)),
	}
	p := NewBase("P", sch)
	q := NewBase("Q", sch)

	u, err := NewUnionAll(p, q)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := Eval(u, st)
	if got.Count(schema.Row(1)) != 3 || got.Len() != 5 {
		t.Fatalf("union wrong: %v", got)
	}

	m, err := NewMonus(p, q)
	if err != nil {
		t.Fatal(err)
	}
	got, _ = Eval(m, st)
	if got.Count(schema.Row(1)) != 1 || got.Count(schema.Row(2)) != 1 || got.Contains(schema.Row(3)) {
		t.Fatalf("monus wrong: %v", got)
	}

	d := NewDupElim(p)
	got, _ = Eval(d, st)
	if got.Len() != 2 {
		t.Fatalf("dupelim wrong: %v", got)
	}

	mi, err := MinOf(p, q)
	if err != nil {
		t.Fatal(err)
	}
	got, _ = Eval(mi, st)
	if !got.Equal(bag.Of(schema.Row(1))) {
		t.Fatalf("min wrong: %v", got)
	}

	mx, err := MaxOf(p, q)
	if err != nil {
		t.Fatal(err)
	}
	got, _ = Eval(mx, st)
	want := bag.Of(schema.Row(1), schema.Row(1), schema.Row(2), schema.Row(3))
	if !got.Equal(want) {
		t.Fatalf("max wrong: %v", got)
	}

	ex, err := ExceptOf(p, q)
	if err != nil {
		t.Fatal(err)
	}
	got, _ = Eval(ex, st)
	// EXCEPT removes all copies of 1 (present in Q), keeps 2.
	if !got.Equal(bag.Of(schema.Row(2))) {
		t.Fatalf("except wrong: %v", got)
	}

	bad := NewBase("R", schema.NewSchema(schema.Col("x", schema.TString)))
	if _, err := NewUnionAll(p, bad); err == nil {
		t.Fatal("incompatible union should fail")
	}
	if _, err := NewMonus(p, bad); err == nil {
		t.Fatal("incompatible monus should fail")
	}
	if _, err := ExceptOf(p, bad); err == nil {
		t.Fatal("incompatible except should fail")
	}
}

func TestEvalProductAndJoin(t *testing.T) {
	st, r, s := example12State()
	prod := NewProduct(r, s)
	if prod.Schema().Len() != 4 {
		t.Fatal("product schema arity wrong")
	}
	got, _ := Eval(prod, st)
	if got.Len() != 4 {
		t.Fatalf("product wrong: %v", got)
	}

	// Example 1.2's view U: SELECT R.A FROM R, S WHERE R.B = S.B — two
	// matches, both projecting to [a1].
	join, err := JoinOn(r, s, Eq(A("B"), A("B2")))
	if err != nil {
		t.Fatal(err)
	}
	u, err := NewProject([]string{"A"}, nil, join)
	if err != nil {
		t.Fatal(err)
	}
	gu, _ := Eval(u, st)
	if gu.Count(schema.Row("a1")) != 2 || gu.Len() != 2 {
		t.Fatalf("example 1.2 view MU wrong: %v", gu)
	}
}

func TestHashJoinMatchesNestedLoop(t *testing.T) {
	// Join with an equi-pair plus a residual inequality; force both the
	// hash path (equi-join present) and the fallback (no pairs), and
	// check they agree.
	lsch := schema.NewSchema(schema.Col("lk", schema.TInt), schema.Col("lv", schema.TInt))
	rsch := schema.NewSchema(schema.Col("rk", schema.TInt), schema.Col("rv", schema.TInt))
	lb, rb := bag.New(), bag.New()
	for i := 0; i < 20; i++ {
		lb.Add(schema.Row(i%5, i), 1+i%2)
		rb.Add(schema.Row(i%4, i), 1)
	}
	st := MapSource{"L": lb, "R": rb}
	l, r := NewBase("L", lsch), NewBase("R", rsch)

	hashPred := AndOf(Eq(A("lk"), A("rk")), Gt(A("rv"), C(3)))
	hj, err := JoinOn(l, r, hashPred)
	if err != nil {
		t.Fatal(err)
	}
	hres, err := Eval(hj, st)
	if err != nil {
		t.Fatal(err)
	}

	// Same semantics without an extractable pair (wrapped in OR with FALSE).
	loopPred := AndOf(OrOf(Eq(A("lk"), A("rk")), False), Gt(A("rv"), C(3)))
	lj, err := JoinOn(l, r, loopPred)
	if err != nil {
		t.Fatal(err)
	}
	lres, err := Eval(lj, st)
	if err != nil {
		t.Fatal(err)
	}
	if !hres.Equal(lres) {
		t.Fatalf("hash join disagrees with nested loop:\n%v\nvs\n%v", hres, lres)
	}
	// Reversed pair order (rk = lk) must also work.
	rev, err := JoinOn(l, r, Eq(A("rk"), A("lk")))
	if err != nil {
		t.Fatal(err)
	}
	rres, _ := Eval(rev, st)
	fwd, err := JoinOn(l, r, Eq(A("lk"), A("rk")))
	if err != nil {
		t.Fatal(err)
	}
	fres, _ := Eval(fwd, st)
	if !rres.Equal(fres) {
		t.Fatal("reversed equi-pair disagrees")
	}
}

func TestSubstitute(t *testing.T) {
	st, r, s := example12State()
	join, err := JoinOn(r, s, Eq(A("B"), A("B2")))
	if err != nil {
		t.Fatal(err)
	}
	u, err := NewProject([]string{"A"}, nil, join)
	if err != nil {
		t.Fatal(err)
	}
	// Substitute R with R ⊎ R: every multiplicity doubles.
	doubled, err := NewUnionAll(r, r)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := Substitute(u, map[string]Expr{"R": doubled})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Eval(sub, st)
	if err != nil {
		t.Fatal(err)
	}
	if got.Count(schema.Row("a1")) != 4 {
		t.Fatalf("substituted eval wrong: %v", got)
	}
	// Original expression untouched.
	orig, _ := Eval(u, st)
	if orig.Count(schema.Row("a1")) != 2 {
		t.Fatal("substitute mutated original")
	}
	// Incompatible replacement must fail.
	bad := NewBase("X", schema.NewSchema(schema.Col("x", schema.TInt)))
	if _, err := Substitute(u, map[string]Expr{"R": bad}); err == nil {
		t.Fatal("incompatible substitution should fail")
	}
}

func TestBaseNamesAndSelfJoin(t *testing.T) {
	st, r, s := example12State()
	_ = st
	join, _ := JoinOn(r, s, Eq(A("B"), A("B2")))
	names := BaseNames(join)
	if len(names) != 2 || names[0] != "R" || names[1] != "S" {
		t.Fatalf("BaseNames = %v", names)
	}
	rr := NewProduct(qualify(r, "l"), qualify(r, "r"))
	if got := BaseNames(rr); len(got) != 1 || got[0] != "R" {
		t.Fatalf("BaseNames(R×R) = %v", got)
	}
	if BaseNames(Empty(r.Schema())) != nil {
		t.Fatal("∅ references no tables")
	}
}

func TestExprStrings(t *testing.T) {
	_, r, s := example12State()
	join, _ := JoinOn(r, s, Eq(A("B"), A("B2")))
	u, _ := NewProject([]string{"A"}, nil, join)
	str := u.String()
	for _, want := range []string{"Π[A]", "σ[B = B2]", "(R × S)"} {
		if !strings.Contains(str, want) {
			t.Errorf("String %q missing %q", str, want)
		}
	}
	if Empty(r.Schema()).String() != "∅" {
		t.Error("empty literal should print ∅")
	}
	lit, _ := Singleton(r.Schema(), schema.Row("x", "y"))
	if !strings.Contains(lit.String(), `"x"`) {
		t.Errorf("literal String = %q", lit.String())
	}
	d := NewDupElim(r)
	if d.String() != "ε(R)" {
		t.Errorf("dupelim String = %q", d.String())
	}
	mo, _ := NewMonus(r, r)
	if mo.String() != "(R ∸ R)" {
		t.Errorf("monus String = %q", mo.String())
	}
	un, _ := NewUnionAll(r, r)
	if un.String() != "(R ⊎ R)" {
		t.Errorf("union String = %q", un.String())
	}
}

func TestQualifySchemas(t *testing.T) {
	_, r, _ := example12State()
	q := qualify(r, "t")
	if q.Schema().Column(0).Name != "t.A" || q.Schema().Column(1).Name != "t.B" {
		t.Fatalf("qualify schema = %v", q.Schema())
	}
	st, _, _ := example12State()
	got, err := Eval(q, st)
	if err != nil || got.Len() != 2 {
		t.Fatalf("qualified eval: %v, %v", got, err)
	}
}

func TestQualifiedExported(t *testing.T) {
	st, r, _ := example12State()
	q := Qualified(r, "x")
	if q.Schema().Column(0).Name != "x.A" {
		t.Fatalf("Qualified schema = %v", q.Schema())
	}
	b, err := Eval(q, st)
	if err != nil || b.Len() != 2 {
		t.Fatalf("Qualified eval: %v, %v", b, err)
	}
}
