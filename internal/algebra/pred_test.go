package algebra

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"dvm/internal/schema"
)

func bindPred(t *testing.T, p Predicate, sc *schema.Schema) func(schema.Tuple) bool {
	t.Helper()
	f, err := p.Bind(sc)
	if err != nil {
		t.Fatalf("Bind(%s): %v", p, err)
	}
	return f
}

func TestCmpOps(t *testing.T) {
	sc := sch2()
	tu := schema.Row(5, 2.0)
	cases := []struct {
		p    Predicate
		want bool
	}{
		{Eq(A("a"), C(5)), true},
		{Eq(A("a"), C(4)), false},
		{Neq(A("a"), C(4)), true},
		{Lt(A("a"), C(6)), true},
		{Lt(A("a"), C(5)), false},
		{Cmp{Op: LE, L: A("a"), R: C(5)}, true},
		{Gt(A("a"), C(4)), true},
		{Cmp{Op: GE, L: A("a"), R: C(5)}, true},
		{Eq(A("a"), A("b")), false},
		{Gt(A("a"), A("b")), true},
	}
	for _, c := range cases {
		if got := bindPred(t, c.p, sc)(tu); got != c.want {
			t.Errorf("%s on %v = %t, want %t", c.p, tu, got, c.want)
		}
	}
}

// TestCmpBindMatchesScalarCompare holds the fused comparison (Cmp.Bind
// resolves an Attr to its position and a Const to its value, and runs
// one closure) to the unfused reference: each side bound on its own
// (BindScalar), compared with schema.Value.Compare, the operator applied
// by this test's own table. FuzzCompiledEval and FuzzExprParseEval cannot
// catch a wrong fused compare: both of their evaluators bind through
// Cmp.Bind. Every operator meets every pair of operand kinds — a bare
// and a qualified Attr, a Const, and arithmetic — over NULL, INT against
// an equal FLOAT, ±0.0, NaN, ±Inf, strings and bools; a name that is
// unknown or ambiguous, on either side or inside arithmetic, fails with
// the error binding that scalar alone gives.
func TestCmpBindMatchesScalarCompare(t *testing.T) {
	holds := map[CmpOp]func(int) bool{
		EQ: func(c int) bool { return c == 0 },
		NE: func(c int) bool { return c != 0 },
		LT: func(c int) bool { return c < 0 },
		LE: func(c int) bool { return c <= 0 },
		GT: func(c int) bool { return c > 0 },
		GE: func(c int) bool { return c >= 0 },
	}
	vals := []schema.Value{
		schema.Null(), schema.Int(1), schema.Float(1), schema.Int(-3),
		schema.Float(0), schema.Float(math.Copysign(0, -1)), schema.Float(math.NaN()),
		schema.Float(math.Inf(1)), schema.Float(math.Inf(-1)),
		schema.Str(""), schema.Str("a"), schema.Str("b"), schema.Bool(false), schema.Bool(true),
	}
	cols := make([]schema.Column, 0, len(vals)+2)
	for k, v := range vals {
		typ := v.Type()
		if typ == schema.TNull {
			typ = schema.TInt
		}
		cols = append(cols, schema.Col(fmt.Sprintf("t.c%d", k), typ))
	}
	cols = append(cols, schema.Col("t.dup", schema.TInt), schema.Col("u.dup", schema.TInt))
	sc := schema.NewSchema(cols...)
	tu := append(schema.Tuple{}, vals...)
	tu = append(tu, schema.Int(0), schema.Int(0))

	var operands []Scalar
	for k, v := range vals {
		operands = append(operands, A(fmt.Sprintf("c%d", k)), A(fmt.Sprintf("t.c%d", k)), Const{Value: v})
		if typ := v.Type(); typ == schema.TNull || v.Numeric() {
			operands = append(operands, Arith{Op: OpMul, L: A(fmt.Sprintf("t.c%d", k)), R: C(1)})
		}
	}
	eval := func(s Scalar) schema.Value {
		f, _, err := BindScalar(s, sc)
		if err != nil {
			t.Fatalf("BindScalar(%s): %v", s, err)
		}
		return f(tu)
	}
	checked := 0
	for op, want := range holds {
		for _, l := range operands {
			for _, r := range operands {
				c := Cmp{Op: op, L: l, R: r}
				if got, w := bindPred(t, c, sc)(tu), want(eval(l).Compare(eval(r))); got != w {
					t.Errorf("%s on %v, %v = %t, want %t", c, eval(l), eval(r), got, w)
				}
				checked++
			}
		}
	}
	t.Logf("%d comparisons checked", checked)

	for _, bad := range []Scalar{
		A("zz"), A("t.zz"), A("dup"),
		Arith{Op: OpAdd, L: A("dup"), R: C(1)},
		Arith{Op: OpAdd, L: C(1), R: A("zz")},
		Arith{Op: OpAdd, L: A("c10"), R: C(1)},
	} {
		_, _, want := BindScalar(bad, sc)
		if want == nil {
			t.Fatalf("%s binds alone", bad)
		}
		for _, c := range []Cmp{Eq(bad, C(1)), Lt(A("c1"), bad)} {
			if _, err := c.Bind(sc); err == nil || err.Error() != want.Error() {
				t.Errorf("%s binds with error %v, want %v", c, err, want)
			}
		}
	}
}

// TestAndBindMatchesItsConjuncts holds the one-closure conjunction
// (And.Bind, nested Ands flattened into it) to the reference: each
// conjunct bound alone by its own Bind, the results conjoined by this
// test. Random conjunctions of one to five conjuncts, nested at random,
// meet every tuple of a small grid in which each comparison is true on
// some tuples and false on others. Most conjuncts are comparisons; the
// rest are an OR or a NOT of comparisons or a bare TRUE or FALSE, so
// mixed conjunctions are held to the reference too. A conjunction that
// names an unknown column fails to bind as that comparison alone does.
func TestAndBindMatchesItsConjuncts(t *testing.T) {
	sc := schema.NewSchema(schema.Col("a", schema.TInt), schema.Col("b", schema.TInt), schema.Col("c", schema.TFloat))
	var grid []schema.Tuple
	for a := 0; a < 3; a++ {
		for b := 0; b < 3; b++ {
			for _, c := range []any{nil, 0.5, 1.5} {
				grid = append(grid, schema.Row(a, b, c))
			}
		}
	}
	operands := []Scalar{A("a"), A("b"), A("c"), C(1), C(1.5), Arith{Op: OpAdd, L: A("a"), R: C(1)}}
	rng := rand.New(rand.NewSource(1))
	cmp := func() Cmp {
		return Cmp{Op: CmpOp(rng.Intn(int(GE) + 1)), L: operands[rng.Intn(len(operands))], R: operands[rng.Intn(len(operands))]}
	}
	leaf := func() Predicate {
		switch rng.Intn(8) {
		case 0:
			return OrOf(cmp(), cmp())
		case 1:
			return NotOf(cmp())
		case 2:
			return BoolLit{Value: rng.Intn(2) == 0}
		}
		return cmp()
	}
	// conj builds a conjunction of n conjuncts, split at random into
	// nested Ands, and appends them to leaves in conjunct order.
	var conj func(n int, leaves *[]Predicate) And
	conj = func(n int, leaves *[]Predicate) And {
		var ps []Predicate
		for n > 0 {
			if k := 1 + rng.Intn(n); k > 1 && rng.Intn(2) == 0 {
				ps = append(ps, conj(k, leaves))
				n -= k
				continue
			}
			c := leaf()
			*leaves = append(*leaves, c)
			ps = append(ps, c)
			n--
		}
		return AndOf(ps...)
	}
	for trial := 0; trial < 2000; trial++ {
		var leaves []Predicate
		p := conj(1+rng.Intn(5), &leaves)
		fused := bindPred(t, p, sc)
		alone := make([]func(schema.Tuple) bool, len(leaves))
		for i, c := range leaves {
			alone[i] = bindPred(t, c, sc)
		}
		for _, tu := range grid {
			want := true
			for _, f := range alone {
				want = want && f(tu)
			}
			if got := fused(tu); got != want {
				t.Fatalf("%s on %v = %t, its conjuncts' conjunction %t", p, tu, got, want)
			}
		}
	}
	if f := bindPred(t, AndOf(), sc); !f(grid[0]) {
		t.Error("the empty conjunction is false")
	}
	bad := Eq(A("zz"), C(1))
	_, want := bad.Bind(sc)
	for _, p := range []And{AndOf(Eq(A("a"), C(1)), AndOf(bad)), AndOf(NotOf(Eq(A("a"), C(1))), OrOf(bad))} {
		if _, err := p.Bind(sc); err == nil || err.Error() != want.Error() {
			t.Errorf("%s binds with error %v, want %v", p, err, want)
		}
	}
}

func TestBoolPredCombinators(t *testing.T) {
	sc := sch2()
	tu := schema.Row(5, 2.0)
	pT := Eq(A("a"), C(5))
	pF := Eq(A("a"), C(0))
	cases := []struct {
		p    Predicate
		want bool
	}{
		{AndOf(), true},
		{AndOf(pT, pT), true},
		{AndOf(pT, pF), false},
		{OrOf(), false},
		{OrOf(pF, pT), true},
		{OrOf(pF, pF), false},
		{NotOf(pF), true},
		{NotOf(pT), false},
		{True, true},
		{False, false},
	}
	for _, c := range cases {
		if got := bindPred(t, c.p, sc)(tu); got != c.want {
			t.Errorf("%s = %t, want %t", c.p, got, c.want)
		}
	}
}

func TestPredBindErrors(t *testing.T) {
	sc := sch2()
	bad := Eq(A("zzz"), C(1))
	preds := []Predicate{
		bad,
		Eq(C(1), A("zzz")),
		AndOf(True, bad),
		OrOf(False, bad),
		NotOf(bad),
	}
	for _, p := range preds {
		if _, err := p.Bind(sc); err == nil {
			t.Errorf("%s should fail to bind", p)
		}
	}
}

func TestPredStrings(t *testing.T) {
	cases := map[string]Predicate{
		"a = 1":             Eq(A("a"), C(1)),
		"a != 1":            Neq(A("a"), C(1)),
		"(a = 1 AND b > 2)": AndOf(Eq(A("a"), C(1)), Gt(A("b"), C(2))),
		"(a = 1 OR a < 0)":  OrOf(Eq(A("a"), C(1)), Lt(A("a"), C(0))),
		"NOT a = 1":         NotOf(Eq(A("a"), C(1))),
		"TRUE":              AndOf(),
		"FALSE":             OrOf(),
	}
	for want, p := range cases {
		if got := p.String(); got != want {
			t.Errorf("String = %q, want %q", got, want)
		}
	}
	if True.String() != "TRUE" || False.String() != "FALSE" {
		t.Error("BoolLit strings wrong")
	}
	for op, want := range map[CmpOp]string{EQ: "=", NE: "!=", LT: "<", LE: "<=", GT: ">", GE: ">="} {
		if op.String() != want {
			t.Errorf("CmpOp = %q, want %q", op.String(), want)
		}
	}
}

func TestEquiPairs(t *testing.T) {
	p := AndOf(Eq(A("x"), A("y")), Gt(A("x"), C(0)), Eq(A("u"), A("v")))
	pairs, rest := equiPairs(p)
	if len(pairs) != 2 || pairs[0] != [2]string{"x", "y"} || pairs[1] != [2]string{"u", "v"} {
		t.Fatalf("pairs = %v", pairs)
	}
	if len(rest) != 1 {
		t.Fatalf("rest = %v", rest)
	}
	// Disjunction must not contribute join pairs.
	pairs, _ = equiPairs(OrOf(Eq(A("x"), A("y")), True))
	if len(pairs) != 0 {
		t.Fatalf("Or contributed pairs: %v", pairs)
	}
	// attr = const is not an equi-join pair.
	pairs, rest = equiPairs(Eq(A("x"), C(1)))
	if len(pairs) != 0 || len(rest) != 1 {
		t.Fatalf("attr=const misclassified: %v %v", pairs, rest)
	}
	// TRUE contributes nothing at all.
	pairs, rest = equiPairs(True)
	if len(pairs) != 0 || len(rest) != 0 {
		t.Fatalf("TRUE misclassified")
	}
}
