package sql

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"dvm/internal/algebra"
	"dvm/internal/bag"
)

// oneTableEngine returns an engine with a table t (a INT, b INT, c FLOAT)
// of small-valued rows, some twice and some with a NULL c, a refreshed
// view w over all of t, so a FROM item naming either reads the same
// rows (w through its MV, t in place), and a refreshed view dup whose
// two columns are both named a.
func oneTableEngine(t *testing.T) *Engine {
	t.Helper()
	e := NewEngine()
	mustExec(t, e, `CREATE TABLE t (a INT, b INT, c FLOAT);
		CREATE MATERIALIZED VIEW w REFRESH DEFERRED COMBINED AS SELECT t.a, t.b, t.c FROM t t;
		CREATE MATERIALIZED VIEW dup REFRESH DEFERRED COMBINED AS SELECT x.a, y.a FROM t x, t y WHERE x.b = y.b`)
	var rows []string
	for a := 0; a < 4; a++ {
		for b := 0; b < 3; b++ {
			for _, c := range []string{"NULL", "0.5", "1.5"} {
				row := fmt.Sprintf("(%d, %d, %s)", a, b, c)
				rows = append(rows, row)
				if (a+b)%3 == 0 {
					rows = append(rows, row)
				}
			}
		}
	}
	mustExec(t, e, "INSERT INTO t VALUES "+strings.Join(rows, ", "))
	mustExec(t, e, "REFRESH w; REFRESH dup")
	return e
}

// TestOneTableReadMatchesTheCompiledPlan: a SELECT of one FROM item reads
// its table in place (selectOne), and an aggregate folds that table's
// rows (execAggregate), with no plan compiled; both must answer what the
// plan answers. Over a view and over a table, with and without an alias,
// under random WHEREs built as TestAndBindMatchesItsConjuncts builds them
// (comparisons, some nested in AND, OR or NOT, and bare literals) over
// qualified and bare column names, SELECT *, a column list, the list of
// every column, DISTINCT and a GROUP BY aggregate each return the rows
// and the schema of algebra.Eval of CompileSelect's expression (of
// compileFrom's, folded by the same aggregate, for the aggregate). A
// statement the plan rejects fails with the plan's error: an unknown
// column, an ambiguous one, an internal table.
func TestOneTableReadMatchesTheCompiledPlan(t *testing.T) {
	e := oneTableEngine(t)
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 400; trial++ {
		from := TableRef{Name: []string{"t", "w"}[rng.Intn(2)]}
		if rng.Intn(2) == 0 {
			from.Alias = "x"
		}
		col := func() string {
			c := []string{"a", "b", "c"}[rng.Intn(3)]
			if rng.Intn(2) == 0 {
				return from.alias() + "." + c
			}
			return c
		}
		where := randomWhere(rng, col)
		heads := []*SimpleSelect{
			{Star: true},
			{Items: []SelectItem{{Expr: algebra.A(col())}, {Expr: algebra.A(col()), Alias: "k"}}},
			{Items: []SelectItem{{Expr: algebra.A(from.alias() + ".a")}, {Expr: algebra.A("b")}, {Expr: algebra.A("c")}}},
			{Distinct: true, Items: []SelectItem{{Expr: algebra.A(col())}, {Expr: algebra.A("b")}}},
			{Distinct: true, Star: true},
			{Items: []SelectItem{{Expr: algebra.A("a")}, {Agg: &AggExpr{Func: "COUNT", Star: true}},
				{Agg: &AggExpr{Func: "SUM", Arg: algebra.A(col())}}, {Agg: &AggExpr{Func: "MIN", Arg: algebra.A("c")}, Alias: "lo"}},
				GroupBy: []string{"a"}},
		}
		for _, h := range heads {
			h.From, h.Where = []TableRef{from}, where
			st := &SelectStmt{Head: h, Limit: -1}
			matchesThePlan(t, e, st)
		}
	}
	bad := []string{
		"SELECT * FROM t WHERE zz = 1",                      // unknown column in WHERE
		"SELECT a, zz FROM w x WHERE x.a = 1",               // unknown column in the list
		"SELECT y.a FROM t x",                               // another item's qualifier
		"SELECT * FROM dup WHERE a = 1",                     // ambiguous in WHERE
		"SELECT a FROM dup",                                 // ambiguous in the list
		"SELECT * FROM __mv_w",                              // an internal table
		"SELECT a + 1 FROM t",                               // not a column reference
		"SELECT a, COUNT(*) FROM w WHERE zz > 0 GROUP BY a", // an aggregate's unknown column
		"SELECT COUNT(*) FROM __mv_w",                       // an aggregate over an internal table
	}
	for _, q := range bad {
		st, err := Parse(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		matchesThePlan(t, e, st.(*SelectStmt))
	}
}

// randomWhere returns nil (no WHERE) or a random conjunction over the
// columns col names.
func randomWhere(rng *rand.Rand, col func() string) algebra.Predicate {
	if rng.Intn(5) == 0 {
		return nil
	}
	operand := func() algebra.Scalar {
		switch rng.Intn(5) {
		case 0:
			return algebra.C(rng.Intn(3))
		case 1:
			return algebra.C(0.5 + float64(rng.Intn(2)))
		case 2:
			return algebra.Arith{Op: algebra.OpAdd, L: algebra.A(col()), R: algebra.C(1)}
		}
		return algebra.A(col())
	}
	cmp := func() algebra.Predicate {
		return algebra.Cmp{Op: algebra.CmpOp(rng.Intn(int(algebra.GE) + 1)), L: operand(), R: operand()}
	}
	leaf := func() algebra.Predicate {
		switch rng.Intn(8) {
		case 0:
			return algebra.OrOf(cmp(), cmp())
		case 1:
			return algebra.NotOf(cmp())
		case 2:
			return algebra.BoolLit{Value: rng.Intn(2) == 0}
		}
		return cmp()
	}
	var conj func(n int) algebra.Predicate
	conj = func(n int) algebra.Predicate {
		if n == 1 && rng.Intn(2) == 0 {
			return leaf()
		}
		var ps []algebra.Predicate
		for n > 0 {
			if k := 1 + rng.Intn(n); k > 1 && rng.Intn(2) == 0 {
				ps = append(ps, conj(k))
				n -= k
				continue
			}
			ps = append(ps, leaf())
			n--
		}
		return algebra.AndOf(ps...)
	}
	return conj(1 + rng.Intn(4))
}

// matchesThePlan executes st and holds its answer, or its error, to the
// compiled plan's.
func matchesThePlan(t *testing.T, e *Engine, st *SelectStmt) {
	t.Helper()
	q := SQL(st)
	got, gotErr := e.ExecStmt(st)
	want, wantErr := compiledAnswer(e, st)
	switch {
	case gotErr != nil || wantErr != nil:
		if gotErr == nil || wantErr == nil || gotErr.Error() != wantErr.Error() {
			t.Fatalf("%s: fails with %v, the plan with %v", q, gotErr, wantErr)
		}
	case !got.Schema.Equal(want.Schema):
		t.Fatalf("%s: schema %s, the plan's %s", q, got.Schema, want.Schema)
	case !got.Rows.Equal(want.Rows):
		t.Fatalf("%s:\n got %v\nwant %v", q, got.Rows, want.Rows)
	}
}

// compiledAnswer is st answered by its compiled plan: algebra.Eval of
// CompileSelect's expression, or for an aggregate the same fold over
// algebra.Eval of compileFrom's.
func compiledAnswer(e *Engine, st *SelectStmt) (*Result, error) {
	if !containsAggregates(st) {
		expr, err := CompileSelect(st, e.querySource)
		if err != nil {
			return nil, err
		}
		rows, err := algebra.Eval(expr, e.DB())
		if err != nil {
			return nil, err
		}
		return &Result{Rows: rows, Schema: expr.Schema()}, nil
	}
	expr, err := compileFrom(st.Head.From, st.Head.Where, e.querySource)
	if err != nil {
		return nil, err
	}
	return aggregate(st.Head, expr.Schema(), func(f func(*bag.Bag, bool) error) error {
		rows, err := algebra.Eval(expr, e.DB())
		if err != nil {
			return err
		}
		return f(rows, true)
	})
}

// TestOneTableReadTakesTheViewLock: a one-table SELECT or aggregate on a
// view reads MV under MV's read lock — one more reader acquisition in
// Locks().Stats(MV) each — and one on an external table takes no lock.
func TestOneTableReadTakesTheViewLock(t *testing.T) {
	e := oneTableEngine(t)
	v, err := e.Manager().View("w")
	if err != nil {
		t.Fatal(err)
	}
	mv, lm := v.MVTable(), e.Manager().Locks()
	for _, q := range []string{
		"SELECT * FROM w WHERE a = 1",
		"SELECT * FROM w",
		"SELECT DISTINCT b FROM w x WHERE x.c > 1",
		"SELECT a, COUNT(*) FROM w GROUP BY a",
		"SELECT SUM(b) FROM w WHERE a = 2",
	} {
		before := lm.Stats(mv).ReadWaits
		mustExec(t, e, q)
		if got := lm.Stats(mv).ReadWaits - before; got != 1 {
			t.Errorf("%s: %d read acquisitions of %s, want 1", q, got, mv)
		}
	}
	before := lm.Stats(mv).ReadWaits
	for _, q := range []string{"SELECT * FROM t WHERE a = 1", "SELECT a, COUNT(*) FROM t GROUP BY a"} {
		mustExec(t, e, q)
		if s := lm.Stats("t"); s.ReadWaits != 0 {
			t.Errorf("%s: %d read acquisitions of t, want none", q, s.ReadWaits)
		}
	}
	if got := lm.Stats(mv).ReadWaits - before; got != 0 {
		t.Errorf("reads of t took %s's read lock %d times", mv, got)
	}
}
