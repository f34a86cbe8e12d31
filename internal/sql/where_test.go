package sql

import (
	"os"
	"strings"
	"testing"

	"dvm/internal/algebra"
)

// whereCorpus is every WHERE the package's tests, its fuzz seeds and the
// benchmark's statement shapes write, plus the dialect's corner cases:
// the statements testdata/where.golden pins the predicate trees and the
// printed SQL of.
var whereCorpus = []string{
	// parser_test.go
	"CREATE MATERIALIZED VIEW hv REFRESH DEFERRED COMBINED AS SELECT c.custId, s.itemNo FROM customer c, sales s WHERE c.custId = s.custId",
	"SELECT DISTINCT a.x AS col, b.y FROM t1 a, t2 AS b WHERE a.x = b.y AND NOT b.y < 3 OR a.x != 0",
	"DELETE FROM t WHERE x > 3 + 1 * 2",
	"SELECT * FROM t WHERE (x = 1 OR y = 2) AND z = 3",
	"SELECT * FROM t WHERE (x + 1) * 2 = 4",
	// FuzzParse seeds
	"SELECT DISTINCT a.x AS y FROM t a, u b WHERE a.x = b.y AND NOT (b.y < 3 OR TRUE)",
	"DELETE FROM t WHERE (x + 1) * 2 >= y / 3",
	"select g, h, count(*), Sum(x), aVg(x), min(q), max(h) from t where q <> 2 group by g, h",
	// FuzzEngineExec seeds
	"DELETE FROM sales WHERE custId = 1",
	"delete from sales where quantity >= 1",
	"DELETE FROM sales WHERE itemNo = 1",
	"DELETE FROM customer WHERE custId = 1",
	"SELECT itemNo FROM hv WHERE custId = 1",
	"DELETE FROM sales WHERE itemNo = 2 OR NOT custId < 2",
	"DELETE FROM sales WHERE quantity * 3 - 1 > salesPrice + 1.5",
	"DELETE FROM sales WHERE salesPrice = NULL AND NOT (quantity != NULL OR FALSE)",
	// the benchmark's statement shapes
	"CREATE MATERIALIZED VIEW hv REFRESH DEFERRED COMBINED AS SELECT c.custId, c.name, c.score, s.itemNo, s.quantity FROM customer c, sales s WHERE c.custId = s.custId AND s.quantity != 0 AND c.score = 'High'",
	"SELECT * FROM hv WHERE custId = 7",
	"DELETE FROM sales WHERE custId = 7 AND salesPrice = 9.99",
	// the other tests
	"SELECT x FROM t WHERE y / 2 >= x",
	"SELECT * FROM sales EXCEPT SELECT * FROM sales WHERE quantity = 0",
	"SELECT f.a, f.b FROM five f WHERE f.d = TRUE",
	"EXPLAIN SELECT c.name FROM customer c, sales s WHERE c.custId = s.custId",
	"SELECT o.cust, COUNT(*) AS n, SUM(o.amount) FROM orders o WHERE o.qty > 0 GROUP BY o.cust",
	"SELECT COUNT(*), SUM(amount), MIN(amount) FROM orders o WHERE amount > 1000.0",
	"CREATE MATERIALIZED VIEW v REFRESH DEFERRED COMBINED AS SELECT a.x, b.y AS z FROM t1 a, t2 b WHERE (a.x = b.y AND a.x > 3)",
	"DELETE FROM t WHERE ((x + 1) * 2) >= y",
	// corner cases
	"SELECT * FROM t WHERE TRUE",
	"SELECT * FROM t WHERE (FALSE)",
	"SELECT * FROM t WHERE FALSE OR x = 1",
	"SELECT * FROM t WHERE NOT NOT x = 1",
	"SELECT * FROM t WHERE x <> y AND x <= 1 AND y >= 2.0 AND z < -3",
	"SELECT * FROM t WHERE name = 'it''s' OR name = ''",
	"SELECT * FROM t WHERE x > -2.5 AND x - -1 < 1.0",
	"SELECT * FROM t WHERE 1 = 1 AND TRUE = b",
	"SELECT * FROM t WHERE a.b * (c + d) / 2 = e - f - g",
	"SELECT * FROM t WHERE x = 1 OR y = 2 OR z = 3 AND w = 4",
	"SELECT * FROM a WHERE x = 1 UNION ALL SELECT * FROM b WHERE NOT (y = 2) ORDER BY x DESC LIMIT 3",
}

// explainSetup declares the tables the corpus's queries read, so that
// EXPLAIN of each is pinned too.
const explainSetup = `
	CREATE TABLE customer (custId INT, name STRING, address STRING, score STRING);
	CREATE TABLE sales (custId INT, itemNo INT, quantity INT, salesPrice FLOAT);
	CREATE MATERIALIZED VIEW hv REFRESH DEFERRED COMBINED AS
		SELECT c.custId, s.itemNo FROM customer c, sales s WHERE c.custId = s.custId;
	CREATE TABLE t (x INT, y INT, z INT, w INT, name STRING, b BOOL);
	CREATE TABLE t1 (x INT, v STRING);
	CREATE TABLE t2 (y INT, v STRING);
	CREATE TABLE u (y INT);
	CREATE TABLE a (x INT);
	CREATE TABLE b (x INT, y INT);
	CREATE TABLE five (a INT, b INT, d BOOL)`

// TestWhereGolden: every WHERE of the corpus parses to the predicate
// tree testdata/where.golden records, and the statement prints — and
// EXPLAINs, for a query — byte for byte as recorded. The file was
// written when a WHERE was still parsed into a SQL-local AST and
// converted to the algebra before it ran; its where: lines are the
// converted trees' String.
func TestWhereGolden(t *testing.T) {
	data, err := os.ReadFile("testdata/where.golden")
	if err != nil {
		t.Fatal(err)
	}
	blocks := strings.Split(strings.TrimSuffix(string(data), "\n\n"), "\n\n")
	if len(blocks) != len(whereCorpus) {
		t.Fatalf("where.golden has %d entries, the corpus %d", len(blocks), len(whereCorpus))
	}
	e := NewEngine()
	if _, err := e.ExecScript(explainSetup); err != nil {
		t.Fatal(err)
	}
	for i, in := range whereCorpus {
		st, err := Parse(in)
		if err != nil {
			t.Fatalf("%q: %v", in, err)
		}
		lines := []string{"sql:   " + in}
		for _, w := range wheres(st) {
			lines = append(lines, "where: "+w.String())
		}
		lines = append(lines, "print: "+SQL(st))
		q, explainable := st.(*SelectStmt)
		if x, ok := st.(*ExplainStmt); ok {
			q, explainable = x.Query, true
		}
		if explainable && !containsAggregates(q) && len(q.Head.GroupBy) == 0 {
			if r, err := e.ExecStmt(&ExplainStmt{Query: q}); err != nil {
				lines = append(lines, "explain error: "+err.Error())
			} else {
				lines = append(lines, "explain: "+strings.ReplaceAll(r.Message, "\n", "\nexplain: "))
			}
		}
		if got := strings.Join(lines, "\n"); got != blocks[i] {
			t.Errorf("corpus entry %d:\n got %s\nwant %s", i, got, blocks[i])
		}
	}
}

// TestPrintRoundTrip: a corpus statement printed and parsed again is the
// statement parsed: the same predicate trees, node for node, and the
// same printed text.
func TestPrintRoundTrip(t *testing.T) {
	for _, in := range whereCorpus {
		st := mustParse(t, in)
		printed := SQL(st)
		again := mustParse(t, printed)
		if SQL(again) != printed {
			t.Errorf("%q prints as %q, which prints as %q", in, printed, SQL(again))
		}
		w1, w2 := wheres(st), wheres(again)
		if len(w1) != len(w2) {
			t.Fatalf("%q: %d WHEREs, %d after printing", in, len(w1), len(w2))
		}
		for i := range w1 {
			if !samePred(w1[i], w2[i]) {
				t.Errorf("%q: WHERE %s parses back as %s", in, w1[i], w2[i])
			}
		}
	}
}

// query returns the SELECT a statement runs or explains, or nil.
func query(st Stmt) *SelectStmt {
	switch s := st.(type) {
	case *SelectStmt:
		return s
	case *ExplainStmt:
		return s.Query
	case *CreateView:
		return s.Query
	}
	return nil
}

// wheres returns a statement's WHERE predicates in statement order.
func wheres(st Stmt) []algebra.Predicate {
	var out []algebra.Predicate
	if d, ok := st.(*DeleteStmt); ok && d.Where != nil {
		out = append(out, d.Where)
	}
	if q := query(st); q != nil {
		heads := []*SimpleSelect{q.Head}
		for _, op := range q.Ops {
			heads = append(heads, op.Right)
		}
		for _, h := range heads {
			if h.Where != nil {
				out = append(out, h.Where)
			}
		}
	}
	return out
}

// samePred reports whether two predicate trees are the same, node for
// node: a constant of one type does not match an equal one of another.
func samePred(a, b algebra.Predicate) bool {
	switch x := a.(type) {
	case algebra.Cmp:
		y, ok := b.(algebra.Cmp)
		return ok && x.Op == y.Op && sameScalar(x.L, y.L) && sameScalar(x.R, y.R)
	case algebra.And:
		y, ok := b.(algebra.And)
		return ok && samePreds(x.Preds, y.Preds)
	case algebra.Or:
		y, ok := b.(algebra.Or)
		return ok && samePreds(x.Preds, y.Preds)
	case algebra.Not:
		y, ok := b.(algebra.Not)
		return ok && samePred(x.Pred, y.Pred)
	case algebra.BoolLit:
		y, ok := b.(algebra.BoolLit)
		return ok && x == y
	}
	return false
}

func samePreds(a, b []algebra.Predicate) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !samePred(a[i], b[i]) {
			return false
		}
	}
	return true
}

func sameScalar(a, b algebra.Scalar) bool {
	switch x := a.(type) {
	case algebra.Attr:
		y, ok := b.(algebra.Attr)
		return ok && x == y
	case algebra.Const:
		y, ok := b.(algebra.Const)
		return ok && x.Value.Type() == y.Value.Type() && x.Value.Equal(y.Value)
	case algebra.Arith:
		y, ok := b.(algebra.Arith)
		return ok && x.Op == y.Op && sameScalar(x.L, y.L) && sameScalar(x.R, y.R)
	}
	return false
}
