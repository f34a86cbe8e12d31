package sql

import (
	"strings"
	"testing"

	"dvm/internal/algebra"
	"dvm/internal/core"
	"dvm/internal/schema"
	"dvm/internal/storage"
)

func newRetailEngine(t *testing.T, mode string) *Engine {
	t.Helper()
	e := NewEngine()
	script := `
		CREATE TABLE customer (custId INT, name STRING, address STRING, score STRING);
		CREATE TABLE sales (custId INT, itemNo INT, quantity INT, salesPrice FLOAT);
		INSERT INTO customer VALUES
			(1, 'ann', 'a st', 'High'),
			(2, 'bob', 'b st', 'Low'),
			(3, 'cat', 'c st', 'High');
		INSERT INTO sales VALUES
			(1, 10, 2, 9.99),
			(1, 11, 0, 5.00),
			(2, 10, 1, 9.99),
			(3, 12, 4, 1.50);
	`
	if _, err := e.ExecScript(script); err != nil {
		t.Fatal(err)
	}
	view := `CREATE MATERIALIZED VIEW hv REFRESH ` + mode + ` AS
		SELECT c.custId, c.name, c.score, s.itemNo, s.quantity
		FROM customer c, sales s
		WHERE c.custId = s.custId AND s.quantity != 0 AND c.score = 'High'`
	if _, err := e.Exec(view); err != nil {
		t.Fatal(err)
	}
	return e
}

func TestEngineEndToEndCombined(t *testing.T) {
	e := newRetailEngine(t, "DEFERRED COMBINED")

	r, err := e.Exec("SELECT * FROM hv")
	if err != nil {
		t.Fatal(err)
	}
	if r.Rows.Len() != 2 {
		t.Fatalf("initial view = %d rows: %v", r.Rows.Len(), r.Rows)
	}

	// New sale for a High customer: view is stale until refresh.
	if _, err := e.Exec("INSERT INTO sales VALUES (3, 99, 7, 2.00)"); err != nil {
		t.Fatal(err)
	}
	r, _ = e.Exec("SELECT * FROM hv")
	if r.Rows.Len() != 2 {
		t.Fatal("deferred view should be stale before refresh")
	}
	if _, err := e.Exec("CHECK INVARIANT hv"); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Exec("PROPAGATE hv"); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Exec("PARTIAL REFRESH hv"); err != nil {
		t.Fatal(err)
	}
	r, _ = e.Exec("SELECT * FROM hv")
	if r.Rows.Len() != 3 {
		t.Fatalf("after partial refresh: %d rows", r.Rows.Len())
	}
	if _, err := e.Exec("REFRESH hv"); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Exec("CHECK INVARIANT hv"); err != nil {
		t.Fatal(err)
	}

	// Delete all of customer 1's sales; refresh must drop them.
	if _, err := e.Exec("DELETE FROM sales WHERE custId = 1"); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Exec("REFRESH hv"); err != nil {
		t.Fatal(err)
	}
	r, _ = e.Exec("SELECT * FROM hv WHERE custId = 1")
	if r.Rows.Len() != 0 {
		t.Fatalf("customer 1 rows survived: %v", r.Rows)
	}
}

func TestEngineImmediateMode(t *testing.T) {
	e := newRetailEngine(t, "IMMEDIATE")
	if _, err := e.Exec("INSERT INTO sales VALUES (1, 50, 3, 1.00)"); err != nil {
		t.Fatal(err)
	}
	// Immediate: view is current without any refresh.
	r, _ := e.Exec("SELECT * FROM hv WHERE itemNo = 50")
	if r.Rows.Len() != 1 {
		t.Fatalf("immediate view stale: %v", r.Rows)
	}
}

func TestEngineDuplicateSemantics(t *testing.T) {
	e := newRetailEngine(t, "DEFERRED LOGGED")
	// The same sale twice: bag semantics keeps both.
	if _, err := e.Exec("INSERT INTO sales VALUES (1, 77, 1, 1.00), (1, 77, 1, 1.00)"); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Exec("REFRESH hv"); err != nil {
		t.Fatal(err)
	}
	r, _ := e.Exec("SELECT * FROM hv WHERE itemNo = 77")
	if r.Rows.Len() != 2 {
		t.Fatalf("duplicates = %d, want 2", r.Rows.Len())
	}
	// DISTINCT collapses them.
	r, _ = e.Exec("SELECT DISTINCT custId, itemNo FROM hv WHERE itemNo = 77")
	if r.Rows.Len() != 1 {
		t.Fatalf("distinct = %d, want 1", r.Rows.Len())
	}
}

func TestEngineCompoundQueries(t *testing.T) {
	e := NewEngine()
	if _, err := e.ExecScript(`
		CREATE TABLE a (x INT);
		CREATE TABLE b (x INT);
		INSERT INTO a VALUES (1), (1), (2);
		INSERT INTO b VALUES (1), (3);
	`); err != nil {
		t.Fatal(err)
	}
	cases := map[string]int{
		"SELECT * FROM a UNION ALL SELECT * FROM b": 5,
		"SELECT * FROM a EXCEPT SELECT * FROM b":    1, // EXCEPT kills all 1s
		"SELECT * FROM a MONUS SELECT * FROM b":     2, // monus leaves one 1
		"SELECT * FROM a MIN SELECT * FROM b":       1,
		"SELECT * FROM a MAX SELECT * FROM b":       4,
	}
	for q, want := range cases {
		r, err := e.Exec(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if r.Rows.Len() != want {
			t.Errorf("%s = %d rows, want %d", q, r.Rows.Len(), want)
		}
	}
}

func TestEngineViewOverViewRejected(t *testing.T) {
	e := newRetailEngine(t, "DEFERRED")
	_, err := e.Exec("CREATE MATERIALIZED VIEW vv AS SELECT * FROM hv")
	if err == nil || !strings.Contains(err.Error(), "base tables") {
		t.Fatalf("view over view accepted: %v", err)
	}
}

func TestEngineErrors(t *testing.T) {
	e := newRetailEngine(t, "DEFERRED")
	for _, bad := range []string{
		"SELECT * FROM nothere",
		"INSERT INTO nothere VALUES (1)",
		"INSERT INTO sales VALUES (1)",                      // arity
		"INSERT INTO sales VALUES ('x', 1, 1, 1.0)",         // type
		"INSERT INTO __mv_hv VALUES (1, 'x', 'High', 1, 1)", // internal
		"DELETE FROM __mv_hv",                               // internal
		"SELECT quantity + name FROM sales",                 // type error in projection? (non-colref)
		"SELECT * FROM sales WHERE name = 1 AND",            // parse error
		"REFRESH nothere",
		"PROPAGATE hv2",
		"DROP TABLE sales", // referenced by view
		"DROP TABLE __mv_hv",
		"CREATE TABLE sales (x INT)", // duplicate
	} {
		if _, err := e.Exec(bad); err == nil {
			t.Errorf("accepted %q", bad)
		}
	}
}

func TestEngineDropViewThenTable(t *testing.T) {
	e := newRetailEngine(t, "DEFERRED")
	if _, err := e.Exec("DROP VIEW hv"); err != nil {
		t.Fatal(err)
	}
	for _, name := range e.DB().Names() {
		if strings.HasPrefix(name, "__mv_") || strings.HasPrefix(name, "__log_") || strings.HasPrefix(name, "__dmv_") {
			t.Fatalf("aux table %s survived drop", name)
		}
	}
	// The name is free again: a redefinition gets fresh auxiliary tables.
	if _, err := e.ExecScript(`
		CREATE MATERIALIZED VIEW hv REFRESH DEFERRED AS SELECT s.custId FROM sales s;
		CHECK INVARIANT hv;
		DROP VIEW hv`); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Exec("DROP TABLE sales"); err != nil {
		t.Fatalf("drop after view removal should work: %v", err)
	}
}

// TestEngineFailedViewLeavesNoTables: a user table squats on the name
// of a view's △MV, so the CREATE fails after the view's other tables
// exist. None of them survives, and once the squatter is dropped the
// view can be defined: its internal tables, which SQL cannot drop, do
// not hold the name forever.
func TestEngineFailedViewLeavesNoTables(t *testing.T) {
	e := NewEngine()
	mustExec(t, e, "CREATE TABLE t (x INT); CREATE TABLE __dmv_add_v (x INT)")
	before := strings.Join(e.DB().Names(), ",")
	const create = "CREATE MATERIALIZED VIEW v REFRESH DEFERRED COMBINED AS SELECT x FROM t"
	if _, err := e.Exec(create); err == nil {
		t.Fatal("a view whose △MV name is taken was created")
	}
	if after := strings.Join(e.DB().Names(), ","); after != before {
		t.Fatalf("the failed view left tables behind: %s, before it %s", after, before)
	}
	mustExec(t, e, "DROP TABLE __dmv_add_v")
	mustExec(t, e, create+"; INSERT INTO t VALUES (1); PROPAGATE v; REFRESH v; CHECK INVARIANT v")
}

func TestEngineShow(t *testing.T) {
	e := newRetailEngine(t, "DEFERRED")
	r, err := e.Exec("SHOW TABLES")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(r.Message, "sales") || strings.Contains(r.Message, "__mv_hv") {
		t.Fatalf("SHOW TABLES = %q", r.Message)
	}
	r, _ = e.Exec("SHOW VIEWS")
	if !strings.Contains(r.Message, "hv (C)") {
		t.Fatalf("SHOW VIEWS = %q", r.Message)
	}
}

func TestEngineArithmeticInWhere(t *testing.T) {
	e := NewEngine()
	if _, err := e.ExecScript(`
		CREATE TABLE t (x INT, y FLOAT);
		INSERT INTO t VALUES (1, 2.0), (2, 8.0), (3, 3.0);
	`); err != nil {
		t.Fatal(err)
	}
	r, err := e.Exec("SELECT x FROM t WHERE y / 2 >= x")
	if err != nil {
		t.Fatal(err)
	}
	// (1,2.0): 1 >= 1 ✓; (2,8.0): 4 >= 2 ✓; (3,3.0): 1.5 >= 3 ✗
	if r.Rows.Len() != 2 {
		t.Fatalf("rows = %v", r.Rows)
	}
}

func TestEngineRecomputeStatement(t *testing.T) {
	e := newRetailEngine(t, "DEFERRED LOGGED")
	if _, err := e.Exec("INSERT INTO sales VALUES (1, 60, 2, 1.0)"); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Exec("RECOMPUTE hv"); err != nil {
		t.Fatal(err)
	}
	r, _ := e.Exec("SELECT * FROM hv WHERE itemNo = 60")
	if r.Rows.Len() != 1 {
		t.Fatal("recompute did not update the view")
	}
	if _, err := e.Exec("CHECK INVARIANT hv"); err != nil {
		t.Fatal(err)
	}
}

func TestResultString(t *testing.T) {
	e := NewEngine()
	if _, err := e.ExecScript("CREATE TABLE t (x INT, s STRING); INSERT INTO t VALUES (1, 'a')"); err != nil {
		t.Fatal(err)
	}
	r, err := e.Exec("SELECT * FROM t")
	if err != nil {
		t.Fatal(err)
	}
	out := r.String()
	if !strings.Contains(out, "t.x | t.s") || !strings.Contains(out, `1 | "a"`) || !strings.Contains(out, "(1 rows)") {
		t.Fatalf("Result.String = %q", out)
	}
	msg := &Result{Message: "done"}
	if msg.String() != "done" {
		t.Fatal("message result string wrong")
	}
}

func TestEngineInsertNullValidation(t *testing.T) {
	e := NewEngine()
	if _, err := e.ExecScript("CREATE TABLE t (x INT, s STRING)"); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Exec("INSERT INTO t VALUES (NULL, NULL)"); err != nil {
		t.Fatal(err)
	}
	r, _ := e.Exec("SELECT * FROM t")
	if r.Rows.Len() != 1 {
		t.Fatal("NULL row lost")
	}
	tu := r.Rows.Tuples()[0]
	if !tu[0].IsNull() {
		t.Fatal("NULL not preserved")
	}
	_ = schema.TNull
}

// TestReadsOnlyReadTables checks SELECT (joins, a view's MV, aggregates)
// evaluates one-shot and DELETE's matching set is a bound WHERE over the
// live table: a read may run under read locks, so it must not register
// an index on, or switch on the journal of, any table — only
// maintenance does.
func TestReadsOnlyReadTables(t *testing.T) {
	e := newRetailEngine(t, "DEFERRED COMBINED")
	indexed := func() int {
		n := 0
		for _, name := range e.DB().Names() {
			b, _ := e.DB().Bag(name)
			n += len(b.Indexes())
		}
		return n
	}
	for _, q := range []string{
		"SELECT c.name, s.itemNo FROM customer c, sales s WHERE c.custId = s.custId AND s.quantity != 0",
		"SELECT h.itemNo FROM hv h, sales s WHERE h.custId = s.custId",
		"SELECT custId, COUNT(*) FROM hv GROUP BY custId",
		"SELECT * FROM sales EXCEPT SELECT * FROM sales WHERE quantity = 0",
		"DELETE FROM sales WHERE custId = 2",
	} {
		if _, err := e.Exec(q); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if n := indexed(); n != 0 {
			t.Fatalf("%s left %d table indexes behind", q, n)
		}
	}
	r, err := e.Exec("SELECT itemNo FROM hv WHERE custId = 1")
	if err != nil || r.Rows.Len() != 1 {
		t.Fatalf("point select on hv = %v, %v", r, err)
	}
	// Maintenance is the single writer: it may.
	if _, err := e.Exec("INSERT INTO sales VALUES (3, 99, 7, 2.00)"); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Exec("REFRESH hv"); err != nil {
		t.Fatal(err)
	}
	if indexed() == 0 {
		t.Fatal("REFRESH joined the log against customer without the table's index")
	}
}

// TestInsertRowsAreTheStoredTuples: a parsed VALUES row is made at its
// width and the row list at its length (counted from the lexed tokens,
// which a ',' or '(' inside a string does not fool), and executing the
// statement stores each row as it is. So one parsed statement executed
// twice counts each row twice, keeps the view's invariant, and still
// prints as it was parsed.
func TestInsertRowsAreTheStoredTuples(t *testing.T) {
	e := NewEngine()
	mustExec(t, e, `
		CREATE TABLE one (a INT);
		CREATE TABLE five (a INT, b STRING, c FLOAT, d BOOL, e INT);
		CREATE MATERIALIZED VIEW fv REFRESH DEFERRED COMBINED AS
			SELECT f.a, f.b FROM five f WHERE f.d = TRUE`)
	for _, in := range []string{
		"INSERT INTO one VALUES (1)",
		"INSERT INTO one VALUES (2), (-3), (NULL)",
		"INSERT INTO five VALUES (1, 'x', 2.5, TRUE, NULL)",
		"INSERT INTO five VALUES (2, 'y, z', -0.5, FALSE, 3), (3, '(', 0.25, TRUE, -4), (4, ')', 1.0, TRUE, 5)",
	} {
		ins := mustParse(t, in).(*InsertStmt)
		exactRows(t, ins)
		for k := 0; k < 2; k++ {
			if _, err := e.ExecStmt(ins); err != nil {
				t.Fatalf("%s: %v", in, err)
			}
		}
		b, err := e.DB().Bag(ins.Table)
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range ins.Rows {
			if n := b.Count(r); n != 2 {
				t.Errorf("%s: row %d counted %d times after two executions, want 2", in, i+1, n)
			}
		}
		if got := SQL(ins); got != in {
			t.Errorf("executed statement prints as %q, was parsed from %q", got, in)
		}
	}
	// In a script the list ends at the statement's ';'.
	stmts, err := ParseScript("INSERT INTO one VALUES (5), (6); INSERT INTO five VALUES (7, '(', 1.5, TRUE, 8)")
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range stmts {
		exactRows(t, st.(*InsertStmt))
	}
	mustExec(t, e, "CHECK INVARIANT fv; PROPAGATE fv; REFRESH fv; CHECK INVARIANT fv")
	r, err := e.Exec("SELECT * FROM fv")
	if err != nil {
		t.Fatal(err)
	}
	if r.Rows.Len() != 6 { // rows 1, 3 and 4 of five, twice each
		t.Errorf("fv holds %d rows, want 6", r.Rows.Len())
	}
}

// exactRows fails t unless ins's row list and every row in it are made
// at their length.
func exactRows(t *testing.T, ins *InsertStmt) {
	t.Helper()
	if cap(ins.Rows) != len(ins.Rows) {
		t.Errorf("%s: row list len %d cap %d", SQL(ins), len(ins.Rows), cap(ins.Rows))
	}
	for i, r := range ins.Rows {
		if cap(r) != len(r) {
			t.Errorf("%s: row %d len %d cap %d", SQL(ins), i+1, len(r), cap(r))
		}
	}
}

// TestRecreatedTableResolvesItsNewColumns: a table dropped and created
// again with other columns — by SQL, or through the Database or the
// Manager behind the engine's back — is read with its new columns, and
// a dropped column no longer resolves.
func TestRecreatedTableResolvesItsNewColumns(t *testing.T) {
	cols := func(r *Result) string { return r.Schema.String() }
	t.Run("sql", func(t *testing.T) {
		e := NewEngine()
		mustExec(t, e, "CREATE TABLE t (a INT, b INT); INSERT INTO t VALUES (1, 2)")
		r := mustQuery(t, e, "SELECT * FROM t WHERE a = 1")
		if got := cols(r); got != "(t.a INT, t.b INT)" {
			t.Fatalf("columns %s", got)
		}
		mustExec(t, e, "DROP TABLE t; CREATE TABLE t (c STRING, a FLOAT, d INT); INSERT INTO t VALUES ('x', 1.5, 3)")
		r = mustQuery(t, e, "SELECT * FROM t WHERE a = 1.5")
		if got := cols(r); got != "(t.c STRING, t.a FLOAT, t.d INT)" || r.Rows.Len() != 1 {
			t.Fatalf("after the re-creation: columns %s, %d rows", got, r.Rows.Len())
		}
		if _, err := e.Exec("SELECT b FROM t"); err == nil {
			t.Fatal("the dropped column b still resolves")
		}
	})
	t.Run("database", func(t *testing.T) {
		e := NewEngine()
		mustExec(t, e, "CREATE TABLE t (a INT, b INT); INSERT INTO t VALUES (1, 2)")
		mustQuery(t, e, "SELECT x.a FROM t x")
		if err := e.DB().Drop("t"); err != nil {
			t.Fatal(err)
		}
		if _, err := e.DB().Create("t", schema.NewSchema(schema.Col("b", schema.TString)), storage.External); err != nil {
			t.Fatal(err)
		}
		if _, err := e.Exec("SELECT x.a FROM t x"); err == nil {
			t.Fatal("the dropped column a still resolves")
		}
		if got := cols(mustQuery(t, e, "SELECT * FROM t x")); got != "(x.b STRING)" {
			t.Fatalf("after the re-creation: columns %s", got)
		}
	})
	t.Run("view", func(t *testing.T) {
		e := newRetailEngine(t, "DEFERRED COMBINED")
		if r := mustQuery(t, e, "SELECT * FROM hv WHERE custId = 1"); r.Rows.Len() != 1 {
			t.Fatalf("hv for customer 1: %v", r.Rows)
		}
		if err := e.Manager().DropView("hv"); err != nil {
			t.Fatal(err)
		}
		def, err := CompileSelect(mustParse(t, "SELECT c.name, c.custId FROM customer c").(*SelectStmt), func(name string) (algebra.Expr, error) {
			tb, err := e.DB().Table(name)
			if err != nil {
				return nil, err
			}
			return algebra.NewBase(name, tb.Schema()), nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Manager().DefineView("hv", def, core.Combined); err != nil {
			t.Fatal(err)
		}
		r := mustQuery(t, e, "SELECT * FROM hv WHERE custId = 1")
		if got := cols(r); got != "(hv.name STRING, hv.custId INT)" || r.Rows.Len() != 1 {
			t.Fatalf("after the re-definition: columns %s, rows %v", got, r.Rows)
		}
		if _, err := e.Exec("SELECT itemNo FROM hv"); err == nil {
			t.Fatal("the old view's column itemNo still resolves")
		}
	})
}

func mustQuery(t *testing.T, e *Engine, q string) *Result {
	t.Helper()
	r, err := e.Exec(q)
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	return r
}
