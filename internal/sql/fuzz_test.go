package sql

import (
	"strings"
	"testing"
)

// FuzzParse guards the parser against panics: any input must either
// parse or return an error, never crash. The seed corpus covers every
// statement kind plus known-tricky shapes.
func FuzzParse(f *testing.F) {
	seeds := []string{
		"",
		";",
		"SELECT * FROM t",
		"SELECT DISTINCT a.x AS y FROM t a, u b WHERE a.x = b.y AND NOT (b.y < 3 OR TRUE)",
		"SELECT * FROM a UNION ALL SELECT * FROM b EXCEPT SELECT * FROM c MONUS SELECT * FROM d",
		"SELECT x FROM t ORDER BY x DESC LIMIT 3",
		"SELECT cust, COUNT(*), SUM(amount) FROM o GROUP BY cust",
		"SELECT MIN(x), MAX(x) FROM t",
		"CREATE TABLE t (a INT, b STRING, c FLOAT, d BOOL)",
		"CREATE MATERIALIZED VIEW v REFRESH DEFERRED COMBINED MIN AS SELECT * FROM t",
		"INSERT INTO t VALUES (1, 'it''s', -2.5, TRUE, NULL)",
		"DELETE FROM t WHERE (x + 1) * 2 >= y / 3",
		"REFRESH VIEW v", "PROPAGATE v", "PARTIAL REFRESH v",
		"RECOMPUTE v", "CHECK INVARIANT v", "SHOW TABLES", "SHOW VIEWS",
		"DROP TABLE t", "DROP VIEW v",
		"EXPLAIN VIEW v", "EXPLAIN SELECT * FROM t",
		"SELECT 'unterminated",
		"SELECT (((((x FROM t",
		"INSERT INTO t VALUES (((",
		"-- just a comment",
		"SELECT * FROM t WHERE x = 9999999999999999999999999",
		"SELECT \x00 FROM t",
		"CREATE MATERIALIZED VIEW ü REFRESH DEFERRED AS SELECT * FROM t",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		// Both single-statement and script parsing must be total.
		st, err := Parse(input)
		if err == nil && st != nil {
			// Printing a parsed statement must also be total, and its
			// output must re-parse (printer fixed-point property).
			printed := SQL(st)
			if _, err := Parse(printed); err != nil {
				// Statements containing aggregate expressions in odd
				// positions may normalize; only structural statements
				// must round-trip. Re-parse failures on printable output
				// are still bugs.
				t.Fatalf("printed form does not re-parse: %q -> %q: %v", input, printed, err)
			}
		}
		_, _ = ParseScript(input)
	})
}

// FuzzEngineExec runs fuzzed scripts against a live engine with a
// SQL-defined COMBINED view: no input may panic or corrupt the
// maintenance invariants.
func FuzzEngineExec(f *testing.F) {
	seeds := []string{
		"INSERT INTO sales VALUES (1, 2, 3, 4.0)",
		"DELETE FROM sales WHERE custId = 1",
		"SELECT * FROM hv",
		"REFRESH hv",
		"PROPAGATE hv",
		"DROP VIEW hv",
		"INSERT INTO sales VALUES ('wrong', 'types', 1, 2)",
		"SELECT SUM(quantity) FROM sales s GROUP BY itemNo",
		"INSERT INTO sales VALUES (1, 2, 3, 4.0), (2, 2, 0, 1.5); PROPAGATE hv; DELETE FROM sales WHERE itemNo = 1; " +
			"DELETE FROM customer WHERE custId = 1; PROPAGATE hv; SELECT itemNo FROM hv WHERE custId = 1; REFRESH hv",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		e := NewEngine()
		setup := `
			CREATE TABLE customer (custId INT, name STRING, address STRING, score STRING);
			CREATE TABLE sales (custId INT, itemNo INT, quantity INT, salesPrice FLOAT);
			INSERT INTO customer VALUES (1, 'a', 'x', 'High');
			INSERT INTO sales VALUES (1, 1, 1, 1.0);
			CREATE MATERIALIZED VIEW hv REFRESH DEFERRED COMBINED AS
				SELECT c.custId, s.itemNo FROM customer c, sales s
				WHERE c.custId = s.custId;
		`
		if _, err := e.ExecScript(setup); err != nil {
			t.Fatal(err)
		}
		_, _ = e.ExecScript(input) // a script, so writes and maintenance can interleave; errors fine, panics are not
		// Whatever happened, the view invariant must survive (unless the
		// statement legitimately dropped the view).
		if _, err := e.Manager().View("hv"); err == nil {
			if err := e.Manager().CheckInvariant("hv"); err != nil {
				t.Fatalf("statement %q broke INV_C: %v", input, err)
			}
		}
		if strings.Contains(input, "\x00") {
			return // nothing more to assert for binary junk
		}
	})
}
