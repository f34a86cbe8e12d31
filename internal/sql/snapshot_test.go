package sql

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

func TestSQLPrinterRoundTrip(t *testing.T) {
	stmts := []string{
		"CREATE TABLE t (a INT, b STRING, c FLOAT, d BOOL)",
		"CREATE MATERIALIZED VIEW v REFRESH DEFERRED COMBINED AS SELECT a.x, b.y AS z FROM t1 a, t2 b WHERE (a.x = b.y AND a.x > 3)",
		"CREATE MATERIALIZED VIEW v REFRESH IMMEDIATE AS SELECT * FROM t",
		"CREATE MATERIALIZED VIEW v REFRESH DEFERRED LOGGED AS SELECT DISTINCT x FROM t",
		"CREATE MATERIALIZED VIEW v REFRESH DEFERRED COMBINED MIN AS SELECT * FROM t MONUS SELECT * FROM u",
		"SELECT * FROM a UNION ALL SELECT * FROM b EXCEPT SELECT * FROM c",
		"INSERT INTO t VALUES (1, 'it''s', 2.5, TRUE), (-3, NULL, -0.5, FALSE)",
		"DELETE FROM t WHERE ((x + 1) * 2) >= y",
		"DELETE FROM t",
		"REFRESH v",
		"PROPAGATE v",
		"PARTIAL REFRESH v",
		"RECOMPUTE v",
		"CHECK INVARIANT v",
		"SHOW TABLES",
		"SHOW VIEWS",
		"DROP TABLE t",
		"DROP VIEW v",
	}
	for _, src := range stmts {
		first, err := Parse(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		printed := SQL(first)
		second, err := Parse(printed)
		if err != nil {
			t.Fatalf("re-parse of %q -> %q: %v", src, printed, err)
		}
		// The printer normalizes parentheses; compare the third
		// generation against the second for a fixed point.
		if again := SQL(second); again != printed {
			t.Fatalf("printer not a fixed point:\n1st: %s\n2nd: %s", printed, again)
		}
		// ASTs may differ in redundant grouping; the fixed-point check
		// above is the real guarantee. The top-level shape may not.
		if reflect.TypeOf(first) != reflect.TypeOf(second) {
			t.Fatalf("round trip changed statement kind for %q", src)
		}
	}
}

func TestEngineSnapshotRoundTrip(t *testing.T) {
	e := newRetailEngine(t, "DEFERRED COMBINED")
	if _, err := e.Exec("INSERT INTO sales VALUES (3, 99, 7, 2.00)"); err != nil {
		t.Fatal(err)
	}
	// Also a second view with strong minimality.
	if _, err := e.Exec(`CREATE MATERIALIZED VIEW diff REFRESH DEFERRED COMBINED MIN AS
		SELECT s.custId, s.itemNo FROM sales s MONUS SELECT c.custId, c.custId FROM customer c`); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := e.SaveTo(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := LoadEngine(&buf)
	if err != nil {
		t.Fatal(err)
	}

	// Base data survived.
	r1, _ := e.Exec("SELECT * FROM sales")
	r2, err := restored.Exec("SELECT * FROM sales")
	if err != nil {
		t.Fatal(err)
	}
	if !r1.Rows.Equal(r2.Rows) {
		t.Fatalf("sales mismatch after restore:\n%v\nvs\n%v", r1.Rows, r2.Rows)
	}

	// Views exist, are consistent (re-materialized), and keep their
	// scenarios.
	show, _ := restored.Exec("SHOW VIEWS")
	if !strings.Contains(show.Message, "hv (C)") || !strings.Contains(show.Message, "diff (C)") {
		t.Fatalf("views missing after restore: %q", show.Message)
	}
	for _, v := range []string{"hv", "diff"} {
		if _, err := restored.Exec("CHECK INVARIANT " + v); err != nil {
			t.Fatal(err)
		}
	}
	// The restored hv reflects the pre-snapshot insert (re-materialized).
	r, _ := restored.Exec("SELECT * FROM hv WHERE itemNo = 99")
	if r.Rows.Len() != 1 {
		t.Fatalf("restored view missing data: %v", r.Rows)
	}
	// And maintenance continues to work.
	if _, err := restored.Exec("INSERT INTO sales VALUES (1, 55, 1, 1.0)"); err != nil {
		t.Fatal(err)
	}
	if _, err := restored.Exec("REFRESH hv"); err != nil {
		t.Fatal(err)
	}
	r, _ = restored.Exec("SELECT * FROM hv WHERE itemNo = 55")
	if r.Rows.Len() != 1 {
		t.Fatal("restored engine cannot maintain views")
	}
}

func TestEngineSnapshotExcludesInternalTables(t *testing.T) {
	e := newRetailEngine(t, "DEFERRED LOGGED")
	var buf bytes.Buffer
	if err := e.SaveTo(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := LoadEngine(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// The MV table exists (recreated by DDL replay) but came from the
	// replay, not the snapshot: exactly one per view.
	names := restored.DB().Names()
	mvs := 0
	for _, n := range names {
		if strings.HasPrefix(n, "__mv_") {
			mvs++
		}
	}
	if mvs != 1 {
		t.Fatalf("expected exactly 1 MV table, got %d in %v", mvs, names)
	}
}

func TestLoadEngineErrors(t *testing.T) {
	cases := map[string][]byte{
		"empty":     {},
		"bad magic": []byte("XXXX\x00\x00\x00\x00"),
		"truncated": []byte("DVME\x02\x00\x00\x00"),
	}
	for name, data := range cases {
		if _, err := LoadEngine(bytes.NewReader(data)); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	// DDL that no longer parses (corrupted) must fail on replay.
	bad := append([]byte("DVME"), 1, 0, 0, 0, 3, 0, 0, 0)
	bad = append(bad, []byte("???")...)
	if _, err := LoadEngine(bytes.NewReader(bad)); err == nil {
		t.Error("garbage DDL accepted")
	}
	// A DDL length under the 16 MiB cap that the 12-byte stream does not
	// back costs what arrived, not the length it claims.
	forged := append([]byte("DVME"), 1, 0, 0, 0, 0, 0, 0, 1)
	var err error
	if alloc := allocBytes(func() { _, err = LoadEngine(bytes.NewReader(forged)) }); err == nil || alloc > 4<<20 {
		t.Errorf("a forged 16 MiB DDL length: %v after %d bytes allocated", err, alloc)
	}
}

func TestSaveRejectsNonSQLViews(t *testing.T) {
	// A view defined directly through the manager has no DDL to persist.
	e := newRetailEngine(t, "DEFERRED")
	v, err := e.Manager().View("hv")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Manager().DefineView("raw", v.Def, 1); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := e.SaveTo(&buf); err == nil || !strings.Contains(err.Error(), "not created through SQL") {
		t.Fatalf("expected a not-created-through-SQL error, got %v", err)
	}
}
