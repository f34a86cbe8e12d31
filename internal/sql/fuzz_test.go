package sql

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"io"
	"strconv"
	"strings"
	"testing"

	"dvm/internal/schema"
	"dvm/internal/storage"
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
		"select g, h, count(*), Sum(x), aVg(x), min(q), max(h) from t where q <> 2 group by g, h",
		"insert into t values (1, 'a', null, true), (2, 'b', 2.5, false)",
		"Create Materialized View v Refresh Deferred Combined As select * from t",
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
		"insert into sales values (1, 2, 3, 4.0), (1, 3, 0, 2.5), (2, 2, 5, 1.25); " +
			"select custId, count(*), sum(quantity), avg(salesPrice), min(itemNo), max(salesPrice) from sales group by custId",
		"propagate hv; refresh hv; select itemNo, count(*) from hv group by custId, itemNo; delete from sales where quantity >= 1",

		"INSERT INTO sales VALUES (1, 2, 3, 4.0), (2, 2, 0, 1.5); PROPAGATE hv; DELETE FROM sales WHERE itemNo = 1; " +
			"DELETE FROM customer WHERE custId = 1; PROPAGATE hv; SELECT itemNo FROM hv WHERE custId = 1; REFRESH hv",
		// DELETE binds its WHERE against the table: OR, NOT, arithmetic, NULL.
		"INSERT INTO sales VALUES (1, 2, 3, NULL), (2, 2, 0, 1.5); DELETE FROM sales WHERE itemNo = 2 OR NOT custId < 2; REFRESH hv",
		"INSERT INTO sales VALUES (1, 4, 2, 3.0); DELETE FROM sales WHERE quantity * 3 - 1 > salesPrice + 1.5; PROPAGATE hv",
		"INSERT INTO sales VALUES (1, 5, NULL, NULL); DELETE FROM sales WHERE salesPrice = NULL AND NOT (quantity != NULL OR FALSE)",
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

// decodeBound is what decoding len bytes of snapshot may allocate: the
// map bag.Build pre-sizes from a table's row count (capped at a few MiB,
// whatever the count says) and the readers' buffers, plus a small
// multiple of the bytes — a row's values and key are about 20 times its
// encoding when every value is a one-byte NULL.
func decodeBound(n int) uint64 { return 4<<20 + 32*uint64(n) }

// FuzzSnapshotLoad feeds hostile snapshot bytes to the two loaders:
// storage.Load (DVM1) and LoadEngine (DVME). Whatever the bytes say,
// decoding them returns a database or an error — never a panic, never
// more than decodeBound allocated (every count in a header is untrusted:
// it is bounded before it sizes anything, and what it sizes grows with
// the bytes that arrive) — and what loads is a fixpoint of the round
// trip: saved, loaded again and saved again, the bytes do not change.
// Seeds are Save/SaveTo outputs and truncations of them, plus a DVM2
// stream (the retired sharded format), which must not load.
func FuzzSnapshotLoad(f *testing.F) {
	// DVM1: plain tables, one of them empty, every value type.
	plain := storage.NewDatabase()
	tb, err := plain.Create("t", schema.NewSchema(schema.Col("i", schema.TInt), schema.Col("f", schema.TFloat),
		schema.Col("s", schema.TString), schema.Col("b", schema.TBool)), storage.External)
	if err != nil {
		f.Fatal(err)
	}
	tb.Data().Add(schema.Row(1, 2.5, "it's", true), 2).Add(schema.Row(nil, 7, "", false), 1)
	if _, err := plain.Create("empty", schema.NewSchema(schema.Col("a", schema.TInt)), storage.Internal); err != nil {
		f.Fatal(err)
	}
	// DVME: tables, a stale Combined view and a strongly minimal one.
	e := NewEngine()
	if _, err := e.ExecScript(`
		CREATE TABLE customer (custId INT, name STRING, score STRING);
		CREATE TABLE sales (custId INT, itemNo INT, quantity INT, salesPrice FLOAT);
		INSERT INTO customer VALUES (1, 'ann', 'High'), (2, 'bob', 'Low');
		INSERT INTO sales VALUES (1, 10, 2, 9.99), (2, 10, 1, 9.99);
		CREATE MATERIALIZED VIEW hv REFRESH DEFERRED COMBINED AS
			SELECT c.custId, s.itemNo FROM customer c, sales s WHERE c.custId = s.custId AND c.score = 'High';
		CREATE MATERIALIZED VIEW d REFRESH DEFERRED COMBINED MIN AS
			SELECT s.custId FROM sales s MONUS SELECT c.custId FROM customer c;
		INSERT INTO sales VALUES (1, 11, 1, 0.5)`); err != nil {
		f.Fatal(err)
	}
	var dvm1, dvme bytes.Buffer
	if err := plain.Save(&dvm1); err != nil {
		f.Fatal(err)
	}
	if err := e.SaveTo(&dvme); err != nil {
		f.Fatal(err)
	}
	// DVM2 as the retired writer framed it: one shard-group spec
	// (logical "__log", 2 shards, key column 0 stored as 1) before
	// plain's DVM1 table block.
	dvm2 := []byte("DVM2\x01\x00\x00\x00\x05\x00\x00\x00__log\x02\x00\x00\x00\x01\x00\x00\x00")
	dvm2 = append(dvm2, dvm1.Bytes()[4:]...)
	for _, raw := range [][]byte{dvm1.Bytes(), dvm2, dvme.Bytes()} {
		f.Add(raw)
		for _, n := range []int{len(raw) - 1, len(raw) / 2, 9, 4} {
			f.Add(raw[:n])
		}
	}
	// DVM1: one table whose rows span three of bag.Build's slabs (8, 16
	// and 1 rows of 128 values), with keys past the 128-byte scratch. Its values are mostly one-byte NULLs and its
	// columns unnamed, and it is one seed, untruncated: the fuzzer
	// minimizes every input that finds new code, at a cost that grows
	// with the input's length.
	slabs := storage.NewDatabase()
	cols := make([]schema.Column, 128)
	for k := range cols {
		cols[k].Type = schema.TInt
	}
	wide, err := slabs.Create("w", schema.NewSchema(cols...), storage.External)
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 25; i++ {
		row := make(schema.Tuple, 128)
		row[0] = schema.Int(int64(i))
		wide.Data().Add(row, 1+i%2)
	}
	var spans bytes.Buffer
	if err := slabs.Save(&spans); err != nil {
		f.Fatal(err)
	}
	if _, err := storage.Load(bytes.NewReader(spans.Bytes())); err != nil {
		f.Fatalf("the slab-spanning seed does not load: %v", err)
	}
	f.Add(spans.Bytes())
	// DVM1: more distinct one- and two-byte strings than the loader
	// interns at a time, so its intern table starts over and its chunk
	// takes every one; and the same table under a forged row count, whose
	// stream ends after the rows it has.
	names := storage.NewDatabase()
	words, err := names.Create("s", schema.NewSchema(schema.Col("", schema.TString)), storage.External)
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		words.Data().Add(schema.Row(strconv.FormatInt(int64(i), 36)), 1)
	}
	var strs bytes.Buffer
	if err := names.Save(&strs); err != nil {
		f.Fatal(err)
	}
	f.Add(strs.Bytes())
	// magic, table count, name "s", kind, column count, one unnamed column: the row count follows.
	const rowCount = 4 + 4 + 4 + 1 + 1 + 4 + 4 + 1
	forged := bytes.Clone(strs.Bytes())
	if n := binary.LittleEndian.Uint32(forged[rowCount:]); n != 300 {
		f.Fatalf("the row count at byte %d reads %d, want 300", rowCount, n)
	}
	binary.LittleEndian.PutUint32(forged[rowCount:], 0xFFFFFFFF)
	if _, err := storage.Load(bytes.NewReader(forged)); err == nil {
		f.Fatal("the forged row count loaded")
	}
	f.Add(forged)

	f.Fuzz(func(t *testing.T, data []byte) {
		engine := bytes.HasPrefix(data, engineMagic[:])
		// Decoding alone, under the allocation bound: replaying a DVME
		// header's DDL may legitimately materialize more than that.
		alloc := allocBytes(func() {
			br := bufio.NewReader(bytes.NewReader(data))
			if engine {
				if _, err := readEngineHeader(br); err != nil {
					return
				}
			}
			_, _ = storage.Load(br)
		})
		if alloc > decodeBound(len(data)) {
			t.Fatalf("decoding %d bytes of snapshot allocated %d bytes, more than %d", len(data), alloc, decodeBound(len(data)))
		}
		// load returns the bytes the loaded state saves as; ok is false
		// when the input does not load.
		load := func(in []byte) (out []byte, ok bool) {
			var buf bytes.Buffer
			var save func(io.Writer) error
			if engine {
				e, err := LoadEngine(bytes.NewReader(in))
				if err != nil {
					return nil, false
				}
				save = e.SaveTo
			} else {
				db, err := storage.Load(bytes.NewReader(in))
				if err != nil {
					return nil, false
				}
				save = db.Save
			}
			if err := save(&buf); err != nil {
				t.Fatalf("what loaded does not save: %v", err)
			}
			return buf.Bytes(), true
		}
		once, ok := load(data)
		if ok && bytes.HasPrefix(data, []byte("DVM2")) {
			t.Fatal("a DVM2 snapshot loaded; only DVM1 is supported")
		}
		if !ok {
			return
		}
		twice, ok := load(once)
		if !ok {
			t.Fatalf("the saved form of a loaded snapshot does not load:\n%q", once)
		}
		if !bytes.Equal(once, twice) {
			t.Fatalf("save∘load is not a fixpoint:\n%q\nthen\n%q", once, twice)
		}
	})
}
