package sql

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"dvm/internal/storage"
)

// Borrowing changed who copies, not what is answered: the tests below
// pin the answers of the reads that stopped copying.

// measureEngine returns an engine over one table of 400 rows in 8 groups,
// inserted in the order perm gives: x is a float with no exact binary
// sum, q an integer, and every 11th x is NULL.
func measureEngine(t *testing.T, perm []int) *Engine {
	t.Helper()
	e := NewEngine()
	mustExec(t, e, "CREATE TABLE m (g INT, x FLOAT, q INT)")
	for _, i := range perm {
		x := fmt.Sprintf("%d.%03d", i%13, (i*37)%1000)
		if i%11 == 0 {
			x = "NULL"
		}
		mustExec(t, e, fmt.Sprintf("INSERT INTO m VALUES (%d, %s, %d)", i%8, x, i*i))
	}
	return e
}

// TestExactAggregatesAgreeAcrossFolds: COUNT, MIN, MAX and an integer
// SUM are folded in whatever order the bag iterates; the same query with
// an AVG beside them takes the ordered fold. Group by group the exact
// columns must agree.
func TestExactAggregatesAgreeAcrossFolds(t *testing.T) {
	e := measureEngine(t, rand.New(rand.NewSource(7)).Perm(400))
	const exact = "g, COUNT(*), COUNT(x), SUM(q), MIN(x), MAX(x), MIN(q), MAX(q)"
	unordered, err := e.Exec("SELECT " + exact + " FROM m GROUP BY g ORDER BY g")
	if err != nil {
		t.Fatal(err)
	}
	ordered, err := e.Exec("SELECT " + exact + ", AVG(x) FROM m GROUP BY g ORDER BY g")
	if err != nil {
		t.Fatal(err)
	}
	if len(unordered.Ordered) != 8 || len(ordered.Ordered) != 8 {
		t.Fatalf("%d and %d groups, want 8", len(unordered.Ordered), len(ordered.Ordered))
	}
	for i, u := range unordered.Ordered {
		if o := ordered.Ordered[i][:len(u)]; !u.Equal(o) {
			t.Errorf("group %d: unordered fold %v, ordered fold %v", i, u, o)
		}
	}
}

// TestFloatAggregatesAreBitIdentical: float SUM and AVG round, so their
// fold stays in canonical order — twenty engines filled in twenty
// different insertion orders (and as many map iteration orders) answer
// with the same bits.
func TestFloatAggregatesAreBitIdentical(t *testing.T) {
	const q = "SELECT g, SUM(x), AVG(x), AVG(q) FROM m GROUP BY g ORDER BY g"
	var want []uint64
	for rep := 0; rep < 20; rep++ {
		e := measureEngine(t, rand.New(rand.NewSource(int64(rep))).Perm(400))
		r, err := e.Exec(q)
		if err != nil {
			t.Fatal(err)
		}
		var got []uint64
		for _, tu := range r.Ordered {
			for _, v := range tu[1:] {
				got = append(got, math.Float64bits(v.AsFloat()))
			}
		}
		if rep == 0 {
			want = got
			continue
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("repetition %d: float aggregates differ in their bits:\n got %x\nwant %x", rep, got, want)
		}
	}
	if len(want) != 8*3 {
		t.Fatalf("%d float aggregates compared, want 24", len(want))
	}
}

// TestSelectResultIsOwned: SELECT * FROM v evaluates to MV itself, which
// a plain SELECT must copy before it hands it out — the caller's rows do
// not move when the view is refreshed under them.
func TestSelectResultIsOwned(t *testing.T) {
	e := newRetailEngine(t, "DEFERRED COMBINED")
	r, err := e.Exec("SELECT * FROM hv")
	if err != nil {
		t.Fatal(err)
	}
	before := r.Rows.Clone()
	mustExec(t, e, `
		INSERT INTO sales VALUES (3, 77, 5, 2.00);
		DELETE FROM sales WHERE itemNo = 10;
		REFRESH hv`)
	if !r.Rows.Equal(before) {
		t.Fatalf("a SELECT's rows changed under a later REFRESH:\n%v\nwas\n%v", r.Rows, before)
	}
	after, err := e.Exec("SELECT * FROM hv")
	if err != nil {
		t.Fatal(err)
	}
	if after.Rows.Equal(before) {
		t.Fatal("fixture: the REFRESH changed nothing")
	}
}

// TestAggregateResultIsOwned: an aggregate's rows are carved from its
// own slab and its group keys from its own arena, which nothing reuses:
// a second aggregate and a REFRESH that changes the view leave the
// first one's Result.Rows as they were.
func TestAggregateResultIsOwned(t *testing.T) {
	e := newRetailEngine(t, "DEFERRED COMBINED")
	mustExec(t, e, "REFRESH hv")
	const q = "SELECT custId, COUNT(*) AS n, SUM(quantity) AS q, MIN(itemNo) FROM hv GROUP BY custId"
	r, err := e.Exec(q)
	if err != nil {
		t.Fatal(err)
	}
	before, text := r.Rows.Clone(), r.Rows.String()
	if _, err := e.Exec("SELECT itemNo, COUNT(*), MAX(quantity) FROM hv GROUP BY itemNo"); err != nil {
		t.Fatal(err)
	}
	mustExec(t, e, `
		INSERT INTO sales VALUES (3, 77, 5, 2.00), (1, 78, 9, 1.00);
		DELETE FROM sales WHERE itemNo = 10;
		REFRESH hv`)
	if !r.Rows.Equal(before) || r.Rows.String() != text {
		t.Fatalf("an aggregate's rows changed under a later query and REFRESH:\n%v\nwas\n%s", r.Rows, text)
	}
	after, err := e.Exec(q)
	if err != nil {
		t.Fatal(err)
	}
	if after.Rows.Equal(before) {
		t.Fatal("fixture: the REFRESH changed no group")
	}
}

// saveToByCopy is SaveTo as it was before it streamed the live tables:
// the same header, then Save of a database that holds a copy (a Clone)
// of the external tables and nothing else. Kept as the reference for the
// bytes.
func saveToByCopy(e *Engine, w *bytes.Buffer) error {
	bw := bufio.NewWriter(w)
	bw.Write(engineMagic[:])
	views := e.mgr.Views()
	var buf [4]byte
	binary.LittleEndian.PutUint32(buf[:], uint32(len(views)))
	bw.Write(buf[:])
	for _, v := range views {
		stmt := SQL(e.viewDDL[v.Name])
		binary.LittleEndian.PutUint32(buf[:], uint32(len(stmt)))
		bw.Write(buf[:])
		bw.WriteString(stmt)
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	ext := storage.NewDatabase()
	for _, name := range e.db.Names() {
		tb, err := e.db.Table(name)
		if err != nil {
			return err
		}
		if tb.Kind() != storage.External {
			continue
		}
		c, err := ext.Create(name, tb.Schema(), storage.External)
		if err != nil {
			return err
		}
		c.Replace(tb.Data().Clone())
	}
	return ext.Save(w)
}

// TestSaveToBytesUnchanged: streaming the live tables writes what
// copying them first wrote — on an engine with a stale view with
// non-empty logs and differentials, and an empty table.
func TestSaveToBytesUnchanged(t *testing.T) {
	e := NewEngine()
	mustExec(t, e, `
		CREATE TABLE customer (custId INT, name STRING, address STRING, score STRING);
		CREATE TABLE sales (custId INT, itemNo INT, quantity INT, salesPrice FLOAT);
		CREATE TABLE untouched (a INT, b STRING);
		INSERT INTO customer VALUES (1, 'ann', 'a st', 'High'), (2, 'bob', 'b st', 'Low'), (3, 'cat', 'c st', 'High');
		INSERT INTO sales VALUES (1, 10, 2, 9.99), (1, 11, 0, 5.00), (2, 10, 1, 9.99), (3, 12, 4, 1.50);
		CREATE MATERIALIZED VIEW hv REFRESH DEFERRED COMBINED AS
			SELECT c.custId, c.name, s.itemNo, s.quantity FROM customer c, sales s
			WHERE c.custId = s.custId AND s.quantity != 0 AND c.score = 'High';
		CREATE MATERIALIZED VIEW bl REFRESH DEFERRED LOGGED AS
			SELECT s.custId, s.itemNo FROM sales s WHERE s.quantity != 0;
		INSERT INTO sales VALUES (3, 13, 1, 0.75), (1, 10, 2, 9.99);
		DELETE FROM sales WHERE itemNo = 12;
		PROPAGATE hv`)
	pending := 0
	for _, name := range e.DB().Names() {
		if tb, _ := e.DB().Table(name); tb.Kind() == storage.Internal && !strings.HasPrefix(name, "__mv_") {
			pending += tb.Len()
		}
	}
	if pending == 0 {
		t.Fatal("fixture: every log and differential table is empty")
	}

	var got, want bytes.Buffer
	if err := e.SaveTo(&got); err != nil {
		t.Fatal(err)
	}
	if err := saveToByCopy(e, &want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("SaveTo wrote %d bytes, the copying implementation %d, and they differ", got.Len(), want.Len())
	}
	if !bytes.Contains(got.Bytes(), []byte("DVM1")) {
		t.Fatal("an engine snapshot must carry a DVM1 table block")
	}
	restored, err := LoadEngine(&got)
	if err != nil {
		t.Fatal(err)
	}
	if tb, err := restored.DB().Table("untouched"); err != nil || tb.Len() != 0 {
		t.Fatalf("the empty table did not survive the round trip: %v", err)
	}
	for _, v := range []string{"hv", "bl"} {
		mustExec(t, restored, "CHECK INVARIANT "+v)
	}
}
