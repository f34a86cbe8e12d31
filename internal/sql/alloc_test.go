package sql

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strings"
	"testing"

	"dvm/internal/bag"
	"dvm/internal/schema"
	"dvm/internal/storage"
	"dvm/internal/txn"
)

// The copies stay gone, without a stopwatch: the tests below measure
// bytes (runtime.MemStats.TotalAlloc), which repeat where times do not.

// allocBytes returns the bytes f allocates, read with the collector off
// (gcOff): a GC cycle that starts while f runs wakes a runtime goroutine
// that allocates, and MemStats would count it as f's.
func allocBytes(f func()) uint64 {
	gcOn := gcOff()
	defer gcOn()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	f()
	runtime.ReadMemStats(&m1)
	return m1.TotalAlloc - m0.TotalAlloc
}

// salesEngine returns an engine whose sales table holds rows rows spread
// over groups customers, maintained into the Combined view v (every row
// reaches it). The rows go in as one transaction, not as SQL text.
func salesEngine(t *testing.T, groups, rows int) *Engine {
	t.Helper()
	e := NewEngine()
	mustExec(t, e, `
		CREATE TABLE sales (custId INT, itemNo INT, quantity INT, salesPrice FLOAT);
		CREATE MATERIALIZED VIEW v REFRESH DEFERRED COMBINED AS
			SELECT s.custId, s.itemNo, s.quantity FROM sales s WHERE s.quantity != 0`)
	b := bag.New()
	for i := 0; i < rows; i++ {
		b.Add(schema.Row(i%groups, i, 1+i%7, 0.25*float64(i)), 1)
	}
	if err := e.Manager().Execute(txn.Insert("sales", b)); err != nil {
		t.Fatal(err)
	}
	mustExec(t, e, "REFRESH v")
	return e
}

func mustExec(t *testing.T, e *Engine, script string) {
	t.Helper()
	if _, err := e.ExecScript(script); err != nil {
		t.Fatalf("%s: %v", script, err)
	}
}

// TestAggregateAllocatesByGroupsNotRows: a GROUP BY over a view folds
// the live MV — the same 50 groups over ten times the rows allocate
// about the same (the group map, accumulator chunks of 32 groups, key
// arena chunks and one slab of output rows); a copy of MV, a projected
// tuple or a key string per row would be 10x.
func TestAggregateAllocatesByGroupsNotRows(t *testing.T) {
	st, err := Parse("SELECT custId, COUNT(*) AS n, SUM(quantity) AS q, MIN(itemNo), MAX(itemNo) FROM v GROUP BY custId")
	if err != nil {
		t.Fatal(err)
	}
	aggBytes := func(rows int) uint64 {
		e := salesEngine(t, 50, rows)
		var res *Result
		bytes := allocBytes(func() {
			if res, err = e.ExecStmt(st); err != nil {
				t.Fatal(err)
			}
		})
		if res.Rows.Len() != 50 {
			t.Fatalf("%d groups, want 50", res.Rows.Len())
		}
		return bytes
	}
	small, large := aggBytes(2000), aggBytes(20000)
	t.Logf("GROUP BY into 50 groups: %d B over 2000 rows, %d B over 20000", small, large)
	if large*2 > small*3 {
		t.Fatalf("GROUP BY into 50 groups allocates %d B over 2000 rows and %d B over 20000 (want < 1.5x): it grows with the rows", small, large)
	}
}

// TestAggregateAllocatesByChunks: the same rows folded into 500 groups
// cost no more objects than folded into 50, beyond the group map's
// growth (measured here on a map of the same shape), two chunks (the
// accumulators' and their states') per 32 groups, the key arena's one
// chunk and a few objects of the runtime's own (a map's growth varies
// with its hash seed): an accumulator, its states, its key and its
// output row do not cost an object each, which would be 1 800 more.
func TestAggregateAllocatesByChunks(t *testing.T) {
	const rows = 5000
	st, err := Parse("SELECT custId, COUNT(*) AS n, SUM(quantity) AS q, MIN(itemNo), MAX(itemNo) FROM v GROUP BY custId")
	if err != nil {
		t.Fatal(err)
	}
	fold := func(groups int) uint64 {
		e := salesEngine(t, groups, rows)
		var res *Result
		n := mallocs(func() {
			if res, err = e.ExecStmt(st); err != nil {
				t.Fatal(err)
			}
		})
		if res.Rows.Len() != groups {
			t.Fatalf("%d groups, want %d", res.Rows.Len(), groups)
		}
		return n
	}
	grow := func(groups int) uint64 {
		keys := make([]string, groups)
		for i := range keys {
			keys[i] = fmt.Sprint(i)
		}
		return mallocs(func() {
			m := map[string]*int{}
			for _, k := range keys {
				m[k] = nil
			}
		})
	}
	few, many := fold(50), fold(500)
	limit := few + grow(500) - grow(50) + 2*(500/accChunk+1) + 1 + 8
	t.Logf("%d rows into 50 groups: %d objects; into 500: %d (limit %d)", rows, few, many, limit)
	if many > limit {
		t.Errorf("%d rows into 500 groups cost %d objects, into 50 %d: want at most %d, not objects per group", rows, many, few, limit)
	}
}

// TestLexAllocatesTheTokenSlice: a statement of lower-case keywords,
// identifiers, numbers and symbols lexes in one allocation, its token
// slice: a keyword is recognized without upper-casing a copy, and a
// token's text is a slice of the input or the keyword table's string.
func TestLexAllocatesTheTokenSlice(t *testing.T) {
	const stmt = "select c.custId, count(*) as n from hv c where c.qty >= 3 and c.price <> 2.5 " +
		"group by c.custId order by n desc limit 10;"
	if got := testing.AllocsPerRun(100, func() {
		if _, err := lex(stmt); err != nil {
			t.Fatal(err)
		}
	}); got != 1 {
		t.Errorf("lex allocated %v times, want 1: the token slice", got)
	}
}

// TestInsertParsesByTheRow: an INSERT of k rows parses in k objects (a
// row each, made at its width, which the parser counts from the lexed
// tokens ahead) plus a constant — the row list is made at its length
// too, so nothing regrows — not in an object per value.
func TestInsertParsesByTheRow(t *testing.T) {
	parse := func(k int) uint64 {
		var sb strings.Builder
		sb.WriteString("INSERT INTO sales VALUES ")
		for i := 0; i < k; i++ {
			if i > 0 {
				sb.WriteString(", ")
			}
			fmt.Fprintf(&sb, "(%d, %d, %d, %d.25)", i%50, i, 1+i%7, i)
		}
		in := sb.String()
		best := ^uint64(0)
		for r := 0; r < 5; r++ { // the least of five: a stray runtime allocation is not the parse's
			best = min(best, mallocs(func() {
				if _, err := Parse(in); err != nil {
					t.Fatal(err)
				}
			}))
		}
		return best
	}
	few, many := parse(100), parse(1000)
	t.Logf("an INSERT of 100 rows parses in %d objects, of 1000 rows in %d", few, many)
	if limit := few + 900; many > limit {
		t.Errorf("an INSERT of 1000 rows parses in %d objects, of 100 rows in %d: want at most %d, a row each", many, few, limit)
	}
}

// TestDeleteAllocatesByTheMatch: a DELETE binds its WHERE against the
// table's schema and filters the live table; it compiles no plan, and
// what it makes does not grow with the table. Taking the same 3-row
// basket out of a 3,000-row and a 30,000-row sales costs, parse to
// result, at most
//
//	1  the token slice (lex)
//	9  the statement, parsed as the algebra it runs: the DeleteStmt; the
//	   And, boxed, and its slice; two boxed Cmps, Attrs and Consts
//	2  its binding: one closure over the conjunction's bound comparisons,
//	   and their slice
//	1  the delete bag (bag.Select): a small bag with room for the basket
//	2  the Result and its message
//
// = 15 objects; a warm Execute allocates nothing (TestExecuteAllocatesNothingWarm
// in internal/core). The table gains no index: DELETE only reads it.
func TestDeleteAllocatesByTheMatch(t *testing.T) {
	const (
		ins   = "INSERT INTO sales VALUES (7, 100001, 1, 9.99), (7, 100002, 1, 9.99), (7, 100003, 2, 9.99)"
		del   = "DELETE FROM sales WHERE custId = 7 AND salesPrice = 9.99"
		bound = 1 + 9 + 2 + 1 + 2
	)
	objects := func(rows int) uint64 {
		e := salesEngine(t, 500, rows)
		best := ^uint64(0)
		for k := 0; k < 5; k++ { // the least of five: a stray runtime allocation is not the statement's
			mustExec(t, e, ins)
			var r *Result
			n := mallocs(func() {
				var err error
				if r, err = e.Exec(del); err != nil {
					t.Fatal(err)
				}
			})
			if r.Count != 3 {
				t.Fatalf("DELETE took %d rows, want the basket's 3", r.Count)
			}
			best = min(best, n)
		}
		b, err := e.DB().Bag("sales")
		if err != nil {
			t.Fatal(err)
		}
		if ix := b.Indexes(); len(ix) != 0 {
			t.Errorf("DELETE left indexes %v on sales", ix)
		}
		if err := e.Manager().CheckInvariant("v"); err != nil {
			t.Fatal(err)
		}
		return best
	}
	small, large := objects(3000), objects(30000)
	t.Logf("a 3-row DELETE makes %d objects from 3,000 rows, %d from 30,000", small, large)
	if small > bound || large > bound {
		t.Errorf("a 3-row DELETE makes %d objects from 3,000 rows and %d from 30,000: want at most %d", small, large, bound)
	}
	if small != large {
		t.Errorf("a 3-row DELETE makes %d objects from 3,000 rows but %d from 30,000: it grows with the table", small, large)
	}
}

// TestSaveToStreamsTheLiveTables: SaveTo allocates less than one private
// copy of the tables it writes (the sorted key list Save iterates by is
// all that is table-sized), and nothing for the tables it leaves out — an
// engine with as many tuples again in MV and a log snapshots for the
// bytes of one that has neither. The yardstick is a forced copy: a Clone
// is copy-on-write and costs a pointer until someone writes.
func TestSaveToStreamsTheLiveTables(t *testing.T) {
	const rows = 20000
	saveBytes := func(e *Engine) uint64 {
		return allocBytes(func() {
			if err := e.SaveTo(io.Discard); err != nil {
				t.Fatal(err)
			}
		})
	}
	// MV holds the first batch; a second one sits in the log, unpropagated.
	full := salesEngine(t, 50, rows)
	extra := bag.New()
	for i := 0; i < rows; i++ {
		extra.Add(schema.Row(i%50, rows+i, 1, 0.5), 1)
	}
	if err := full.Manager().Execute(txn.Insert("sales", extra)); err != nil {
		t.Fatal(err)
	}
	internal := 0
	for _, name := range full.DB().Names() {
		if tb, _ := full.DB().Table(name); tb.Kind() == storage.Internal {
			internal += tb.Data().Distinct()
		}
	}
	if internal < 2*rows {
		t.Fatalf("internal tables hold %d tuples, want MV and a log of %d each", internal, rows)
	}
	// The same base table, and nothing else.
	bare := NewEngine()
	mustExec(t, bare, "CREATE TABLE sales (custId INT, itemNo INT, quantity INT, salesPrice FLOAT)")
	if err := bare.Manager().Execute(txn.Insert("sales", mustRows(t, full, "sales"))); err != nil {
		t.Fatal(err)
	}

	sales := mustRows(t, bare, "sales")
	private := allocBytes(func() { bag.UnionAll(sales, bag.New()) })
	lean, fat := saveBytes(bare), saveBytes(full)
	t.Logf("SaveTo of %d rows: %d B; with %d more tuples in MV and a log: %d B; one private copy of the table: %d B", 2*rows, lean, internal, fat, private)
	if lean >= private {
		t.Fatalf("SaveTo allocates %d B, a private copy of the table it writes %d B: it still copies", lean, private)
	}
	// The view's DDL is in the header; a KiB covers it.
	if fat > lean+lean/10+1024 {
		t.Fatalf("SaveTo allocates %d B with MV and a log filled, %d B without: it reads tables it does not write", fat, lean)
	}
}

// mustRows returns a copy of a table's contents (copy-on-write).
func mustRows(t *testing.T, e *Engine, table string) *bag.Bag {
	t.Helper()
	tb, err := e.DB().Table(table)
	if err != nil {
		t.Fatal(err)
	}
	return tb.Data().Clone()
}

// replayView is the view the restore tests replay: a projected join of
// every sales row with its customer.
const replayView = `CREATE MATERIALIZED VIEW hv REFRESH DEFERRED COMBINED AS
	SELECT c.custId, c.name, s.itemNo, s.quantity FROM customer c, sales s WHERE c.custId = s.custId`

// joinEngine returns an engine of custs customers and rows sales rows,
// one customer's rows per custs, written as transactions, and no view.
func joinEngine(t *testing.T, custs, rows int) *Engine {
	t.Helper()
	e := NewEngine()
	mustExec(t, e, `
		CREATE TABLE customer (custId INT, name STRING);
		CREATE TABLE sales (custId INT, itemNo INT, quantity INT, salesPrice FLOAT)`)
	c, s := bag.New(), bag.New()
	for i := 0; i < custs; i++ {
		c.Add(schema.Row(i, fmt.Sprintf("cust-%d", i)), 1)
	}
	for i := 0; i < rows; i++ {
		s.Add(schema.Row(i%custs, i, 1+i%7, 0.25*float64(i)), 1)
	}
	if err := e.Manager().Execute(txn.Insert("customer", c)); err != nil {
		t.Fatal(err)
	}
	if err := e.Manager().Execute(txn.Insert("sales", s)); err != nil {
		t.Fatal(err)
	}
	return e
}

// snapshotOf returns e's snapshot bytes.
func snapshotOf(t *testing.T, e *Engine) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := e.SaveTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// mallocs returns the objects f allocates, read with the collector off
// as allocBytes reads its bytes.
func mallocs(f func()) uint64 {
	gcOn := gcOff()
	defer gcOn()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	f()
	runtime.ReadMemStats(&m1)
	return m1.Mallocs - m0.Mallocs
}

// gcOff turns the collector off for a measuring window and returns what
// turns it back on, as internal/core's gcOff does: the runtime's
// goroutine that cleans the unique package's maps allocates two objects
// at the start of each GC cycle, and MemStats would count them as the
// window's. It then yields, a bounded number of times, until a cleanup
// the last cycle woke has run.
func gcOff() (on func()) {
	percent := debug.SetGCPercent(-1)
	var a, b runtime.MemStats
	for i := 0; i < 100; i++ {
		runtime.ReadMemStats(&a)
		runtime.Gosched()
		runtime.ReadMemStats(&b)
		if a.Mallocs == b.Mallocs {
			break
		}
	}
	return func() { debug.SetGCPercent(percent) }
}

// TestLoadReplayAllocatesBySlabs: LoadEngine rebuilds a view by
// replaying its DDL over the tables it has just restored, which Build
// made and nothing has written; the join carves the view's rows from
// slabs as Build carves the tables'. A view's replay (LoadEngine with the
// view, less LoadEngine of the same tables without it) is the DDL's
// parse and compile and the view's tables, about 540 objects whatever
// its size, plus its rows: a 20 000-row view costs that of a 2 000-row
// one plus no more than a hundredth of an object per row (about 0.001
// measured, go1.24, linux/amd64: its slabs; its table is made once, at
// its size, TestLoadReplayAllocatesTheViewTableOnce). The same
// CREATE on the live engine the snapshot was taken from, whose tables
// were written, keeps one allocation per row at least.
func TestLoadReplayAllocatesBySlabs(t *testing.T) {
	const custs, rows = 2_000, 20_000
	// replay returns what LoadEngine of a view of n rows costs beyond
	// that of its tables, and what its CREATE cost on the live engine.
	replay := func(n int) (restored, live uint64) {
		e := joinEngine(t, custs, n)
		bare := snapshotOf(t, e)
		live = mallocs(func() { mustExec(t, e, replayView) })
		withView := snapshotOf(t, e)
		var got *Engine
		load := func(snap []byte) uint64 {
			return mallocs(func() {
				var err error
				if got, err = LoadEngine(bytes.NewReader(snap)); err != nil {
					t.Fatal(err)
				}
			})
		}
		restored = load(withView)
		if r, err := got.Exec("SELECT * FROM hv"); err != nil || r.Rows.Len() != n {
			t.Fatalf("the restored view: %v, %v", r, err)
		}
		mustExec(t, got, "CHECK INVARIANT hv")
		return restored - load(bare), live
	}
	small, _ := replay(custs)
	large, live := replay(rows)
	t.Logf("LoadEngine replays a %d-row view for %d objects, a %d-row one for %d; a CREATE of the %d-row view on the live engine costs %d",
		custs, small, rows, large, rows, live)
	if limit := small + rows/100; large > limit {
		t.Errorf("replaying a %d-row view cost %d objects, want at most %d: its rows are not carved", rows, large, limit)
	}
	if live < rows {
		t.Errorf("CREATE of a %d-row view on a written engine cost %d objects, want one per row at least: a live view's rows are carved", rows, live)
	}
}

// keptBag keeps a measured bag from being optimized away.
var keptBag *bag.Bag

// restoredView returns what LoadEngine of e with the view of ddl
// allocates beyond LoadEngine of e's tables alone, in bytes, and the
// restored view's rows.
func restoredView(t *testing.T, e *Engine, ddl string) (replay uint64, rows *bag.Bag) {
	t.Helper()
	bare := snapshotOf(t, e)
	mustExec(t, e, ddl)
	withView := snapshotOf(t, e)
	var got *Engine
	load := func(snap []byte) uint64 {
		return allocBytes(func() {
			var err error
			if got, err = LoadEngine(bytes.NewReader(snap)); err != nil {
				t.Fatal(err)
			}
		})
	}
	replay = load(withView)
	r, err := got.Exec("SELECT * FROM hv")
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, got, "CHECK INVARIANT hv")
	return replay - load(bare), r.Rows
}

// TestLoadReplayAllocatesTheViewTableOnce: LoadEngine replays a view's
// join over Build's tables by counting the pairs that pass its filters
// first, then making the view's table once, with room for that count,
// where a join's output otherwise doubles from 8 entries to the first
// power of two above its rows. Over 2 000 customers, two replays of a
// projected join whose sales-side conjunct (quantity > 4) rejects 4 rows
// in 7: of 7 000 sales rows (3 000 view rows) and of 42 000 (18 000).
// Between the two, the replay's bytes grow by the view's rows — carved
// from slabs, 64 B a row — and by its table: what NewSized makes for
// the rows, and counts beside them (the Π drops a column, so a count
// can differ from 1), 28 B a row. A quarter more is allowed. Doubling
// (the rule before, about 1.15 MB here) or a count that lets every
// probe row through (about 0.98 MB) exceeds it.
func TestLoadReplayAllocatesTheViewTableOnce(t *testing.T) {
	const custs = 2_000
	const view = `CREATE MATERIALIZED VIEW hv REFRESH DEFERRED COMBINED AS
		SELECT c.custId, c.name, s.itemNo, s.quantity FROM customer c, sales s
		WHERE c.custId = s.custId AND s.quantity > 4`
	replay := func(sales int) (uint64, int) {
		b, rows := restoredView(t, joinEngine(t, custs, sales), view)
		if want := sales / 7 * 3; rows.Len() != want {
			t.Fatalf("the restored view of %d sales holds %d rows, want %d", sales, rows.Len(), want)
		}
		return b, rows.Len()
	}
	table := func(n int) uint64 {
		return allocBytes(func() { keptBag = bag.NewSized(n) }) + 8*uint64(n)
	}
	smallB, small := replay(7_000)
	largeB, large := replay(42_000)
	slabs := 4 * 16 * uint64(large-small)
	tables := table(large) - table(small)
	t.Logf("replaying a view of %d rows allocates %d B, of %d rows %d B: %d B more, of which %d B are its rows' slabs and %d B its table, made once",
		small, smallB, large, largeB, largeB-smallB, slabs, tables)
	if limit := slabs + tables*5/4; largeB-smallB > limit {
		t.Errorf("%d more view rows cost the replay %d B, want at most %d B: the view's table is not made once, for its rows",
			large-small, largeB-smallB, limit)
	}
}

// TestLoadReplayAllocatesNoMoreThanTheLargerTable: a replayed join whose
// Π merges its pairs into a few rows reserves room for no more rows
// than its larger operand holds, not one per pair. 1 000 customers over
// 10 regions, joined on region with 2 000 sales and then 4 000, and
// projected to the customer's score: 200 000 pairs and 400 000, 3 rows
// each time. Between the two replays only the room grows, from 2 000
// rows to 4 000 (NewSized's tables and their counts, 56 kB more); a
// table for every pair would grow by 5.6 MB. Twice the room is allowed.
// Each restored view answers what the live engine's does.
func TestLoadReplayAllocatesNoMoreThanTheLargerTable(t *testing.T) {
	const custs, regions = 1_000, 10
	replay := func(sales int) uint64 {
		e := NewEngine()
		mustExec(t, e, `
			CREATE TABLE customer (custId INT, region INT, score STRING);
			CREATE TABLE sales (itemNo INT, region INT, quantity INT)`)
		c, s := bag.New(), bag.New()
		for i := 0; i < custs; i++ {
			c.Add(schema.Row(i, i%regions, []string{"High", "Mid", "Low"}[i%3]), 1)
		}
		for i := 0; i < sales; i++ {
			s.Add(schema.Row(i, i%regions, 1+i%7), 1)
		}
		if err := e.Manager().Execute(txn.Insert("customer", c)); err != nil {
			t.Fatal(err)
		}
		if err := e.Manager().Execute(txn.Insert("sales", s)); err != nil {
			t.Fatal(err)
		}
		b, rows := restoredView(t, e, `CREATE MATERIALIZED VIEW hv REFRESH DEFERRED COMBINED AS
			SELECT c.score FROM customer c, sales s WHERE c.region = s.region`)
		live, err := e.Exec("SELECT * FROM hv")
		if err != nil {
			t.Fatal(err)
		}
		if !rows.Equal(live.Rows) || rows.Distinct() != 3 || rows.Len() != custs*sales/regions {
			t.Fatalf("of %d sales, the restored view holds %v, the live one %v", sales, rows, live.Rows)
		}
		return b
	}
	table := func(n int) uint64 {
		return allocBytes(func() { keptBag = bag.NewSized(n) }) + 8*uint64(n)
	}
	fewer, more := replay(2_000), replay(4_000)
	room := table(4_000) - table(2_000)
	t.Logf("replaying the view of 200 000 pairs allocates %d B, of 400 000 %d B; room for 2 000 rows more is %d B", fewer, more, room)
	if more > fewer+2*room {
		t.Errorf("200 000 pairs more cost the replay %d B, want at most %d B: it reserved more rows than the larger table holds", more-fewer, 2*room)
	}
}

// TestRestoredViewIsFreedWithItsTables: a restored view's rows live in
// slabs carved at the replay, as the restored tables' rows live in
// Build's. Once every base row is deleted, the view refreshed empty and
// the view and its tables dropped, nothing pins a slab: the live heap is
// back within 10 % of where it was before the load.
func TestRestoredViewIsFreedWithItsTables(t *testing.T) {
	const custs, rows = 2_000, 40_000
	e := joinEngine(t, custs, rows)
	mustExec(t, e, replayView)
	snap := snapshotOf(t, e)
	e = nil
	// The marked heap, not MemStats.HeapAlloc: runtime.GC stops waiting
	// for the sweep when another cycle starts, and HeapAlloc counts what
	// is dead but not yet swept.
	heap := func() uint64 {
		runtime.GC()
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		metrics.Read(s)
		return s[0].Value.Uint64()
	}
	before := heap()
	restored, err := LoadEngine(bytes.NewReader(snap))
	if err != nil {
		t.Fatal(err)
	}
	loaded := heap()
	mustExec(t, restored, `
		DELETE FROM sales;
		DELETE FROM customer;
		REFRESH hv;
		DROP VIEW hv;
		DROP TABLE sales;
		DROP TABLE customer`)
	after := heap()
	t.Logf("live heap: %d B before the load, %d B loaded, %d B after the drops", before, loaded, after)
	if loaded < before+rows*64 {
		t.Fatalf("the restored engine holds %d B, less than 64 B a row: the test measures nothing", loaded-before)
	}
	if after > before+before/10 {
		t.Errorf("%d B live after the drops, %d B before the load: the view's slabs outlive it", after, before)
	}
	runtime.KeepAlive(restored)
	runtime.KeepAlive(snap) // live in all three readings, or its death counts against the engine
}

// pointView is the benchmark's view: five columns of a join of
// customer and sales, filtered.
const pointView = `
	CREATE TABLE customer (custId INT, name STRING, address STRING, score STRING);
	CREATE TABLE sales (custId INT, itemNo INT, quantity INT, salesPrice FLOAT);
	CREATE MATERIALIZED VIEW hv REFRESH DEFERRED COMBINED AS
		SELECT c.custId, c.name, c.score, s.itemNo, s.quantity
		FROM customer c, sales s
		WHERE c.custId = s.custId AND s.quantity != 0 AND c.score = 'High'`

// TestPointSelectAllocatesByTheStatement: a point SELECT on a view
// reads MV in place (selectOne): its WHERE, parsed as the predicate σ
// runs, is bound against MV's schema qualified by the FROM item's alias
// and filters MV under MV's read lock, with no plan compiled, and σ's
// output starts as a small bag. Reading one customer's 2 rows out of a
// 4,000-row view costs, parse to result, at most
//
//	1  the token slice (lex)
//	6  the statement: the SelectStmt, the SimpleSelect, its FROM slice,
//	   and the boxed Cmp, Attr and Const of its WHERE
//	3  the FROM item: MV's schema qualified by its alias
//	   (Schema.Qualify: the columns, one string of their names, the
//	   Schema)
//	1  the WHERE bound (Cmp.Bind: one closure)
//	1  σ's output (bag.Select): a small bag
//	1  the Result
//
// = 13 objects, each term as MemStats.Mallocs counts it alone. MV's read
// lock (WithReadSpan) makes none: a one-table section neither copies nor
// sorts its table list, and an untraced one builds no span attributes.
// At the parent of this change the same statement made 45: the plan
// (algebra.Compile 13, BaseNames 1, the MV list 1 and the one-shot
// evaluation 3), σ's node (1), the lock's table list and attributes (2),
// and 11 of the FROM item's 14 (NewBase, the renaming Π over it, and
// Qualify's name per column and name index).
func TestPointSelectAllocatesByTheStatement(t *testing.T) {
	e := NewEngine()
	mustExec(t, e, pointView)
	c, s := bag.New(), bag.New()
	for i := 0; i < 2000; i++ {
		c.Add(schema.Row(i, fmt.Sprintf("cust-%d", i), "addr", "High"), 1)
		s.Add(schema.Row(i, i, 1, 0.5), 1)
		s.Add(schema.Row(i, 2000+i, 2, 0.5), 1)
	}
	if err := e.Manager().Execute(txn.Insert("customer", c)); err != nil {
		t.Fatal(err)
	}
	if err := e.Manager().Execute(txn.Insert("sales", s)); err != nil {
		t.Fatal(err)
	}
	mustExec(t, e, "REFRESH hv")
	const point = "SELECT * FROM hv WHERE custId = 7"
	const bound = 1 + 6 + 3 + 1 + 1 + 1
	mustExec(t, e, point) // warm: the first read of hv may grow what later ones reuse
	best := ^uint64(0)
	for k := 0; k < 5; k++ { // the least of five: a stray runtime allocation is not the statement's
		var r *Result
		n := mallocs(func() {
			var err error
			if r, err = e.Exec(point); err != nil {
				t.Fatal(err)
			}
		})
		if r.Rows.Len() != 2 {
			t.Fatalf("the point SELECT read %d rows, want the customer's 2", r.Rows.Len())
		}
		best = min(best, n)
	}
	t.Logf("a point SELECT on a view makes %d objects", best)
	if best > bound {
		t.Errorf("a point SELECT on a view makes %d objects, want at most %d", best, bound)
	}
}

// TestBaseSelectAllocatesByTheStatement: a point SELECT on an external
// table resolves its FROM item without first missing a view and reads the
// table in place, under no lock, so a table costs what a view's MV costs
// under its lock. Reading one
// customer's 2 rows out of the 4,000-row sales table costs, parse to
// result, at most
//
//	1  the token slice (lex)
//	6  the statement: the SelectStmt, the SimpleSelect, its FROM slice,
//	   and the boxed Cmp, Attr and Const of its WHERE
//	3  the FROM item: the table's schema qualified by its alias
//	   (Schema.Qualify)
//	1  the WHERE bound (Cmp.Bind: one closure)
//	1  σ's output (bag.Select): a small bag
//	1  the Result
//
// = 13 objects, TestPointSelectAllocatesByTheStatement's terms. At the
// parent of this change the same statement made 42: the plan (Compile
// 13, BaseNames 1, evaluation 3), σ's node (1) and 11 of the FROM item's
// 14.
func TestBaseSelectAllocatesByTheStatement(t *testing.T) {
	e := NewEngine()
	mustExec(t, e, pointView)
	s := bag.New()
	for i := 0; i < 2000; i++ {
		s.Add(schema.Row(i, i, 1, 0.5), 1)
		s.Add(schema.Row(i, 2000+i, 2, 0.5), 1)
	}
	if err := e.Manager().Execute(txn.Insert("sales", s)); err != nil {
		t.Fatal(err)
	}
	const point = "SELECT * FROM sales WHERE custId = 7"
	const bound = 1 + 6 + 3 + 1 + 1 + 1
	mustExec(t, e, point) // warm, as the view's point SELECT is
	best := ^uint64(0)
	for k := 0; k < 5; k++ {
		var r *Result
		n := mallocs(func() {
			var err error
			if r, err = e.Exec(point); err != nil {
				t.Fatal(err)
			}
		})
		if r.Rows.Len() != 2 {
			t.Fatalf("the point SELECT read %d rows, want the customer's 2", r.Rows.Len())
		}
		best = min(best, n)
	}
	t.Logf("a point SELECT on a table makes %d objects", best)
	if best > bound {
		t.Errorf("a point SELECT on a table makes %d objects, want at most %d", best, bound)
	}
}
