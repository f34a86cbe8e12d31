package core

import (
	"runtime"
	"testing"

	"dvm/internal/bag"
	"dvm/internal/schema"
	"dvm/internal/txn"
)

// Delta-proportional, without a stopwatch: the tests below measure
// bytes (runtime.MemStats.TotalAlloc), which repeat where times do not.

// allocBytes returns the bytes f allocates.
func allocBytes(f func()) uint64 {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	f()
	runtime.ReadMemStats(&m1)
	return m1.TotalAlloc - m0.TotalAlloc
}

// highSales returns n sales rows that all reach the Example 1.1 view
// (High customers, non-zero quantity), distinct per (from+i).
func highSales(from, n int) *bag.Bag {
	b := bag.New()
	for i := from; i < from+n; i++ {
		b.Add(saleRow(2*(i%5), 1000+i, 1), 1)
	}
	return b
}

// propagateBytesPerLogTuple bounds what a Propagate may allocate per log
// tuple it folds. The Example 1.1 pair's terms are projected joins of
// the log against the base tables' own indexes: a 200-tuple log costs
// about 210–300 B a tuple — its projected view row and key, and △MV's
// map regrowing when churn leaves it too few free slots. A pair that
// materializes the join's wide rows and then projects them costs 690–790.
const propagateBytesPerLogTuple = 400

// TestPropagateAllocatesByLogNotByDifferential: a Propagate of a fixed
// 200-tuple log allocates a bounded number of bytes per log tuple,
// whether ∇MV/△MV hold nothing or 20 000 tuples — the fold updates the
// differential tables, it does not rebuild them (a copy of a 20 000-tuple
// table would be 3 KB per log tuple). Rounds alternate inserting and
// deleting the same 200 rows, so what is measured is the fold of a log
// of the same size into differential tables that already hold room for
// it.
func TestPropagateAllocatesByLogNotByDifferential(t *testing.T) {
	foldBytes := func(t *testing.T, backlog int) uint64 {
		db, def := retailDB(t)
		m := NewManager(db)
		if _, err := m.DefineView("hv", def, Combined); err != nil {
			t.Fatal(err)
		}
		must := func(err error) {
			t.Helper()
			if err != nil {
				t.Fatal(err)
			}
		}
		if backlog > 0 {
			must(m.Execute(txn.Insert("sales", highSales(0, backlog))))
			must(m.Propagate("hv"))
		}
		if got := m.diffVolume(m.views["hv"]); got != backlog {
			t.Fatalf("differential tables hold %d tuples, want %d", got, backlog)
		}
		const logged = 200
		batch := highSales(backlog, logged)
		var bytes uint64
		for round := 0; round < 3; round++ {
			must(m.Execute(txn.Insert("sales", batch)))
			bytes = allocBytes(func() { must(m.Propagate("hv")) })
			must(m.Execute(txn.Delete("sales", batch)))
			must(m.Propagate("hv"))
		}
		must(m.CheckInvariant("hv"))
		return bytes / logged
	}
	// The case keeps its shards=1 name: the one layout there is.
	t.Run("shards=1", func(t *testing.T) {
		for _, backlog := range []int{0, 20000} {
			perTuple := foldBytes(t, backlog)
			t.Logf("Propagate of a 200-tuple log into %d-tuple differential tables: %d B per log tuple", backlog, perTuple)
			if perTuple > propagateBytesPerLogTuple {
				t.Errorf("Propagate into %d-tuple differential tables allocates %d B per log tuple, want at most %d",
					backlog, perTuple, propagateBytesPerLogTuple)
			}
		}
	})
}

// TestLogAppendsRefillKeptBuckets: a log that is filled and emptied in
// rounds keeps its buckets once two fills of the same size have shown
// they will be reused (the first Clear has no such evidence and starts
// over with a fresh map, see bag.Bag.Clear) — from the third round on
// the appends allocate a fraction of what the first round's did.
func TestLogAppendsRefillKeptBuckets(t *testing.T) {
	db, def := retailDB(t)
	m := NewManager(db)
	v, err := m.DefineView("hv", def, Combined)
	if err != nil {
		t.Fatal(err)
	}
	// 30 transactions of 20 inserts: 600 log tuples a round, like a
	// multiview_writes tick. The appends are measured on their own;
	// Normalize, validation and the base update are not log upkeep.
	txs := make([]txn.Txn, 30)
	for i := range txs {
		txs[i] = txn.Txn{"sales": {Delete: bag.New(), Insert: highSales(20*i, 20)}}
	}
	var first uint64
	for round := 1; round <= 5; round++ {
		bytes := allocBytes(func() {
			for _, nt := range txs {
				if err := m.appendToLogs(v, nt); err != nil {
					t.Fatal(err)
				}
			}
		})
		if got := m.logVolume(v); got != 600 {
			t.Fatalf("round %d: log holds %d tuples, want 600", round, got)
		}
		if err := m.clearLogs(v); err != nil {
			t.Fatal(err)
		}
		t.Logf("round %d: 600 log tuples appended with %d B", round, bytes)
		switch {
		case round == 1:
			first = bytes
		case round >= 3 && bytes > first/4:
			t.Fatalf("round %d: appends allocate %d B, the first round's %d B (want at most a quarter)", round, bytes, first)
		}
	}
}

// TestBulkLoadIsNotRetained: a manager whose auxiliary tables once held
// a 100 000-tuple transaction ends up, ten ordinary rounds later, with
// the heap of a manager that was handed the same rows before its view
// existed. An unbounded keep-the-buckets Clear would show here as ~6 MB
// per log or differential table.
func TestBulkLoadIsNotRetained(t *testing.T) {
	if testing.Short() {
		t.Skip("builds two 100k-row databases")
	}
	const bulk = 100000
	// The heap a manager adds, from an empty collector to the end of its
	// ten rounds.
	live := func(throughEngine bool) uint64 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		db, def := retailDB(t)
		must := func(err error) {
			t.Helper()
			if err != nil {
				t.Fatal(err)
			}
		}
		if !throughEngine {
			sales, _ := db.Table("sales")
			highSales(0, bulk).Each(func(tu schema.Tuple, n int) { must(sales.Insert(tu, n)) })
		}
		m := NewManager(db)
		_, err := m.DefineView("hv", def, Combined)
		must(err)
		if throughEngine {
			must(m.Execute(txn.Insert("sales", highSales(0, bulk))))
			must(m.Propagate("hv"))
			must(m.PartialRefresh("hv"))
		}
		for round := 0; round < 10; round++ {
			batch := highSales(bulk+600*round, 600)
			must(m.Execute(txn.Insert("sales", batch)))
			must(m.Propagate("hv"))
			must(m.PartialRefresh("hv"))
			must(m.Execute(txn.Delete("sales", batch)))
			must(m.Propagate("hv"))
			must(m.PartialRefresh("hv"))
		}
		must(m.CheckConsistent("hv"))
		runtime.GC()
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(m)
		return after.HeapAlloc - before.HeapAlloc
	}
	never, once := live(false), live(true)
	const slack = 1 << 20
	t.Logf("live heap: %d KiB after the bulk transaction, %d KiB without it", once>>10, never>>10)
	if once > never+slack {
		t.Fatalf("after a %d-tuple transaction and ten 600-tuple rounds the manager holds %d KiB, one that never saw the bulk load %d KiB",
			bulk, once>>10, never>>10)
	}
}
