package core

import (
	"fmt"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"testing"

	"dvm/internal/bag"
	"dvm/internal/obs"
	"dvm/internal/obs/trace"
	"dvm/internal/schema"
	"dvm/internal/txn"
)

// Delta-proportional, without a stopwatch: the tests below measure
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
// tuple it folds into differential tables that already hold 20 000
// tuples. The Example 1.1 pair's terms are projected joins of the log
// against the base tables' own indexes, each into a bag the view's
// State keeps and refills: a 200-tuple log of rows the view lacks costs
// 80 B a tuple, its projected view row (and 32 B more when the row's
// key string was the output's map key) — a row the view already holds
// would cost none (TestDeletingPropagateMakesNoTuple). A join that grows
// a new output map from empty at every propagate costs about 210 B, and
// one that materializes the join's wide rows and then projects them
// 690–790.
const propagateBytesPerLogTuple = 160

// propagateBytesPerLogTupleEmpty is the same bound for differential
// tables that hold nothing yet, which grow their maps as they fill.
const propagateBytesPerLogTupleEmpty = 400

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
		if got := m.views["hv"].diffVolume(); got != backlog {
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
		for _, c := range []struct {
			backlog int
			bound   uint64
		}{
			{0, propagateBytesPerLogTupleEmpty},
			{20000, propagateBytesPerLogTuple},
		} {
			perTuple := foldBytes(t, c.backlog)
			t.Logf("Propagate of a 200-tuple log into %d-tuple differential tables: %d B per log tuple", c.backlog, perTuple)
			if perTuple > c.bound {
				t.Errorf("Propagate into %d-tuple differential tables allocates %d B per log tuple, want at most %d",
					c.backlog, perTuple, c.bound)
			}
		}
	})
}

// allocCount returns the heap objects f allocates, read with the
// collector off, as allocBytes reads its bytes.
func allocCount(f func()) uint64 {
	gcOn := gcOff()
	defer gcOn()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	f()
	runtime.ReadMemStats(&m1)
	return m1.Mallocs - m0.Mallocs
}

// TestDeletingPropagateMakesNoTuple: a warm Propagate whose log only
// deletes rows MV holds makes as many objects for a 200-tuple log as for
// a 20-tuple one. By Figure 1 every row of ▼(L,Q) is in MV or in △MV,
// and the join kernel stores the view's own tuple for a row the view
// holds (algebra.State's Hold) instead of making one per row; every
// tuple ∇MV then holds is, by pointer, MV's.
func TestDeletingPropagateMakesNoTuple(t *testing.T) {
	mallocs := func(t *testing.T, logged int) uint64 {
		db, def := retailDB(t)
		m := NewManager(db)
		v, err := m.DefineView("hv", def, Combined)
		if err != nil {
			t.Fatal(err)
		}
		must := func(err error) {
			t.Helper()
			if err != nil {
				t.Fatal(err)
			}
		}
		rows := highSales(0, logged)
		least, foreign := ^uint64(0), 0
		for round := 0; round < 5; round++ {
			must(m.Execute(txn.Insert("sales", rows)))
			must(m.Refresh("hv"))
			must(m.Execute(txn.Delete("sales", rows)))
			// The least of the rounds: what else the process allocates
			// meanwhile (the runtime's own work) only adds.
			least = min(least, allocCount(func() { must(m.Propagate("hv")) }))
			if got := v.diff.del.Len(); got != logged {
				t.Fatalf("∇MV holds %d tuples, want %d", got, logged)
			}
			mine := map[*schema.Value]bool{}
			v.mv.Data().Each(func(tu schema.Tuple, _ int) { mine[tu.Ptr()] = true })
			v.diff.del.Data().Each(func(tu schema.Tuple, _ int) {
				if !mine[tu.Ptr()] {
					foreign++
				}
			})
			must(m.Refresh("hv"))
		}
		if foreign > 0 {
			t.Errorf("%d-tuple log: %d tuples of ∇MV over 5 rounds are tuples of its own, not MV's", logged, foreign)
		}
		must(m.CheckConsistent("hv"))
		return least
	}
	few, many := mallocs(t, 20), mallocs(t, 200)
	t.Logf("a warm deleting Propagate makes %d objects for a 20-tuple log, %d for a 200-tuple one", few, many)
	if few != many {
		t.Errorf("a warm deleting Propagate makes %d objects for a 20-tuple log and %d for a 200-tuple one, want as many", few, many)
	}
}

// TestExecuteAllocatesNothingWarm: a warm transaction costs its rows and
// nothing else. The churn inserts and deletes the same two sales rows —
// the first a txn.Insert, whose ∇R is nil, the second a txn.Delete,
// whose △R is — and then the same for rows the view's filters drop, a
// zero-quantity sale and a Low customer, so every table returns to the
// same size and keeps its buckets. Normalizing, validating, filtering
// and extending every Combined view's logs, the base update, the
// makesafe region and its accounting then allocate nothing, with one
// view or sixteen: the manager normalizes into a transaction of its own,
// hands the caller's bags on uncopied, and refills its per-transaction
// scratch. The dropped rows never reach a log. Both windows run with the
// collector off (gcOff, which allocBytes calls itself): a GC cycle that
// starts in one wakes a runtime goroutine that allocates, and MemStats
// would count it as the churn's.
func TestExecuteAllocatesNothingWarm(t *testing.T) {
	perRun := map[int]uint64{}
	for _, views := range []int{1, 16} {
		db, def := retailDB(t)
		m := NewManager(db)
		for i := 0; i < views; i++ {
			if _, err := m.DefineView(fmt.Sprintf("hv%d", i), def, Combined); err != nil {
				t.Fatal(err)
			}
		}
		rows := highSales(0, 2)
		ins, del := txn.Insert("sales", rows), txn.Delete("sales", rows)
		zero, low := bag.Of(saleRow(0, 2000, 0)), bag.Of(schema.Row(11, "cust", "addr", "Low"))
		dropIns := txn.Txn{"sales": {Insert: zero}, "customer": {Insert: low}}
		dropDel := txn.Txn{"sales": {Delete: zero}, "customer": {Delete: low}}
		churn := func() {
			for _, tx := range []txn.Txn{ins, del, dropIns, dropDel} {
				if err := m.Execute(tx); err != nil {
					t.Fatal(err)
				}
			}
		}
		// A propagate gives sales its own index, and with it a journal the
		// churn goes through; the warm-up fills that journal's window more
		// than once.
		churn()
		if err := m.Propagate("hv0"); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 300; i++ {
			churn()
		}
		gcOn := gcOff()
		allocs := testing.AllocsPerRun(100, churn)
		gcOn()
		if allocs != 0 {
			t.Errorf("%d views: a warm churn allocates %v times, want 0", views, allocs)
			logAllocSites(t, 100, churn)
		}
		logged := func() (n int64) {
			for _, v := range m.Views() {
				n += stat(m, "log_append_tuples", v.Name)
			}
			return n
		}
		n0 := logged()
		if err := m.Execute(dropIns); err != nil {
			t.Fatal(err)
		}
		for _, v := range m.Views() {
			s, c := v.logs["sales"].add.Data(), v.logs["customer"].add.Data()
			if s.Contains(saleRow(0, 2000, 0)) || c.Contains(schema.Row(11, "cust", "addr", "Low")) || logged() != n0 {
				t.Fatalf("%d views: rows the filters drop reached %s's logs: ▲sales %v, ▲customer %v", views, v.Name, s, c)
			}
		}
		if err := m.Execute(dropDel); err != nil {
			t.Fatal(err)
		}
		const runs = 100
		perRun[views] = allocBytes(func() {
			for i := 0; i < runs; i++ {
				churn()
			}
		}) / runs
		if perRun[views] != 0 {
			logAllocSites(t, runs, churn)
		}
		for i := 0; i < views; i++ {
			if err := m.CheckInvariant(fmt.Sprintf("hv%d", i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	t.Logf("a warm churn: %d B with 1 view, %d B with 16", perRun[1], perRun[16])
	if perRun[1] != 0 || perRun[16] != 0 {
		t.Errorf("a warm churn allocates %d B with 1 view and %d B with 16, want 0 B with either", perRun[1], perRun[16])
	}
}

// gcOff turns the collector off for a window whose allocations MemStats
// reads, and returns what turns it back on. MemStats counts every
// goroutine's allocations, and the runtime's own goroutine that cleans
// the unique package's maps (unique.registerCleanup, woken at the start
// of each GC cycle) allocates two objects a cycle: a cycle that starts
// inside the window reads as the measured code's. SetGCPercent(-1) waits for a
// cycle under way to finish marking, and the loop then waits, a bounded
// number of yields, until a cleanup that cycle woke has run.
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

// logAllocSites re-runs f runs times with every allocation sampled
// (runtime.MemProfileRate = 1, and only while f runs) and logs the stacks
// that allocated in them, most objects first, so a zero-allocation bound
// that fails — once, under load, perhaps — names what allocated.
func logAllocSites(t *testing.T, runs int, f func()) {
	t.Helper()
	before := allocsByStack()
	rate := runtime.MemProfileRate
	runtime.MemProfileRate = 1
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.MemProfileRate = rate
	type site struct {
		stack   string
		objects int64
	}
	var sites []site
	for stack, n := range allocsByStack() {
		if d := n - before[stack]; d > 0 {
			sites = append(sites, site{stack, d})
		}
	}
	sort.Slice(sites, func(i, j int) bool { return sites[i].objects > sites[j].objects })
	if len(sites) == 0 {
		t.Logf("re-run %d times with every allocation sampled, f allocated nothing", runs)
	}
	for _, s := range sites[:min(len(sites), 8)] {
		t.Logf("re-run %d times, f allocated %d objects at %s", runs, s.objects, s.stack)
	}
}

// allocsByStack returns the objects allocated so far at each stack of
// the memory profile, keyed by the stack's first non-runtime frames. Two
// collections first publish every allocation made before the call.
func allocsByStack() map[string]int64 {
	runtime.GC()
	runtime.GC()
	var recs []runtime.MemProfileRecord
	n, ok := runtime.MemProfile(nil, true)
	for !ok {
		recs = make([]runtime.MemProfileRecord, n+64)
		n, ok = runtime.MemProfile(recs, true)
	}
	out := map[string]int64{}
	for _, r := range recs[:n] {
		var names []string
		frames := runtime.CallersFrames(r.Stack())
		for len(names) < 6 {
			fr, more := frames.Next()
			if !strings.HasPrefix(fr.Function, "runtime.") {
				names = append(names, fmt.Sprintf("%s (%s:%d)", fr.Function, filepath.Base(fr.File), fr.Line))
			}
			if !more {
				break
			}
		}
		if len(names) == 0 {
			names = append(names, "the runtime")
		}
		out[strings.Join(names, " < ")] += r.AllocObjects
	}
	return out
}

// TestStepAllocatesNothing: the instrumentation seam costs a step no
// allocation when tracing is off — not a view's step in any phase, nor a
// transaction's, nor an MV-exclusive section — so it does not inflate
// the bytes phase_alloc_bytes measures.
func TestStepAllocatesNothing(t *testing.T) {
	db, def := retailDB(t)
	m := NewManager(db)
	v, err := m.DefineView("hv", def, Combined)
	if err != nil {
		t.Fatal(err)
	}
	// An exclusive section opens only under MV's write lock, so the
	// cases run inside one.
	_ = m.locks.WithWriteSpan([]string{v.mv.Name()}, nil, func(h txn.Held) error {
		cases := map[string]func(){
			"a transaction's step": func() { m.begin(nil, obs.PhaseMakesafe).end() },
			"an exclusive section": func() { exclusive(h, v).end() },
		}
		for _, p := range obs.Phases()[1:] {
			cases[p+" step"] = func() { m.begin(v, p, trace.Str("scenario", v.inv)).end() }
		}
		for name, f := range cases {
			if n := testing.AllocsPerRun(100, f); n != 0 {
				t.Errorf("%s: %v allocations, want 0", name, n)
			}
		}
		return nil
	})
}

// TestExecuteWarmWithoutLogs pins what TestExecuteAllocatesNothingWarm's
// churn costs a view without logs, which evaluates its pre-update pair
// at every transaction that touches its tables: an Immediate view
// installs the pair into MV under MV's write lock, a DiffTables view
// into ∇MV/△MV. What a warm churn allocates is the pair's own — the
// Clones txSource binds ∇R and △R to, and the evaluation's intermediate
// tuples — and the counts below are what it measured once a join read
// the transaction's ∇R/△R without indexing them
// (TestDeltasAreNeverIndexed) and stored each row the view holds as MV's
// own tuple (algebra.State's Hold); they may fall, not rise. The race
// detector weighs some of the objects differently, so under -race only
// their number is held.
func TestExecuteWarmWithoutLogs(t *testing.T) {
	for _, c := range []struct {
		sc     Scenario
		allocs float64
		bytes  uint64
	}{
		{Immediate, 46, 3264},
		{DiffTables, 34, 3040},
	} {
		db, def := retailDB(t)
		m := NewManager(db)
		if _, err := m.DefineView("hv", def, c.sc); err != nil {
			t.Fatal(err)
		}
		rows := highSales(0, 2)
		zero, low := bag.Of(saleRow(0, 2000, 0)), bag.Of(schema.Row(11, "cust", "addr", "Low"))
		txs := []txn.Txn{
			txn.Insert("sales", rows), txn.Delete("sales", rows),
			{"sales": {Insert: zero}, "customer": {Insert: low}},
			{"sales": {Delete: zero}, "customer": {Delete: low}},
		}
		churn := func() {
			for _, tx := range txs {
				if err := m.Execute(tx); err != nil {
					t.Fatal(err)
				}
			}
		}
		for i := 0; i < 300; i++ {
			churn()
		}
		allocs := testing.AllocsPerRun(100, churn)
		// The least of three measurements: what else the process
		// allocates meanwhile (the runtime's own work) only adds.
		const runs = 100
		bytes := ^uint64(0)
		for range 3 {
			bytes = min(bytes, allocBytes(func() {
				for i := 0; i < runs; i++ {
					churn()
				}
			})/runs)
		}
		t.Logf("%v: a warm churn allocates %v times, %d B", c.sc, allocs, bytes)
		if allocs > c.allocs {
			t.Errorf("%v: a warm churn allocates %v times, want at most %v", c.sc, allocs, c.allocs)
		}
		if bytes > c.bytes && !raceDetector {
			t.Errorf("%v: a warm churn allocates %d B, want at most %d B", c.sc, bytes, c.bytes)
		}
		if err := m.CheckInvariant("hv"); err != nil {
			t.Fatal(err)
		}
	}
}

// TestDeltasAreNeverIndexed: a join reads a change table — a log's
// ▼R/▲R, or a transaction's ∇R/△R — as it is, however large it is next
// to the other side, and only the base tables keep an index, on the
// column the view joins them on. An index on a change table would be
// synced at every append to it for one probe. The transactions touch
// both tables with deletions and insertions, so the pairs' ▼c × ▼s,
// ▲c × ▲s, ∇c × ∇s and △c × △s terms all run.
func TestDeltasAreNeverIndexed(t *testing.T) {
	high := func(id int) *bag.Bag { return bag.Of(schema.Row(id, "cust", "addr", "High")) }
	txs := []txn.Txn{
		{"sales": {Insert: highSales(0, 3)}, "customer": {Insert: high(20)}},
		// retailDB's sale (2, 2, 2, 2.0) and its High customer 2 go.
		{"sales": {Delete: bag.Of(schema.Row(2, 2, 2, 2.0)), Insert: highSales(3, 2)}, "customer": {Delete: high(2), Insert: high(21)}},
	}
	check := func(m *Manager, what string) {
		t.Helper()
		for _, name := range m.DB().Names() {
			b, _ := m.DB().Bag(name)
			got := b.Indexes()
			switch name {
			case "sales", "customer":
				if len(got) != 1 || len(got[0]) != 1 || got[0][0] != 0 {
					t.Errorf("%s: %s owns indexes on %v, want exactly one, on custId", what, name, got)
				}
			default:
				if len(got) != 0 {
					t.Errorf("%s: %s owns indexes on %v, want none", what, name, got)
				}
			}
		}
	}

	db, def := retailDB(t)
	m := NewManager(db)
	v, err := m.DefineView("hv", def, Combined)
	if err != nil {
		t.Fatal(err)
	}
	for _, tx := range txs {
		if err := m.Execute(tx); err != nil {
			t.Fatal(err)
		}
	}
	for _, b := range v.bases {
		if v.logs[b].del.Len() == 0 || v.logs[b].add.Len() == 0 {
			t.Fatalf("fixture: %s's log holds %d deletions and %d insertions, want both", b, v.logs[b].del.Len(), v.logs[b].add.Len())
		}
	}
	if err := m.Propagate("hv"); err != nil {
		t.Fatal(err)
	}
	check(m, "Combined")
	if err := m.CheckInvariant("hv"); err != nil {
		t.Fatal(err)
	}

	// A pre-update pair reads the transaction's own bags, which txSource
	// binds only inside Execute: evaluate it as Execute does, over one
	// that binds the second transaction's, and then run that transaction.
	for _, sc := range []Scenario{Immediate, DiffTables} {
		db, def := retailDB(t)
		m := NewManager(db)
		v, err := m.DefineView("hv", def, sc)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Execute(txs[0]); err != nil {
			t.Fatal(err)
		}
		nt, err := txs[1].Normalize(db)
		if err != nil {
			t.Fatal(err)
		}
		src := &txSource{db: db, nt: nt, v: v, bound: map[txParam]*bag.Bag{}, empty: bag.New()}
		src.bind([]*View{v})
		if _, _, err := m.evalDeltaPair(sitePair, v, src, nil); err != nil {
			t.Fatal(err)
		}
		for p, b := range src.bound {
			if b.Empty() {
				t.Fatalf("fixture: %v is empty", p)
			}
			if got := b.Indexes(); len(got) != 0 {
				t.Errorf("%v: %v owns indexes on %v, want none", sc, p, got)
			}
		}
		if err := m.Execute(txs[1]); err != nil {
			t.Fatal(err)
		}
		check(m, sc.String())
		if err := m.CheckInvariant("hv"); err != nil {
			t.Fatal(err)
		}
	}
}

// TestExecuteDeletingTheLiveTable: a transaction whose ∇R is sales' own
// live bag deletes every sales row, and one whose △R is doubles them.
// Execute hands a ∇R or △R over uncopied, except where the base update
// would then write the bag it reads.
func TestExecuteDeletingTheLiveTable(t *testing.T) {
	for _, c := range []struct {
		name string
		tx   func(sales *bag.Bag) txn.Txn
		rows func(before int) int
	}{
		{"∇R", func(s *bag.Bag) txn.Txn { return txn.Delete("sales", s) }, func(int) int { return 0 }},
		{"△R", func(s *bag.Bag) txn.Txn { return txn.Insert("sales", s) }, func(n int) int { return 2 * n }},
	} {
		db, def := retailDB(t)
		m := NewManager(db)
		for _, sc := range []Scenario{Combined, Immediate, DiffTables, BaseLogs} {
			if _, err := m.DefineView("v"+sc.String(), def, sc); err != nil {
				t.Fatal(err)
			}
		}
		sales, _ := db.Table("sales")
		before := sales.Len()
		if err := m.Execute(c.tx(sales.Data())); err != nil {
			t.Fatal(err)
		}
		if n := sales.Len(); n != c.rows(before) {
			t.Fatalf("%s is sales' own bag: sales holds %d rows, want %d", c.name, n, c.rows(before))
		}
		for _, v := range m.Views() {
			if err := m.CheckInvariant(v.Name); err != nil {
				t.Fatalf("%s is sales' own bag: %s: %v", c.name, v.Name, err)
			}
			if err := m.Refresh(v.Name); err != nil {
				t.Fatal(err)
			}
			if err := m.CheckConsistent(v.Name); err != nil {
				t.Fatalf("%s is sales' own bag: %s after refresh: %v", c.name, v.Name, err)
			}
		}
	}
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
				m.appendToLogs(v, nt)
			}
		})
		if got := v.logVolume(); got != 600 {
			t.Fatalf("round %d: log holds %d tuples, want 600", round, got)
		}
		m.clearLogs(v, 600)
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
