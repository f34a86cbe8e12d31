package dvm_test

// The paper's qualitative claims (EXPERIMENTS.md E1–E14) as assertions
// on counts the engine already keeps: compiled pair evaluations (the
// compiled_eval_ns counts), the tuples a view's joins probed and built
// (index_probe_tuples, index_build_tuples), log and differential sizes, lock holds, and shared-log
// volume. Each claim runs on a fixed seed, asserts the claim's relation
// rather than a figure, and logs the counts. E1 and E2 run the paper's
// worked examples through every scenario; their equations, E6 and E12
// are internal/delta's statebug_test.go and selfmaint_test.go, and
// E14's copy count is internal/core's
// TestFreshReadsCopyOnlyTheDifferential.

import (
	"fmt"
	"testing"

	"dvm/internal/algebra"
	"dvm/internal/bag"
	"dvm/internal/core"
	"dvm/internal/schema"
	"dvm/internal/storage"
	"dvm/internal/txn"
	"dvm/internal/workload"
)

// claimRetail is the retail workload the claims run on: 300 customers
// (a fifth of them High), 1,500 sales over 200 items.
func claimRetail(t *testing.T, seed int64, zipf float64) (*storage.Database, *workload.Retail) {
	t.Helper()
	db := storage.NewDatabase()
	w := workload.NewRetail(workload.RetailConfig{
		Customers: 300, HighFraction: 0.2, InitialSales: 1500, Items: 200, ZipfS: zipf, Seed: seed,
	})
	if err := w.Setup(db); err != nil {
		t.Fatal(err)
	}
	return db, w
}

// claimViews builds a manager with n views v0…v(n-1) under one
// scenario, each the Example 1.1 join filtered to its own slice of the
// item range.
func claimViews(t *testing.T, n int, sc core.Scenario, seed int64, opts ...core.ManagerOption) (*core.Manager, *workload.Retail) {
	t.Helper()
	return claimViewsOver(t, n, sc, seed, itemRange, opts...)
}

// itemRange is view i's share of the item numbers among n views.
func itemRange(i, n int) algebra.Predicate {
	return algebra.AndOf(
		algebra.Cmp{Op: algebra.GE, L: algebra.A("s.itemNo"), R: algebra.C(i * 200 / n)},
		algebra.Lt(algebra.A("s.itemNo"), algebra.C((i+1)*200/n)),
	)
}

// claimViewsOver is claimViews with view i's extra conjunct extra(i, n).
func claimViewsOver(t *testing.T, n int, sc core.Scenario, seed int64, extra func(i, n int) algebra.Predicate, opts ...core.ManagerOption) (*core.Manager, *workload.Retail) {
	t.Helper()
	db, w := claimRetail(t, seed, 1.2)
	m := core.NewManager(db, opts...)
	for i := 0; i < n; i++ {
		def, err := w.FilteredViewDef(extra(i, n))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.DefineView(fmt.Sprintf("v%d", i), def, sc); err != nil {
			t.Fatal(err)
		}
	}
	return m, w
}

// family sums a metric family over its labels: a counter's or gauge's
// value, a histogram's observation count.
func family(m *core.Manager, name string) int64 {
	var n int64
	for _, x := range m.Obs().Snapshot().Family(name) {
		n += x.Value + x.Count
	}
	return n
}

// stat reads one view's metric: a counter's or gauge's value, a
// histogram's observation count.
func stat(m *core.Manager, name, view string) int64 {
	x, _ := m.Obs().Snapshot().Get(name, view)
	return x.Value + x.Count
}

// cost is what one call made the engine do: compiled pair evaluations
// (over every view), and the tuples the view's joins probed and built.
type cost struct{ evals, probed, built int64 }

func (c cost) work() int64 { return c.probed + c.built }

// costOf runs f and returns the cost it caused.
func costOf(t *testing.T, m *core.Manager, view string, f func() error) cost {
	t.Helper()
	if _, err := m.View(view); err != nil {
		t.Fatal(err)
	}
	c0 := cost{family(m, "compiled_eval_ns"), stat(m, "index_probe_tuples", view), stat(m, "index_build_tuples", view)}
	if err := f(); err != nil {
		t.Fatal(err)
	}
	return cost{family(m, "compiled_eval_ns") - c0.evals, stat(m, "index_probe_tuples", view) - c0.probed, stat(m, "index_build_tuples", view) - c0.built}
}

// execute runs n transactions drawn from next.
func execute(m *core.Manager, n int, next func() txn.Txn) func() error {
	return func() error {
		for i := 0; i < n; i++ {
			if err := m.Execute(next()); err != nil {
				return err
			}
		}
		return nil
	}
}

var scenarios = []core.Scenario{core.Immediate, core.DiffTables, core.BaseLogs, core.Combined}

// exampleTable is one base table of a worked example.
type exampleTable struct {
	sch  *schema.Schema
	rows *bag.Bag
}

// exampleRefresh loads the tables, defines q as view "u" under sc, and
// returns MU before tx and after tx and a refresh.
func exampleRefresh(t *testing.T, sc core.Scenario, tables map[string]exampleTable, q algebra.Expr, tx txn.Txn) (before, after *bag.Bag) {
	t.Helper()
	db := storage.NewDatabase()
	for name, tb := range tables {
		st, err := db.Create(name, tb.sch, storage.External)
		if err != nil {
			t.Fatal(err)
		}
		tb.rows.EachOrdered(func(tu schema.Tuple, n int) {
			if err := st.Insert(tu, n); err != nil {
				t.Fatal(err)
			}
		})
	}
	m := core.NewManager(db)
	if _, err := m.DefineView("u", q, sc); err != nil {
		t.Fatal(err)
	}
	before, err := m.Query("u")
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Execute(tx); err != nil {
		t.Fatal(err)
	}
	if err := m.Refresh("u"); err != nil {
		t.Fatal(err)
	}
	if err := m.CheckConsistent("u"); err != nil {
		t.Fatal(err)
	}
	after, err = m.Query("u")
	if err != nil {
		t.Fatal(err)
	}
	return before, after
}

// E1 (Example 1.2): inserting [a1,b2] into R and [b2,c2] into S adds
// two copies of [a1] to MU = Π_A(R ⋈ S); the pre-update equations
// evaluated in the post-update state find four (the state bug). Every
// scenario's maintenance adds the paper's two.
func TestE1Example12RefreshAddsTwoCopies(t *testing.T) {
	r := schema.NewSchema(schema.Col("R.A", schema.TString), schema.Col("R.B", schema.TString))
	s := schema.NewSchema(schema.Col("S.B", schema.TString), schema.Col("S.C", schema.TString))
	join, err := algebra.JoinOn(algebra.NewBase("R", r), algebra.NewBase("S", s), algebra.Eq(algebra.A("R.B"), algebra.A("S.B")))
	if err != nil {
		t.Fatal(err)
	}
	q, err := algebra.NewProject([]string{"R.A"}, []string{"A"}, join)
	if err != nil {
		t.Fatal(err)
	}
	tables := map[string]exampleTable{
		"R": {r, bag.Of(schema.Row("a1", "b1"))},
		"S": {s, bag.Of(schema.Row("b1", "c1"), schema.Row("b2", "c2"))},
	}
	tx := txn.Insert("R", bag.Of(schema.Row("a1", "b2"))).Merge(txn.Insert("S", bag.Of(schema.Row("b2", "c2"))))
	a1 := schema.Row("a1")
	for _, sc := range scenarios {
		before, after := exampleRefresh(t, sc, tables, q, tx)
		t.Logf("E1 %v: MU holds %d copies of [a1], then %d", sc, before.Count(a1), after.Count(a1))
		if added := after.Count(a1) - before.Count(a1); added != 2 {
			t.Errorf("%v: maintenance added %d copies of [a1], want Example 1.2's 2", sc, added)
		}
	}
}

// E2 (Example 1.3): for U = R ∸ S, moving [b] from R to S must drop it
// from MU; the pre-update ∇MU evaluated in the post-update state is
// empty and leaves it there. Every scenario's maintenance drops it.
func TestE2Example13RefreshDropsTheStaleRow(t *testing.T) {
	x := schema.NewSchema(schema.Col("x", schema.TString))
	q, err := algebra.NewMonus(algebra.NewBase("R", x), algebra.NewBase("S", x))
	if err != nil {
		t.Fatal(err)
	}
	a, b, c, d := schema.Row("a"), schema.Row("b"), schema.Row("c"), schema.Row("d")
	tables := map[string]exampleTable{"R": {x, bag.Of(a, b, c)}, "S": {x, bag.Of(c, d)}}
	tx := txn.Delete("R", bag.Of(b)).Merge(txn.Insert("S", bag.Of(b)))
	for _, sc := range scenarios {
		before, after := exampleRefresh(t, sc, tables, q, tx)
		t.Logf("E2 %v: MU %v, then %v", sc, before, after)
		if !before.Contains(b) || !after.Equal(bag.Of(a)) {
			t.Errorf("%v: MU went from %v to %v, want {[a],[b]} to {[a]}", sc, before, after)
		}
	}
}

// E3 (§1, §3, §5.3): immediate and differential-table maintenance pay
// an incremental evaluation per view in every transaction; base logs
// and the combined scenario only append to logs.
func TestE3MakesafeEvaluatesPerViewOnlyForIMAndDT(t *testing.T) {
	const txns = 40
	for _, sc := range scenarios {
		var per []int64
		for _, n := range []int{1, 2, 4, 8, 16} {
			m, w := claimViews(t, n, sc, 42)
			c := costOf(t, m, "v0", execute(m, txns, func() txn.Txn { return w.SalesBatch(1) }))
			want := int64(0)
			if sc == core.Immediate || sc == core.DiffTables {
				want = int64(n)
			}
			if c.evals != want*txns {
				t.Errorf("%v, %d views: %d pair evaluations in %d one-row transactions, want %d per transaction", sc, n, c.evals, txns, want)
			}
			per = append(per, c.evals/txns)
		}
		t.Logf("E3 %v: pair evaluations per transaction at 1/2/4/8/16 views: %v", sc, per)
	}
}

// E4 (Example 5.4, §5.3): downtime(BL) > downtime(Policy 1) >
// downtime(Policy 2), counted as the work inside the final refresh
// call — which holds the MV lock. Every variant runs the same 24 ticks;
// the Combined ones propagate after each tick but the last, so Policy
// 1's refresh_C folds one tick's log under the lock, and Policy 2's
// partial_refresh_C applies ∇MV/△MV and evaluates nothing (the last
// tick waits for the next propagate: the view is at most k stale).
func TestE4DowntimeOrderBLPolicy1Policy2(t *testing.T) {
	const ticks = 24
	variants := []struct {
		name    string
		sc      core.Scenario
		refresh func(m *core.Manager) error
	}{
		{"BL refresh", core.BaseLogs, func(m *core.Manager) error { return m.Refresh("v0") }},
		{"C Policy 1", core.Combined, func(m *core.Manager) error { return m.Refresh("v0") }},
		{"C Policy 2", core.Combined, func(m *core.Manager) error { return m.PartialRefresh("v0") }},
	}
	costs := make([]cost, len(variants))
	for i, v := range variants {
		m, w := claimViews(t, 1, v.sc, 7)
		for tick := 1; tick <= ticks; tick++ {
			if err := m.Execute(w.MixedBatch(50, 10)); err != nil {
				t.Fatal(err)
			}
			if v.sc == core.Combined && tick < ticks {
				if err := m.Propagate("v0"); err != nil {
					t.Fatal(err)
				}
			}
		}
		costs[i] = costOf(t, m, "v0", func() error { return v.refresh(m) })
		if err := m.CheckInvariant("v0"); err != nil {
			t.Fatal(err)
		}
		t.Logf("E4 %s: final refresh probed+built %d tuples in %d evaluations", v.name, costs[i].work(), costs[i].evals)
	}
	if bl, p1, p2 := costs[0], costs[1], costs[2]; !(bl.work() > p1.work() && p1.work() > p2.work()) || p2.evals != 0 {
		t.Errorf("downtime work BL %d > Policy 1 %d > Policy 2 %d (%d evaluations, want 0) does not hold",
			bl.work(), p1.work(), p2.work(), p2.evals)
	}
}

// E5 (Example 5.4 generalized): under Policy 1 with m = 24, a longer
// propagation interval k leaves more log for the final refresh to fold
// under the lock, and propagates fewer times.
func TestE5PropagationIntervalTradesDowntimeForPropagates(t *testing.T) {
	const m = 24
	last := int64(-1)
	for _, k := range []int{1, 2, 4, 8, 24} {
		mgr, w := claimViews(t, 1, core.Combined, 11)
		r, err := mgr.NewRunner("v0", core.Policy{PropagateEvery: k, RefreshEvery: m})
		if err != nil {
			t.Fatal(err)
		}
		var pending int64
		for tick := 1; tick <= m; tick++ {
			if err := mgr.Execute(w.MixedBatch(50, 10)); err != nil {
				t.Fatal(err)
			}
			if tick == m {
				pending = stat(mgr, "log_size_tuples", "v0")
			}
			if err := r.Tick(); err != nil {
				t.Fatal(err)
			}
		}
		if err := mgr.CheckConsistent("v0"); err != nil {
			t.Fatal(err)
		}
		propagates := stat(mgr, "propagate_ns", "v0")
		t.Logf("E5 k=%d: %d propagates, %d log tuples pending at the refresh", k, propagates, pending)
		if propagates != int64((m-1)/k) {
			t.Errorf("k=%d: %d propagates, want ⌊%d/k⌋ = %d", k, propagates, m-1, (m-1)/k)
		}
		if pending <= last {
			t.Errorf("k=%d: %d log tuples pending at the refresh, not more than the %d of the shorter interval", k, pending, last)
		}
		last = pending
	}
}

// E7 (§4.1, §5.3): under delete-and-reinsert churn, weak minimality
// keeps both halves of every cancelled pair in ∇MV/△MV; strong
// minimality cancels them.
func TestE7StrongMinimalityCancelsChurn(t *testing.T) {
	size := map[bool]int64{}
	for _, strong := range []bool{false, true} {
		db, w := claimRetail(t, 3, 1.2)
		m := core.NewManager(db)
		def, err := w.ViewDef()
		if err != nil {
			t.Fatal(err)
		}
		var opts []core.Option
		if strong {
			opts = append(opts, core.WithStrongMinimality())
		}
		if _, err := m.DefineView("v", def, core.Combined, opts...); err != nil {
			t.Fatal(err)
		}
		sales, err := db.Bag("sales")
		if err != nil {
			t.Fatal(err)
		}
		victims := bag.New()
		sales.EachOrdered(func(tu schema.Tuple, n int) {
			if victims.Distinct() < 200 {
				victims.Add(tu, n)
			}
		})
		for round := 0; round < 4; round++ {
			for _, tx := range []txn.Txn{txn.Delete("sales", victims), txn.Insert("sales", victims)} {
				if err := m.Execute(tx); err != nil {
					t.Fatal(err)
				}
				if err := m.Propagate("v"); err != nil {
					t.Fatal(err)
				}
			}
		}
		size[strong] = stat(m, "diff_size_tuples", "v")
		if err := m.PartialRefresh("v"); err != nil {
			t.Fatal(err)
		}
		if err := m.CheckConsistent("v"); err != nil {
			t.Fatal(err)
		}
	}
	t.Logf("E7: |∇MV|+|△MV| before the refresh: weak %d, strong %d", size[false], size[true])
	if size[false] == 0 || size[true] != 0 {
		t.Errorf("|∇MV|+|△MV| weak %d, strong %d: want > 0 and 0", size[false], size[true])
	}
}

// E8 (§3.3): an incremental refresh costs the log, a recompute the base
// tables. Refresh probes at most the n logged tuples; a recompute never
// probes fewer than it does for n = 1; and the refresh does less work
// than the recompute at every n up to half the sales table.
func TestE8RefreshCostsTheLogRecomputeTheTables(t *testing.T) {
	var floor int64
	for _, n := range []int{1, 15, 150, 750} {
		var c [2]cost
		for i, refresh := range []func(m *core.Manager) error{
			func(m *core.Manager) error { return m.Refresh("v0") },
			func(m *core.Manager) error { return m.RefreshRecompute("v0") },
		} {
			m, w := claimViews(t, 1, core.BaseLogs, 5)
			if err := m.Execute(w.SalesBatch(n)); err != nil {
				t.Fatal(err)
			}
			c[i] = costOf(t, m, "v0", func() error { return refresh(m) })
			if err := m.CheckConsistent("v0"); err != nil {
				t.Fatal(err)
			}
		}
		inc, rec := c[0], c[1]
		if n == 1 {
			floor = rec.probed
		}
		t.Logf("E8 n=%d: refresh probed %d (work %d), recompute probed %d (work %d)", n, inc.probed, inc.work(), rec.probed, rec.work())
		if inc.probed > int64(n) || rec.probed < floor || inc.work() >= rec.work() {
			t.Errorf("n=%d: refresh probed %d (want ≤ %d), recompute %d (want ≥ %d), work %d vs %d (want less)",
				n, inc.probed, n, rec.probed, floor, inc.work(), rec.work())
		}
	}
}

// E9 (§1: "deferred maintenance also allows several updates to be
// batched"): n one-row transactions cost immediate maintenance n pair
// evaluations, and a deferred view one.
func TestE9DeferredMaintenanceBatches(t *testing.T) {
	const n = 200
	for _, sc := range []core.Scenario{core.Immediate, core.BaseLogs, core.Combined} {
		m, w := claimViews(t, 1, sc, 13)
		c := costOf(t, m, "v0", func() error {
			if err := execute(m, n, func() txn.Txn { return w.SalesBatch(1) })(); err != nil {
				return err
			}
			return m.Refresh("v0")
		})
		if err := m.CheckConsistent("v0"); err != nil {
			t.Fatal(err)
		}
		want := int64(1)
		if sc == core.Immediate {
			want = n
		}
		t.Logf("E9 %v: %d pair evaluations for %d transactions and a refresh", sc, c.evals, n)
		if c.evals != want {
			t.Errorf("%v: %d pair evaluations, want %d", sc, c.evals, want)
		}
	}
}

// E10 (§7 extension): a shared log appends each change once per table,
// flat in the number of views. Per-view logs append each change to
// every view that can see it: a view's definition guards sales with
// quantity != 0 and its extra conjunct, and only the rows inside that
// filter enter its logs — counted here from the batches. Views over
// disjoint item ranges then log one view's volume between them, however
// many there are; copies of one view log it once per copy.
func TestE10SharedLogAppendIsFlatInViews(t *testing.T) {
	const txns, rows = 40, 20
	inRange := func(item int64, i, n int) bool { return item >= int64(i*200/n) && item < int64((i+1)*200/n) }
	for _, fam := range []struct {
		name   string
		extra  func(i, n int) algebra.Predicate
		inside func(item int64, i, n int) bool
		grows  bool // per-view appends at 16 views = 16 × at 1 view; else equal
	}{
		{"disjoint item ranges", itemRange, inRange, false},
		{"copies of one view", func(int, int) algebra.Predicate { return algebra.True }, func(int64, int, int) bool { return true }, true},
	} {
		var perView [2]int64 // at 1 and at 16 views
		for k, n := range []int{1, 16} {
			m, w := claimViewsOver(t, n, core.Combined, 21, fam.extra)
			var visible int64 // Σ over views of the batch rows inside the view's filter
			if err := execute(m, txns, func() txn.Txn {
				tx := w.SalesBatch(rows)
				tx["sales"].Insert.Each(func(tu schema.Tuple, c int) {
					for i := 0; i < n; i++ {
						if tu[2].AsInt() != 0 && fam.inside(tu[1].AsInt(), i, n) {
							visible += int64(c)
						}
					}
				})
				return tx
			})(); err != nil {
				t.Fatal(err)
			}
			s, ws := claimViewsOver(t, n, core.Combined, 21, fam.extra, core.WithSharedLogs())
			if err := execute(s, txns, func() txn.Txn { return ws.SalesBatch(rows) })(); err != nil {
				t.Fatal(err)
			}
			perView[k] = family(m, "log_append_tuples")
			shared := s.SharedLogVolume("sales")
			t.Logf("E10 %s, %d views: per-view logs hold %d tuples (%d rows inside the views' filters), the shared log %d", fam.name, n, perView[k], visible, shared)
			if perView[k] != visible || shared != txns*rows {
				t.Errorf("%s, %d views: per-view logs %d (want %d), shared log %d (want %d)", fam.name, n, perView[k], visible, shared, txns*rows)
			}
		}
		want := perView[0]
		if fam.grows {
			want *= 16
		}
		if perView[1] != want {
			t.Errorf("%s: per-view logs %d at 16 views, want %d (%d at 1 view)", fam.name, perView[1], want, perView[0])
		}
	}
}

// E11 (§1.1: while a refresh holds the view's exclusive lock, "all
// queries and scans against the view are disallowed"): what a reader
// waits for is the work inside that lock. Over 2,000 pending sales a
// base-logs refresh evaluates the pair there; Policy 2, having
// propagated first, only applies ∇MV/△MV — no evaluation, no probe.
func TestE11Policy2ExclusiveSectionEvaluatesNothing(t *testing.T) {
	var got [2]cost
	for i, sc := range []core.Scenario{core.BaseLogs, core.Combined} {
		m, w := claimViews(t, 1, sc, 31)
		if err := m.Execute(w.SalesBatch(2000)); err != nil {
			t.Fatal(err)
		}
		refresh := m.Refresh
		if sc == core.Combined {
			if err := m.Propagate("v0"); err != nil {
				t.Fatal(err)
			}
			refresh = m.PartialRefresh
		}
		got[i] = costOf(t, m, "v0", func() error { return refresh("v0") })
		if err := m.CheckConsistent("v0"); err != nil {
			t.Fatal(err)
		}
		t.Logf("E11 %v: the refresh under MV's lock made %d evaluations and probed+built %d tuples", sc, got[i].evals, got[i].work())
	}
	if bl, p2 := got[0], got[1]; bl.evals == 0 || bl.work() == 0 || p2.evals != 0 || p2.work() != 0 {
		t.Errorf("work under the lock: BL %+v, Policy 2 %+v; want BL's > 0 and Policy 2's 0", bl, p2)
	}
}

// E13 (related work, [KR87]/[SP89]): the view's definition guards sales
// with s.quantity != 0, so the sales changes it rejects never enter the
// view's logs. The view appends exactly the relevant rows of its
// transactions — counted here from the normalized batches — and fewer
// than the batches hold; the refresh then finds only those pending.
func TestE13RelevantUpdateFiltersShrinkTheLog(t *testing.T) {
	db, w := claimRetail(t, 61, 0)
	m := core.NewManager(db)
	def, err := w.ViewDef()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.DefineView("v", def, core.BaseLogs); err != nil {
		t.Fatal(err)
	}
	var total, relevant int64
	for i := 0; i < 24; i++ {
		tx := w.MixedBatch(100, 10)
		nt, err := tx.Normalize(db)
		if err != nil {
			t.Fatal(err)
		}
		u := nt["sales"]
		for _, b := range []*bag.Bag{u.Delete, u.Insert} {
			b.Each(func(tu schema.Tuple, c int) {
				total += int64(c)
				if tu[2].AsInt() != 0 {
					relevant += int64(c)
				}
			})
		}
		if err := m.Execute(tx); err != nil {
			t.Fatal(err)
		}
	}
	appended, pending := family(m, "log_append_tuples"), stat(m, "log_size_tuples", "v")
	c := costOf(t, m, "v", func() error { return m.Refresh("v") })
	if err := m.CheckConsistent("v"); err != nil {
		t.Fatal(err)
	}
	t.Logf("E13: %d of the batches' %d sales changes are relevant; %d log tuples appended, %d pending at the refresh, %d probed by it", relevant, total, appended, pending, c.probed)
	if appended != relevant || relevant >= total || pending > appended {
		t.Errorf("appended %d (want the %d relevant, fewer than the %d changes), %d pending", appended, relevant, total, pending)
	}
}

// E14 (§7: "refresh only those parts of a view needed by a given
// query"): over 2,000 pending sales the stale Query misses them, while
// QueryFresh — of the whole view and of one customer's slice — answers
// what the next refresh makes MV, without refreshing and without taking
// MV's exclusive lock.
func TestE14FreshReadsAnswerAsOfNowWithoutDowntime(t *testing.T) {
	m, w := claimViews(t, 1, core.Combined, 77)
	if err := m.Execute(w.SalesBatch(2000)); err != nil {
		t.Fatal(err)
	}
	v, err := m.View("v0")
	if err != nil {
		t.Fatal(err)
	}
	holds := func() int { return m.Locks().Stats(v.MVTable()).WriteHolds }
	h0 := holds()
	stale, err := m.Query("v0")
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := m.QueryFresh("v0", nil)
	if err != nil {
		t.Fatal(err)
	}
	slice, err := m.QueryFresh("v0", algebra.Eq(algebra.A("custId"), algebra.C(1)))
	if err != nil {
		t.Fatal(err)
	}
	readHolds, refreshes := holds()-h0, stat(m, "refresh_ns", "v0")
	if err := m.Refresh("v0"); err != nil {
		t.Fatal(err)
	}
	now, err := m.Query("v0")
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("E14: stale %d tuples, fresh %d, slice %d, now %d; fresh reads took %d exclusive sections, the refresh %d",
		stale.Len(), fresh.Len(), slice.Len(), now.Len(), readHolds, holds()-h0-readHolds)
	if stale.Equal(now) || !fresh.Equal(now) {
		t.Errorf("stale read equals the refreshed view (%v) or the fresh read does not (%v)", stale.Equal(now), fresh.Equal(now))
	}
	if readHolds != 0 || refreshes != 0 || holds()-h0 == 0 {
		t.Errorf("fresh reads took %d exclusive sections and %d refreshes, the refresh %d; want 0, 0 and more", readHolds, refreshes, holds()-h0)
	}
	inSlice := 0
	slice.EachOrdered(func(tu schema.Tuple, n int) {
		if now.Count(tu) != n {
			t.Errorf("slice holds %v ×%d, the refreshed view ×%d", tu, n, now.Count(tu))
		}
		inSlice += n
	})
	if inSlice >= now.Len() {
		t.Errorf("one customer's slice holds %d of the view's %d tuples", inSlice, now.Len())
	}
}
