// Package dvm_test hosts the root tests: the paper's claims as count
// assertions (claims_test.go), end-to-end checks, and testing.B
// micro-benchmarks of the layers the claims rest on (bag operations,
// evaluation, differential compilation, makesafe, refresh variants) plus
// the Policy-2 retail day `make profile` captures.
package dvm_test

import (
	"fmt"
	"testing"

	"dvm/internal/algebra"
	"dvm/internal/bag"
	"dvm/internal/core"
	"dvm/internal/delta"
	"dvm/internal/schema"
	"dvm/internal/storage"
	"dvm/internal/txn"
	"dvm/internal/workload"
)

// --- Per-scenario makesafe cost (the E3 rows as isolated benches) ---

func retailManager(b *testing.B, sc core.Scenario) (*core.Manager, *workload.Retail) {
	b.Helper()
	db := storage.NewDatabase()
	w := workload.NewRetail(workload.RetailConfig{
		Customers: 300, HighFraction: 0.2, InitialSales: 2000, Items: 200, ZipfS: 1.2, Seed: 17,
	})
	if err := w.Setup(db); err != nil {
		b.Fatal(err)
	}
	m := core.NewManager(db)
	def, err := w.ViewDef()
	if err != nil {
		b.Fatal(err)
	}
	if _, err := m.DefineView("v", def, sc); err != nil {
		b.Fatal(err)
	}
	return m, w
}

func benchExecute(b *testing.B, sc core.Scenario) {
	m, w := retailManager(b, sc)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.Execute(w.SalesBatch(1)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMakeSafeImmediate(b *testing.B)  { benchExecute(b, core.Immediate) }
func BenchmarkMakeSafeBaseLogs(b *testing.B)   { benchExecute(b, core.BaseLogs) }
func BenchmarkMakeSafeDiffTables(b *testing.B) { benchExecute(b, core.DiffTables) }
func BenchmarkMakeSafeCombined(b *testing.B)   { benchExecute(b, core.Combined) }

// --- Refresh variants over a fixed pending-update volume ---

func benchRefresh(b *testing.B, sc core.Scenario, refresh func(m *core.Manager) error) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		m, w := retailManager(b, sc)
		if err := m.Execute(w.SalesBatch(100)); err != nil {
			b.Fatal(err)
		}
		if sc == core.Combined {
			if err := m.Propagate("v"); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
		if err := refresh(m); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRefreshBaseLogs(b *testing.B) {
	benchRefresh(b, core.BaseLogs, func(m *core.Manager) error { return m.Refresh("v") })
}

func BenchmarkRefreshCombinedFull(b *testing.B) {
	benchRefresh(b, core.Combined, func(m *core.Manager) error { return m.Refresh("v") })
}

func BenchmarkRefreshCombinedPartial(b *testing.B) {
	benchRefresh(b, core.Combined, func(m *core.Manager) error { return m.PartialRefresh("v") })
}

func BenchmarkRefreshRecompute(b *testing.B) {
	benchRefresh(b, core.BaseLogs, func(m *core.Manager) error { return m.RefreshRecompute("v") })
}

// --- Micro-benchmarks: bag algebra ---

func makeBag(n, domain int) *bag.Bag {
	b := bag.New()
	for i := 0; i < n; i++ {
		b.Add(schema.Row(i%domain, i), 1)
	}
	return b
}

func BenchmarkBagUnionAll(b *testing.B) {
	x := makeBag(10000, 5000)
	y := makeBag(10000, 5000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bag.UnionAll(x, y)
	}
}

func BenchmarkBagMonus(b *testing.B) {
	x := makeBag(10000, 5000)
	y := makeBag(5000, 5000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bag.Monus(x, y)
	}
}

func BenchmarkBagMin(b *testing.B) {
	x := makeBag(10000, 5000)
	y := makeBag(5000, 5000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bag.Min(x, y)
	}
}

func BenchmarkBagDupElim(b *testing.B) {
	x := makeBag(10000, 1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bag.DupElim(x)
	}
}

func BenchmarkTupleKey(b *testing.B) {
	t := schema.Row(123456, "some-string-value", 3.25, true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = t.Key()
	}
}

// --- Micro-benchmarks: evaluation ---

func joinFixture(b *testing.B, rows int) (algebra.Expr, *storage.Database) {
	b.Helper()
	db := storage.NewDatabase()
	w := workload.NewRetail(workload.RetailConfig{
		Customers: 300, HighFraction: 0.2, InitialSales: rows, Items: 200, ZipfS: 1.2, Seed: 9,
	})
	if err := w.Setup(db); err != nil {
		b.Fatal(err)
	}
	def, err := w.ViewDef()
	if err != nil {
		b.Fatal(err)
	}
	return def, db
}

func BenchmarkEvalHashJoin(b *testing.B) {
	for _, rows := range []int{1000, 4000, 16000} {
		b.Run(fmt.Sprintf("rows=%d", rows), func(b *testing.B) {
			def, db := joinFixture(b, rows)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := algebra.Eval(def, db); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEvalPostUpdateDelta measures evaluating ▼(L,Q)/▲(L,Q) for a
// join view with a 100-row log — the inner loop of refresh_BL and
// propagate_C.
func BenchmarkEvalPostUpdateDelta(b *testing.B) {
	m, w := retailManager(b, core.BaseLogs)
	if err := m.Execute(w.SalesBatch(100)); err != nil {
		b.Fatal(err)
	}
	v, err := m.View("v")
	if err != nil {
		b.Fatal(err)
	}
	past, err := m.PastExpr(v)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := algebra.Eval(past, m.DB()); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Micro-benchmarks: differential compilation ---

func BenchmarkDifferentiateJoinView(b *testing.B) {
	def, db := joinFixture(b, 100)
	cs := delta.ChangeSet{}
	for _, name := range algebra.BaseNames(def) {
		tb, _ := db.Table(name)
		cs[name] = struct {
			Deleted  algebra.Expr
			Inserted algebra.Expr
		}{
			Deleted:  algebra.NewBase(name+"_del", tb.Schema()),
			Inserted: algebra.NewBase(name+"_ins", tb.Schema()),
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := delta.PostUpdate(cs, def); err != nil {
			b.Fatal(err)
		}
	}
}

// --- End-to-end transaction throughput with a mixed workload ---

func BenchmarkMixedWorkloadCombined(b *testing.B) {
	m, w := retailManager(b, core.Combined)
	runner, err := m.NewRunner("v", core.Policy{PropagateEvery: 8, RefreshEvery: 64})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.Execute(w.MixedBatch(5, 1)); err != nil {
			b.Fatal(err)
		}
		if err := runner.Tick(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRetailDay runs the Policy-2 retail day (retailDay): the
// workload `make profile` captures.
func BenchmarkRetailDay(b *testing.B) {
	for i := 0; i < b.N; i++ {
		retailDay(b)
	}
}

// Guard: the benchmark fixtures must leave invariants intact.
func TestBenchFixturesPreserveInvariants(t *testing.T) {
	db := storage.NewDatabase()
	w := workload.NewRetail(workload.RetailConfig{
		Customers: 50, HighFraction: 0.2, InitialSales: 200, Items: 50, ZipfS: 1.2, Seed: 3,
	})
	if err := w.Setup(db); err != nil {
		t.Fatal(err)
	}
	m := core.NewManager(db)
	def, err := w.ViewDef()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.DefineView("v", def, core.Combined); err != nil {
		t.Fatal(err)
	}
	if err := m.Execute(txn.Insert("sales", bag.Of(schema.Row(1, 1, 1, 1.0)))); err != nil {
		t.Fatal(err)
	}
	if err := m.CheckInvariant("v"); err != nil {
		t.Fatal(err)
	}
	if err := m.Refresh("v"); err != nil {
		t.Fatal(err)
	}
	if err := m.CheckConsistent("v"); err != nil {
		t.Fatal(err)
	}
}
