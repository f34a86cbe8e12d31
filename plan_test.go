package dvm_test

import (
	"fmt"
	"reflect"
	"testing"

	"dvm/internal/algebra"
	"dvm/internal/bag"
	"dvm/internal/core"
	"dvm/internal/schema"
	"dvm/internal/sql"
	"dvm/internal/storage"
	"dvm/internal/txn"
	"dvm/internal/workload"
)

// example11SQL is Example 1.1 as the SQL surface takes it: the same view
// workload.ViewDef builds through the algebra API, over tables whose
// columns carry no alias prefix (the FROM clause adds it, as a renaming).
const example11SQL = `CREATE MATERIALIZED VIEW hv REFRESH DEFERRED COMBINED AS
SELECT c.custId, c.name, c.score, s.itemNo, s.quantity
FROM customer c, sales s
WHERE c.custId = s.custId AND s.quantity != 0 AND c.score = 'High'`

// planPair sets up Example 1.1 twice over identical data: once through
// core.Manager with workload.ViewDef, once through sql.Engine with DDL.
// The returned generator belongs to the API side; its transactions are
// plain tuple bags, so the test applies each one to both managers.
func planPair(t *testing.T, cfg workload.RetailConfig) (api *core.Manager, eng *sql.Engine, w *workload.Retail) {
	t.Helper()
	db := storage.NewDatabase()
	w = workload.NewRetail(cfg)
	if err := w.Setup(db); err != nil {
		t.Fatal(err)
	}
	api = core.NewManager(db)
	def, err := w.ViewDef()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := api.DefineView("hv", def, core.Combined); err != nil {
		t.Fatal(err)
	}

	eng = sql.NewEngine()
	for _, ddl := range []string{
		"CREATE TABLE sales (custId INT, itemNo INT, quantity INT, salesPrice FLOAT)",
		"CREATE TABLE customer (custId INT, name STRING, address STRING, score STRING)",
	} {
		if _, err := eng.Exec(ddl); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range []string{"sales", "customer"} {
		rows, err := db.Bag(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.Manager().Execute(txn.Insert(name, rows.Clone())); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := eng.Exec(example11SQL); err != nil {
		t.Fatal(err)
	}
	// Materializing a view — DefineView and CREATE MATERIALIZED VIEW alike
	// — reads the tables once, through the compiled definition: it must
	// not leave them indexed or journaling (the bag's dx field) before any
	// maintenance has run, and MV is what the interpreter computes.
	for _, m := range []*core.Manager{api, eng.Manager()} {
		for _, name := range []string{"sales", "customer"} {
			b, _ := m.DB().Bag(name)
			if len(b.Indexes()) != 0 || !reflect.ValueOf(b).Elem().FieldByName("dx").IsNil() {
				t.Fatalf("DefineView left %s indexed (%d indexes) or journaling", name, len(b.Indexes()))
			}
		}
		v, _ := m.View("hv")
		want, err := algebra.Eval(v.Def, m.DB())
		if err != nil {
			t.Fatal(err)
		}
		if mv, _ := m.Query("hv"); !mv.Equal(want) {
			t.Fatalf("materialized view holds %d tuples, the interpreter computes %d", mv.Len(), want.Len())
		}
	}
	return api, eng, w
}

// TestSQLViewPlansLikeAPIView pins the premise of ROADMAP item 6 ("SQL
// statements plan like views"): a view defined in
// SQL is maintained by the same joins, against the same live tables and
// the same table-owned indexes, as the view built through the algebra
// API. Over one scripted day — sales churn every tick, a customer's
// score flipped and flipped back, one burst longer than the journal
// window of either table — every Propagate must do identical join work
// on both sides, that work must stay proportional to the change (never
// again to a table), and the views must stay identical.
func TestSQLViewPlansLikeAPIView(t *testing.T) {
	api, eng, w := planPair(t, workload.RetailConfig{
		Customers: 300, HighFraction: 0.25, InitialSales: 2400, Items: 60, ZipfS: 1.2, Seed: 17,
	})
	sqlm := eng.Manager()
	// joinWork is a manager's hv join work so far: index tuples probed
	// and built.
	joinWork := func(m *core.Manager) [2]int64 {
		return [2]int64{stat(m, "index_probe_tuples", "hv"), stat(m, "index_build_tuples", "hv")}
	}

	changes := 0 // tuples the transactions since the last propagate deleted or inserted
	execBoth := func(tx txn.Txn) {
		t.Helper()
		for _, u := range tx {
			if u.Delete != nil {
				changes += u.Delete.Len()
			}
			if u.Insert != nil {
				changes += u.Insert.Len()
			}
		}
		if err := api.Execute(tx); err != nil {
			t.Fatal(err)
		}
		if err := sqlm.Execute(tx); err != nil {
			t.Fatal(err)
		}
	}

	// One hot customer's score goes High -> Low and, two ticks later, back.
	const hot = 3
	custRow := func(score string) *bag.Bag {
		return bag.Of(schema.Row(hot, fmt.Sprintf("cust-%d", hot), fmt.Sprintf("addr-%d", hot), score))
	}
	warm := false // both tables' indexes exist: from the first propagate after a flip on
	backlog := 0  // sales tuples changed in earlier ticks since a propagate last joined on sales
	for tick := 1; tick <= 24; tick++ {
		baskets := 12
		if tick == 15 {
			baskets = 400 // ~1600 changes: more than a journal window of sales (600) or customer (256)
		}
		for i := 0; i < baskets; i++ {
			execBoth(w.Basket(2, 6, 0.3))
		}
		flipped := true
		switch tick {
		case 4, 12, 20:
			execBoth(txn.Txn{"customer": {Delete: custRow("High"), Insert: custRow("Low")}})
		case 6, 14, 22:
			execBoth(txn.Txn{"customer": {Delete: custRow("Low"), Insert: custRow("High")}})
		default:
			flipped = false
		}

		a0, s0 := joinWork(api), joinWork(sqlm)
		if err := api.Propagate("hv"); err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Exec("PROPAGATE hv"); err != nil {
			t.Fatal(err)
		}
		a1, s1 := joinWork(api), joinWork(sqlm)
		aProbe, aBuild := a1[0]-a0[0], a1[1]-a0[1]
		sProbe, sBuild := s1[0]-s0[0], s1[1]-s0[1]
		if aProbe == 0 {
			t.Fatalf("tick %d: the API view's propagate probed no index", tick)
		}
		if aProbe != sProbe || aBuild != sBuild {
			t.Fatalf("tick %d: SQL view probed %d / built %d index tuples, API view %d / %d",
				tick, sProbe, sBuild, aProbe, aBuild)
		}
		// Catching up a table's index costs one entry per tuple changed
		// since a join last asked for it — customer's every tick, sales'
		// only when a customer changed (every other term's log side is
		// empty) — and a join of two logs indexes the smaller one for the
		// join, at most this tick's change again. A rebuilt sales index
		// would cost 2400 on top.
		bound := 2 * changes
		if flipped {
			bound += backlog
			backlog = 0
		} else {
			backlog += changes
		}
		if warm && sBuild > int64(bound) {
			t.Fatalf("tick %d: propagate built %d index tuples, want at most %d", tick, sBuild, bound)
		}
		warm = warm || flipped
		changes = 0

		if tick%3 == 0 {
			if err := api.PartialRefresh("hv"); err != nil {
				t.Fatal(err)
			}
			if _, err := eng.Exec("PARTIAL REFRESH hv"); err != nil {
				t.Fatal(err)
			}
		}
		am, err := api.Query("hv")
		if err != nil {
			t.Fatal(err)
		}
		sm, err := sqlm.Query("hv")
		if err != nil {
			t.Fatal(err)
		}
		if !am.Equal(sm) {
			t.Fatalf("tick %d: SQL-defined and API-defined views differ", tick)
		}
	}
	for _, m := range []*core.Manager{api, sqlm} {
		if err := m.CheckInvariant("hv"); err != nil {
			t.Fatal(err)
		}
		if err := m.Refresh("hv"); err != nil {
			t.Fatal(err)
		}
		if err := m.CheckConsistent("hv"); err != nil {
			t.Fatal(err)
		}
	}
	// One index per table and column set, on both sides, after a day in
	// which DEL and ADD terms of three programs joined on them.
	for _, m := range []*core.Manager{api, sqlm} {
		for _, name := range []string{"sales", "customer"} {
			b, _ := m.DB().Bag(name)
			if got := b.Indexes(); len(got) != 1 || len(got[0]) != 1 || got[0][0] != 0 {
				t.Fatalf("%s owns indexes on %v, want exactly one, on custId", name, got)
			}
		}
	}
}

// TestCustomerFlipIndexesOnlyTheTables: after a customer's score flips
// in a tick of sales churn, every term of the Example 1.1 pair runs —
// the log × log ones too — and the Propagate leaves an index on the two
// base tables alone, one each, on custId. A log is a delta: the join
// reads it through a throw-away index, or probes a table's index with
// it, but never makes it own one (which it would keep, and journal every
// append for, for good). Both the API-defined and the SQL-defined view.
func TestCustomerFlipIndexesOnlyTheTables(t *testing.T) {
	api, eng, w := planPair(t, workload.RetailConfig{
		Customers: 100, HighFraction: 0.5, InitialSales: 800, Items: 40, ZipfS: 1.2, Seed: 23,
	})
	const hot = 4 // one of the first half: High at set-up
	custRow := func(score string) *bag.Bag {
		return bag.Of(schema.Row(hot, fmt.Sprintf("cust-%d", hot), fmt.Sprintf("addr-%d", hot), score))
	}
	tick := []txn.Txn{{"customer": {Delete: custRow("High"), Insert: custRow("Low")}}}
	for i := 0; i < 20; i++ {
		tick = append(tick, w.Basket(2, 6, 0.5))
	}
	for _, m := range []*core.Manager{api, eng.Manager()} {
		for _, tx := range tick {
			if err := m.Execute(tx); err != nil {
				t.Fatal(err)
			}
		}
		if err := m.Propagate("hv"); err != nil {
			t.Fatal(err)
		}
		for _, name := range m.DB().Names() {
			b, _ := m.DB().Bag(name)
			got := b.Indexes()
			switch name {
			case "sales", "customer":
				if len(got) != 1 || len(got[0]) != 1 || got[0][0] != 0 {
					t.Fatalf("%s owns indexes on %v, want exactly one, on custId", name, got)
				}
			default:
				if len(got) != 0 {
					t.Fatalf("%s owns indexes on %v, want none: only the base tables keep one", name, got)
				}
			}
		}
		if err := m.CheckInvariant("hv"); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSiblingViewsShareTableIndex: 16 views joining customer on the same
// column probe one index the customer bag owns, not one (or two) each.
func TestSiblingViewsShareTableIndex(t *testing.T) {
	db := storage.NewDatabase()
	w := workload.NewRetail(workload.RetailConfig{
		Customers: 200, HighFraction: 0.25, InitialSales: 1500, Items: 64, ZipfS: 1.2, Seed: 5,
	})
	if err := w.Setup(db); err != nil {
		t.Fatal(err)
	}
	m := core.NewManager(db)
	const views = 16
	for i := 0; i < views; i++ {
		lo, hi := i*64/views, (i+1)*64/views
		def, err := w.FilteredViewDef(algebra.AndOf(
			algebra.Cmp{Op: algebra.GE, L: algebra.A("s.itemNo"), R: algebra.C(lo)},
			algebra.Cmp{Op: algebra.LT, L: algebra.A("s.itemNo"), R: algebra.C(hi)},
		))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.DefineView(fmt.Sprintf("v%d", i), def, core.Combined); err != nil {
			t.Fatal(err)
		}
	}
	var sold int64 // the transactions' sales rows
	for round := 0; round < 3; round++ {
		for i := 0; i < 20; i++ {
			tx := w.Basket(2, 6, 0.3)
			for _, b := range []*bag.Bag{tx["sales"].Delete, tx["sales"].Insert} {
				if b != nil {
					sold += int64(b.Len())
				}
			}
			if err := m.Execute(tx); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < views; i++ {
			name := fmt.Sprintf("v%d", i)
			if err := m.Propagate(name); err != nil {
				t.Fatal(err)
			}
			if err := m.CheckInvariant(name); err != nil {
				t.Fatal(err)
			}
		}
	}
	cust, _ := db.Bag("customer")
	if got := cust.Indexes(); len(got) != 1 {
		t.Fatalf("customer owns %d indexes after %d views propagated, want 1", len(got), views)
	}
	// Each view keeps a sixteenth of the items: its item-range conjuncts
	// read sales alone, so they keep the other sales out of its log, and
	// a view looks up its share of the transactions' sales, not all of
	// them.
	for _, v := range m.Views() {
		if probed := stat(m, "index_probe_tuples", v.Name); probed*8 > sold {
			t.Fatalf("view %s probed %d index entries for the transactions' %d sales rows, want at most an eighth", v.Name, probed, sold)
		}
	}
	// No customer changed, so no term ever joined on sales' side.
	if sales, _ := db.Bag("sales"); len(sales.Indexes()) != 0 {
		t.Fatalf("sales owns %d indexes though no customer changed", len(sales.Indexes()))
	}
}
