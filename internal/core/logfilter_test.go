package core

import (
	"testing"

	"dvm/internal/algebra"
	"dvm/internal/bag"
	"dvm/internal/schema"
	"dvm/internal/txn"
)

// filteredRetail registers the Example 1.1 view. Its definition guards
// sales with s.quantity != 0 and customer with c.score = 'High', so only
// nonzero-quantity sales and High customers ever enter its logs.
func filteredRetail(t *testing.T, sc Scenario, opts ...ManagerOption) *Manager {
	t.Helper()
	db, def := retailDB(t)
	m := NewManager(db, opts...)
	if _, err := m.DefineView("hv", def, sc); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestLogFilterLifecycle(t *testing.T) {
	for _, sc := range []Scenario{BaseLogs, Combined} {
		m := filteredRetail(t, sc)
		steps := []txn.Txn{
			txn.Insert("sales", bag.Of(saleRow(0, 1, 2), saleRow(0, 2, 0))), // one relevant, one irrelevant
			txn.Insert("sales", bag.Of(saleRow(1, 3, 0))),                   // all irrelevant
			{
				"customer": {
					Delete: bag.Of(schema.Row(1, "cust", "addr", "Low")),
					Insert: bag.Of(schema.Row(1, "cust", "addr", "High")),
				},
			},
			txn.Delete("sales", bag.Of(saleRow(0, 1, 2))),
		}
		for i, tx := range steps {
			if err := m.Execute(tx); err != nil {
				t.Fatalf("%v step %d: %v", sc, i, err)
			}
			if err := m.CheckInvariant("hv"); err != nil {
				t.Fatalf("%v step %d: %v", sc, i, err)
			}
		}
		if sc == Combined {
			if err := m.Propagate("hv"); err != nil {
				t.Fatal(err)
			}
			if err := m.CheckInvariant("hv"); err != nil {
				t.Fatalf("%v after propagate: %v", sc, err)
			}
		}
		if err := m.Refresh("hv"); err != nil {
			t.Fatal(err)
		}
		if err := m.CheckConsistent("hv"); err != nil {
			t.Fatalf("%v: %v", sc, err)
		}
	}
}

func TestLogFilterDropsIrrelevantRows(t *testing.T) {
	m := filteredRetail(t, BaseLogs)
	v, _ := m.View("hv")
	// Insert 10 zero-quantity (irrelevant) and 3 relevant sales.
	rel := bag.New()
	irr := bag.New()
	for i := 0; i < 10; i++ {
		irr.Add(saleRow(i%10, 90+i, 0), 1)
	}
	for i := 0; i < 3; i++ {
		rel.Add(saleRow(i, 80+i, 1), 1)
	}
	if err := m.Execute(txn.Insert("sales", bag.UnionAll(rel, irr))); err != nil {
		t.Fatal(err)
	}
	logIns := v.logs["sales"].add.Data()
	if logIns.Len() != 3 {
		t.Fatalf("log has %d rows, want only the 3 relevant ones: %v", logIns.Len(), logIns)
	}
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

// TestLogFilterSlowPathAgrees holds the filtered in-place append
// against its algebraic form: the composition lemma over σ_p(∇R) and
// σ_p(△R), evaluated by the interpreter.
func TestLogFilterSlowPathAgrees(t *testing.T) {
	m := filteredRetail(t, Combined)
	v, _ := m.View("hv")
	db := m.DB()
	tx := txn.Txn{"sales": {
		Delete: bag.Of(schema.Row(0, 0, 0, 0.0), schema.Row(1, 1, 1, 1.0)),
		Insert: bag.Of(saleRow(0, 1, 2), saleRow(0, 2, 0), saleRow(2, 3, 1)),
	}}
	nt, err := tx.Normalize(db)
	if err != nil {
		t.Fatal(err)
	}
	sales, _ := db.Table("sales")
	pred := algebra.RelevantFilters(v.Def)["sales"]
	logDel, logIns := v.logs["sales"].del.Data(), v.logs["sales"].add.Data()
	wantDel, wantIns := algebraicMerge(t, sales.Schema(), logDel, logIns,
		algebraicSelect(t, sales.Schema(), pred, nt["sales"].Delete),
		algebraicSelect(t, sales.Schema(), pred, nt["sales"].Insert), false)
	if wantDel.Len() != 1 || wantIns.Len() != 2 {
		t.Fatalf("the stream should log 1 relevant delete and 2 relevant inserts, not %v / %v", wantDel, wantIns)
	}
	if err := m.Execute(tx); err != nil {
		t.Fatal(err)
	}
	if !logDel.Equal(wantDel) || !logIns.Equal(wantIns) {
		t.Fatalf("filtered logs diverge from the algebraic form:\n▼ %v want %v\n▲ %v want %v", logDel, wantDel, logIns, wantIns)
	}
}

// TestLogFilterUnderSharedLogs: the shared stream keeps every change,
// and the view's private window keeps the relevant ones — what its own
// logs would hold — so the Figure 3 algorithms see one log state in
// both layouts.
func TestLogFilterUnderSharedLogs(t *testing.T) {
	perView := filteredRetail(t, Combined)
	shared := filteredRetail(t, Combined, WithSharedLogs())
	tx := txn.Insert("sales", bag.Of(saleRow(0, 1, 2), saleRow(0, 2, 0), saleRow(1, 3, 0), saleRow(2, 4, 1)))
	for _, m := range []*Manager{perView, shared} {
		if err := m.Execute(tx); err != nil {
			t.Fatal(err)
		}
		if err := m.CheckInvariant("hv"); err != nil {
			t.Fatal(err)
		}
	}
	if n := shared.SharedLogVolume("sales"); n != 4 {
		t.Fatalf("the shared stream holds %d sales, want all 4", n)
	}
	v, _ := shared.View("hv")
	if err := shared.materializeWindow(v); err != nil {
		t.Fatal(err)
	}
	own, _ := perView.View("hv")
	want, got := own.logs["sales"].add.Data(), v.logs["sales"].add.Data()
	if want.Len() != 2 || !got.Equal(want) {
		t.Fatalf("the window holds %v, the view's own log %v; want the 2 nonzero-quantity sales in both", got, want)
	}
	for _, m := range []*Manager{perView, shared} {
		if err := m.Refresh("hv"); err != nil {
			t.Fatal(err)
		}
		if err := m.CheckConsistent("hv"); err != nil {
			t.Fatal(err)
		}
	}
}
