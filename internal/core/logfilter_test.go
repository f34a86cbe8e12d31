package core

import (
	"testing"

	"dvm/internal/algebra"
	"dvm/internal/bag"
	"dvm/internal/schema"
	"dvm/internal/storage"
	"dvm/internal/txn"
)

// filteredRetail registers the Example 1.1 view with relevant-update
// filters matching its single-table conjuncts: only nonzero-quantity
// sales and High customers ever enter the logs.
func filteredRetail(t *testing.T, sc Scenario) *Manager {
	t.Helper()
	db, def := retailDB(t)
	m := NewManager(db)
	_, err := m.DefineView("hv", def, sc,
		WithLogFilter("sales", algebra.Neq(algebra.A("s.quantity"), algebra.C(0))),
		WithLogFilter("customer", algebra.Eq(algebra.A("c.score"), algebra.C("High"))),
	)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestLogFilterLifecycle(t *testing.T) {
	for _, sc := range []Scenario{BaseLogs, Combined} {
		m := filteredRetail(t, sc)
		steps := []txn.Txn{
			txn.Insert("sales", bag.Of(saleRow(0, 1, 2), saleRow(0, 2, 0))), // one relevant, one irrelevant
			txn.Insert("sales", bag.Of(saleRow(1, 3, 0))),                   // all irrelevant (Low cust is still logged — filter is per-table)
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
	logIns, _ := m.DB().Bag(v.logIns["sales"])
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
	pred := v.logFilter["sales"]
	logDel, _ := db.Bag(v.logDel["sales"])
	logIns, _ := db.Bag(v.logIns["sales"])
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

func TestLogFilterValidation(t *testing.T) {
	db, def := retailDB(t)

	// Filter on a table the view does not reference.
	m := NewManager(db)
	sch := schema.NewSchema(schema.Col("x", schema.TInt))
	if _, err := db.Create("other", sch, storage.External); err != nil {
		t.Fatal(err)
	}
	if _, err := m.DefineView("v1", def, BaseLogs,
		WithLogFilter("other", algebra.Gt(algebra.A("x"), algebra.C(0)))); err == nil {
		t.Fatal("filter on unreferenced table accepted")
	}

	// Predicate that does not bind against the table schema.
	if _, err := m.DefineView("v2", def, BaseLogs,
		WithLogFilter("sales", algebra.Gt(algebra.A("nope"), algebra.C(0)))); err == nil {
		t.Fatal("unbindable filter accepted")
	}

	// Non-logging scenario.
	if _, err := m.DefineView("v3", def, Immediate,
		WithLogFilter("sales", algebra.Neq(algebra.A("s.quantity"), algebra.C(0)))); err == nil {
		t.Fatal("filter on Immediate view accepted")
	}

	// Shared logs.
	db2, def2 := retailDB(t)
	ms := NewManager(db2, WithSharedLogs())
	if _, err := ms.DefineView("v4", def2, Combined,
		WithLogFilter("sales", algebra.Neq(algebra.A("s.quantity"), algebra.C(0)))); err == nil {
		t.Fatal("filter with shared logs accepted")
	}

	// A filter that visibly changes the view on the current state:
	// filtering sales to quantity = 0 removes every view row.
	db3, def3 := retailDB(t)
	m3 := NewManager(db3)
	if _, err := m3.DefineView("v5", def3, BaseLogs,
		WithLogFilter("sales", algebra.Eq(algebra.A("s.quantity"), algebra.C(0)))); err == nil {
		t.Fatal("view-changing filter accepted")
	}
}
