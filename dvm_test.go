package dvm_test

import (
	"testing"

	"dvm"
)

// TestPublicAPISQL exercises the library purely through the public
// package: the surface a downstream user sees.
func TestPublicAPISQL(t *testing.T) {
	e := dvm.NewEngine()
	script := `
		CREATE TABLE users (id INT, name STRING);
		CREATE TABLE orders (userId INT, amount FLOAT);
		INSERT INTO users VALUES (1, 'ann'), (2, 'bob');
		INSERT INTO orders VALUES (1, 10.0), (2, 3.0);
		CREATE MATERIALIZED VIEW big REFRESH DEFERRED COMBINED AS
			SELECT u.name, o.amount FROM users u, orders o
			WHERE u.id = o.userId AND o.amount > 5.0;
	`
	if _, err := e.ExecScript(script); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Exec(`INSERT INTO orders VALUES (2, 99.0)`); err != nil {
		t.Fatal(err)
	}
	r, err := e.Exec(`SELECT * FROM big`)
	if err != nil {
		t.Fatal(err)
	}
	if r.Rows.Len() != 1 {
		t.Fatalf("stale view should have 1 row, got %d", r.Rows.Len())
	}
	if _, err := e.Exec(`REFRESH big`); err != nil {
		t.Fatal(err)
	}
	r, _ = e.Exec(`SELECT * FROM big`)
	if r.Rows.Len() != 2 {
		t.Fatalf("refreshed view should have 2 rows, got %d", r.Rows.Len())
	}
	if _, err := e.Exec(`CHECK INVARIANT big`); err != nil {
		t.Fatal(err)
	}
}

// TestPublicAPIAlgebra exercises the Go-level API: database, algebra,
// transactions, scenarios, policies.
func TestPublicAPIAlgebra(t *testing.T) {
	db := dvm.NewDatabase()
	sch := dvm.NewSchema(dvm.Col("x", dvm.TInt), dvm.Col("tag", dvm.TString))
	tb, err := db.Create("events", sch, dvm.External)
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.Insert(dvm.Row(1, "a"), 1); err != nil {
		t.Fatal(err)
	}

	sel, err := dvm.NewSelect(dvm.Gt(dvm.A("x"), dvm.C(0)), dvm.NewBase("events", sch))
	if err != nil {
		t.Fatal(err)
	}
	mgr := dvm.NewManager(db)
	if _, err := mgr.DefineView("pos", sel, dvm.Combined, dvm.WithStrongMinimality()); err != nil {
		t.Fatal(err)
	}
	if err := mgr.Execute(dvm.Insert("events", dvm.BagOf(dvm.Row(5, "b"), dvm.Row(-1, "c")))); err != nil {
		t.Fatal(err)
	}
	if err := mgr.CheckInvariant("pos"); err != nil {
		t.Fatal(err)
	}

	runner, err := mgr.NewRunner("pos", dvm.Policy{PropagateEvery: 1, RefreshEvery: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := mgr.Execute(dvm.Insert("events", dvm.BagOf(dvm.Row(i+10, "t")))); err != nil {
			t.Fatal(err)
		}
		if err := runner.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	if err := mgr.Refresh("pos"); err != nil {
		t.Fatal(err)
	}
	if err := mgr.CheckConsistent("pos"); err != nil {
		t.Fatal(err)
	}
	view, err := mgr.Query("pos")
	if err != nil {
		t.Fatal(err)
	}
	// 1,5,10..13 are positive: 6 rows.
	if view.Len() != 6 {
		t.Fatalf("view = %v", view)
	}

	// Values, tuples, bags round-trip through the public aliases.
	if dvm.Int(3).Compare(dvm.Float(3)) != 0 {
		t.Fatal("cross-type numeric equality lost")
	}
	got, err := dvm.Eval(sel, db)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 6 {
		t.Fatalf("Eval via public API = %v", got)
	}
	if err := mgr.Execute(dvm.Delete("events", dvm.BagOf(dvm.Row(1, "a")))); err != nil {
		t.Fatal(err)
	}
	if err := mgr.CheckInvariant("pos"); err != nil {
		t.Fatal(err)
	}
}
