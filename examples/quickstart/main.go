// Quickstart: define a deferred materialized view over two tables,
// update the base tables, watch the view go stale, and refresh it with
// the paper's post-update incremental algorithm — all through the
// library's Go API (no SQL).
package main

import (
	"fmt"
	"log"

	"dvm/internal/algebra"
	"dvm/internal/bag"
	"dvm/internal/core"
	"dvm/internal/schema"
	"dvm/internal/storage"
	"dvm/internal/txn"
)

func main() {
	// 1. A database with two external tables.
	db := storage.NewDatabase()
	userSch := schema.NewSchema(
		schema.Col("u.id", schema.TInt),
		schema.Col("u.name", schema.TString),
	)
	orderSch := schema.NewSchema(
		schema.Col("o.userId", schema.TInt),
		schema.Col("o.amount", schema.TFloat),
	)
	users, err := db.Create("users", userSch, storage.External)
	if err != nil {
		log.Fatal(err)
	}
	orders, err := db.Create("orders", orderSch, storage.External)
	if err != nil {
		log.Fatal(err)
	}
	check(users.Insert(schema.Row(1, "ann"), 1))
	check(users.Insert(schema.Row(2, "bob"), 1))
	check(orders.Insert(schema.Row(1, 10.0), 1))

	// 2. A view: big orders joined with their users.
	join, err := algebra.JoinOn(
		algebra.NewBase("users", userSch),
		algebra.NewBase("orders", orderSch),
		algebra.AndOf(
			algebra.Eq(algebra.A("u.id"), algebra.A("o.userId")),
			algebra.Gt(algebra.A("o.amount"), algebra.C(5.0)),
		))
	check(err)
	def, err := algebra.NewProject(
		[]string{"u.name", "o.amount"}, []string{"name", "amount"}, join)
	check(err)

	// 3. Register it under the Combined scenario (INV_C): cheap
	// per-transaction logging plus precomputable refresh.
	mgr := core.NewManager(db)
	if _, err := mgr.DefineView("bigOrders", def, core.Combined); err != nil {
		log.Fatal(err)
	}
	show(mgr, "initial view")

	// 4. A user transaction; the manager extends it with log upkeep.
	tx := txn.Insert("orders", bag.Of(
		schema.Row(2, 25.0),
		schema.Row(1, 3.0), // filtered out by the predicate
	))
	check(mgr.Execute(tx))
	show(mgr, "after insert (stale — deferred!)")

	// 5. Propagate changes into the differential tables (no downtime),
	// then refresh (applies the precomputed delta under the view lock).
	check(mgr.Propagate("bigOrders"))
	check(mgr.PartialRefresh("bigOrders"))
	show(mgr, "after propagate + partial refresh")

	// 6. The invariant machinery is available for auditing.
	if err := mgr.CheckInvariant("bigOrders"); err != nil {
		log.Fatal(err)
	}
	if err := mgr.CheckConsistent("bigOrders"); err != nil {
		log.Fatal(err)
	}
	fmt.Println("INV_C holds and the view is consistent. Done.")
}

func show(mgr *core.Manager, label string) {
	// Read lends the live view under its read lock; printing needs no copy.
	check(mgr.Read("bigOrders", func(mv *bag.Bag) error {
		fmt.Printf("%s: %s\n", label, mv)
		return nil
	}))
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
