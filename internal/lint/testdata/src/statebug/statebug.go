// Package statebug is a dvmlint fixture for the state-bug analyzer.
// The test configures this package as the core package and blesses the
// exported functions below, so each models one Figure-3 transaction
// shape: reads of a table after the same transaction applied its
// updates to it are the paper's Section 3 state bug.
package statebug

import (
	"dvm/internal/bag"
	"dvm/internal/storage"
	"dvm/internal/txn"
)

// RefreshThenRead applies assignments to mv_a and then reads it —
// post-update state where pre-update state is required.
func RefreshThenRead(db *storage.Database) {
	txn.ApplyAssignments(db, []txn.Assignment{{Table: "mv_a"}})
	b, _ := db.Bag("mv_a") // want: read after apply
	_ = b
}

// ReadThenRefresh reads the pre-update state first: the correct
// DEL/ADD ordering, clean.
func ReadThenRefresh(db *storage.Database) {
	b, _ := db.Bag("mv_a")
	_ = b
	txn.ApplyAssignments(db, []txn.Assignment{{Table: "mv_a"}})
}

// applyToLog buries the table write in a helper; the write summary
// still reaches the blessed caller.
func applyToLog(db *storage.Database) {
	tb, _ := db.Table("log_b")
	tb.Clear()
}

// HelperThenRead applies through a helper, then reads the same table.
func HelperThenRead(db *storage.Database) {
	applyToLog(db)
	b, _ := db.Bag("log_b") // want: read after helper applied
	_ = b
}

// DataAfterAdd mutates table contents through Data() and then reads
// the live bag of the same table.
func DataAfterAdd(db *storage.Database) {
	tb, _ := db.Table("mv_c")
	tb.Data().Add(nil, 1)
	_ = tb.Data() // want: read after apply
}

// DataAfterDelta applies a differential to table contents in place
// and then reads the live bag of the same table.
func DataAfterDelta(db *storage.Database, d, a *bag.Bag) {
	tb, _ := db.Table("mv_e")
	tb.Data().ApplyDelta(d, a)
	_ = tb.Data() // want: read after apply
}

// view carries a symbolic table name, as core's view structs do.
type view struct {
	mv string
}

// SymbolicThenRead applies to a symbolically named table and reads it
// back through the same expression.
func (v *view) SymbolicThenRead(db *storage.Database) {
	tb, _ := db.Table(v.mv)
	tb.Clear()
	b, _ := db.Bag(v.mv) // want: read after apply (symbolic key)
	_ = b
}

// DifferentTables applies to one table and reads another: clean.
func DifferentTables(db *storage.Database) {
	tb, _ := db.Table("mv_d")
	tb.Clear()
	b, _ := db.Bag("base_d")
	_ = b
}
