// Package invtouch is a dvmlint fixture for the invariant-touch
// analyzer. The test configures this package as the core package with
// Blessed = ["Execute", "RefreshView"].
package invtouch

import (
	"dvm/internal/bag"
	"dvm/internal/schema"
	"dvm/internal/storage"
	"dvm/internal/txn"
)

// Execute is blessed (makesafe entry point): mutation allowed.
func Execute(t *storage.Table) {
	t.Clear()
}

// RefreshView is blessed, including inside closures.
func RefreshView(t *storage.Table, b *bag.Bag) {
	apply := func() { t.Replace(b) }
	apply()
}

// Rogue clears a maintained table outside the blessed entry points.
func Rogue(t *storage.Table) {
	t.Clear() // want: Table.Clear outside blessed
}

// RogueReplace swaps table contents outside the blessed entry points.
func RogueReplace(t *storage.Table, b *bag.Bag) {
	t.Replace(b) // want: Table.Replace outside blessed
}

// RogueInsert writes a tuple outside the blessed entry points.
func RogueInsert(t *storage.Table, tu schema.Tuple) error {
	return t.Insert(tu, 1) // want: Table.Insert outside blessed
}

// RogueData mutates live table contents through Data().
func RogueData(t *storage.Table, tu schema.Tuple) {
	t.Data().Add(tu, 1) // want: Bag.Add on table contents outside blessed
}

// RogueDelta applies a differential to live table contents in place.
func RogueDelta(t *storage.Table, d, a *bag.Bag) {
	t.Data().ApplyDelta(d, a) // want: Bag.ApplyDelta on table contents outside blessed
}

// RogueAssigns applies algebraic assignments outside the blessed
// entry points.
func RogueAssigns(db *storage.Database, as []txn.Assignment) {
	_ = txn.ApplyAssignments(db, as) // want: ApplyAssignments outside blessed
}

// LocalBag mutates a scratch bag, not table contents: allowed.
func LocalBag(tu schema.Tuple) *bag.Bag {
	b := bag.New()
	b.Add(tu, 1)
	return b
}

// Reader only reads: allowed.
func Reader(t *storage.Table) int {
	return t.Len()
}
