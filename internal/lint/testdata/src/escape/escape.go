// Package escape is a dvmlint fixture for the shared-state-escape
// analyzer. Its functions that take a txn.Held are locked regions, and
// the test configures this package as the core package, so its exported
// accessors fall under the internal-field-leak rule. A reference obtained under
// a lock (Database.Bag, Table.Data) aliases live table storage: it
// must be Clone()d before it crosses the region boundary.
package escape

import (
	"dvm/internal/bag"
	"dvm/internal/storage"
	"dvm/internal/txn"
)

// LeakViaOuter assigns the live bag to a variable that outlives the
// locked region: the caller reads lock-guarded state with no lock.
func LeakViaOuter(lm *txn.LockManager, db *storage.Database) *bag.Bag {
	var out *bag.Bag
	_ = lm.WithRead([]string{"mv_a"}, func() error {
		b, _ := db.Bag("mv_a")
		out = b // want: escapes to outer variable
		return nil
	})
	return out
}

// CloneUnderLock is the correct pattern (the Query pattern): the clone
// owns its tuples, so handing it out is clean.
func CloneUnderLock(lm *txn.LockManager, db *storage.Database) *bag.Bag {
	var out *bag.Bag
	_ = lm.WithRead([]string{"mv_a"}, func() error {
		b, _ := db.Bag("mv_a")
		out = b.Clone()
		return nil
	})
	return out
}

// sink is a field a locked region must not park live references in.
type sink struct {
	last *bag.Bag
}

// LeakViaField stores the live reference into a struct field.
func (s *sink) LeakViaField(lm *txn.LockManager, db *storage.Database) {
	_ = lm.WithWrite([]string{"mv_a"}, func() error {
		b, _ := db.Bag("mv_a")
		s.last = b // want: stored into a field
		return nil
	})
}

// LeakViaChannel sends the live reference to a receiver that runs
// outside the lock.
func LeakViaChannel(lm *txn.LockManager, db *storage.Database, ch chan *bag.Bag) {
	_ = lm.WithRead([]string{"mv_a"}, func() error {
		b, _ := db.Bag("mv_a")
		ch <- b // want: sent on a channel
		return nil
	})
}

// LeakViaGoroutine captures the live reference in a goroutine that
// runs after the region (single-writer: no go outside package main).
func LeakViaGoroutine(lm *txn.LockManager, db *storage.Database) {
	_ = lm.WithRead([]string{"mv_a"}, func() error {
		b, _ := db.Bag("mv_a")
		go func() { // want: captured by spawned goroutine
			_ = b.Len()
		}()
		return nil
	})
}

// grabLocked runs under its caller's lock (it takes a txn.Held); its
// whole body is the locked region, so returning the live bag hands the
// alias to whoever runs after the caller unlocks.
func grabLocked(_ txn.Held, db *storage.Database) *bag.Bag {
	tb, _ := db.Table("mv_a")
	return tb.Data() // want: returned out of the Locked region
}

// snapshotLocked is grabLocked done right: Clone before returning.
func snapshotLocked(_ txn.Held, db *storage.Database) *bag.Bag {
	tb, _ := db.Table("mv_a")
	return tb.Data().Clone()
}

// Use keeps the helpers referenced.
func Use(h txn.Held, db *storage.Database) {
	_ = grabLocked(h, db)
	_ = snapshotLocked(h, db)
}

// store models a core struct whose internals are lock-guarded.
type store struct {
	data  *bag.Bag
	index map[string]int
}

// Data returns the internal bag by reference: every caller bypasses
// the lock protocol.
func (s *store) Data() *bag.Bag {
	return s.data // want: exported accessor leaks internal bag
}

// Index returns the internal map by reference.
func (s *store) Index() map[string]int {
	return s.index // want: exported accessor leaks internal map
}

// AliasedData launders the field through a local before returning it;
// the def-use alias tracking still sees through it.
func (s *store) AliasedData() *bag.Bag {
	d := s.data
	return d // want: exported accessor leaks internal bag via alias
}

// Snapshot returns a clone: the caller owns it, clean.
func (s *store) Snapshot() *bag.Bag {
	return s.data.Clone()
}

// Count returns a scalar derived from the internals: clean.
func (s *store) Count() int {
	return s.data.Len()
}

// Manager models core.Manager: Read lends the live MV to f for the
// duration of the call.
type Manager struct {
	lm *txn.LockManager
	db *storage.Database
}

// Read is the borrowed read: f runs over the live bag under the lock.
func (m *Manager) Read(name string, f func(mv *bag.Bag) error) error {
	return m.lm.WithRead([]string{name}, func() error {
		b, err := m.db.Bag(name)
		if err != nil {
			return err
		}
		return f(b)
	})
}

// KeepBorrowed parks the lent bag in a variable that outlives the
// read: the Query mistake, without the Clone.
func KeepBorrowed(m *Manager) *bag.Bag {
	var out *bag.Bag
	_ = m.Read("mv_a", func(mv *bag.Bag) error {
		out = mv // want: lent bag escapes the borrowed read
		return nil
	})
	return out
}

// QueryPattern is Read + Clone: the caller owns the copy, clean; so is
// keeping a scalar derived from the lent bag.
func QueryPattern(m *Manager) (*bag.Bag, int) {
	var out *bag.Bag
	var n int
	_ = m.Read("mv_a", func(mv *bag.Bag) error {
		out = mv.Clone()
		n = mv.Len()
		return nil
	})
	return out, n
}
