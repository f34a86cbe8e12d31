// Package goctx is a dvmlint fixture for the single-writer analyzer.
// Its cases are the bugs a goroutine brings into a lock-holding engine:
// spawning a helper that needs its caller's lock, or touching a table
// the spawner holds, runs with none of its locks. The engine starts no
// goroutine, so every go statement outside package main is flagged,
// the re-acquiring spawns (lines 65 and 80) and the pool's go included.
package goctx

import (
	"dvm/internal/bag"
	"dvm/internal/storage"
	"dvm/internal/txn"
)

// applyLocked stands for a helper that needs its caller's table locks.
func applyLocked() {}

// SpawnLockedDirect launches the contract helper directly: the
// goroutine starts with an empty lock set, so the contract is broken
// even if the spawner held every lock.
func SpawnLockedDirect(lm *txn.LockManager) error {
	return lm.WithWrite([]string{"mv_a"}, func() error {
		go applyLocked() // want: spawned goroutine calls *Locked
		return nil
	})
}

// SpawnLockedClosure captures the contract call in a spawned closure.
func SpawnLockedClosure() {
	go func() {
		applyLocked() // flagged at the go statement
	}()
}

// SpawnTouchesHeldTable spawns while holding mv_a's write lock and the
// goroutine reads mv_a lock-free: lexically "under" the lock, actually
// a race with every reader the lock protects.
func SpawnTouchesHeldTable(lm *txn.LockManager, db *storage.Database) error {
	return lm.WithWrite([]string{"mv_a"}, func() error {
		go func() { // want: touches mv_a while spawner holds its lock
			b, _ := db.Bag("mv_a")
			_ = b
		}()
		return nil
	})
}

// SpawnAppliesHeldTable spawns an in-place apply to the table whose
// lock the spawner holds: the write runs outside that lock.
func SpawnAppliesHeldTable(lm *txn.LockManager, db *storage.Database, d, a *bag.Bag) error {
	return lm.WithWrite([]string{"mv_a"}, func() error {
		tb, _ := db.Table("mv_a")
		go func() { // want: applies to mv_a while spawner holds its lock
			tb.Data().ApplyDelta(d, a)
		}()
		return nil
	})
}

// SpawnTouchesOtherTable touches a table the spawner does NOT hold:
// no inherited-lock illusion, so this spawn is clean here (the body
// takes its own lock).
func SpawnTouchesOtherTable(lm *txn.LockManager, db *storage.Database) error {
	return lm.WithWrite([]string{"mv_a"}, func() error {
		go func() {
			_ = lm.WithRead([]string{"base_b"}, func() error {
				b, _ := db.Bag("base_b")
				_ = b
				return nil
			})
		}()
		return nil
	})
}

// SpawnReacquires re-acquires inside the goroutine before touching the
// table the spawner held: the correct pattern, clean.
func SpawnReacquires(lm *txn.LockManager, db *storage.Database) error {
	return lm.WithWrite([]string{"mv_a"}, func() error {
		go func() {
			_ = lm.WithWrite([]string{"mv_a"}, func() error {
				b, _ := db.Bag("mv_a")
				_ = b
				return nil
			})
		}()
		return nil
	})
}

// submit is a worker-pool helper: the function value it receives runs
// in a goroutine (callgraph.go spawn-parameter analysis).
func submit(fn func()) {
	go fn()
}

// SpawnViaPool hands a closure touching the held table to the pool
// helper — same bug as the direct go statement, one call removed.
func SpawnViaPool(lm *txn.LockManager, db *storage.Database) error {
	return lm.WithWrite([]string{"mv_a"}, func() error {
		submit(func() { // want: handed to submit, touches held mv_a
			b, _ := db.Bag("mv_a")
			_ = b
		})
		return nil
	})
}

// lockFree touches mv_a with no lock of its own — fine when called
// synchronously under a lock, a race when spawned while it is held.
func lockFree(db *storage.Database) {
	b, _ := db.Bag("mv_a")
	_ = b
}

// SpawnNamedTouch spawns the named helper while holding its table.
func SpawnNamedTouch(lm *txn.LockManager, db *storage.Database) error {
	return lm.WithWrite([]string{"mv_a"}, func() error {
		lockFree(db)    // synchronous: inherits the held lock, clean
		go lockFree(db) // want: spawned: lock does not transfer
		return nil
	})
}
