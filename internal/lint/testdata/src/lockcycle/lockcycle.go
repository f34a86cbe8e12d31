// Package lockcycle is a dvmlint fixture for lock-order, which flags any
// nested acquisition — a two-lock cycle across helpers, a re-acquisition,
// a sorted nesting, a txn.Held helper's — and a forged txn.Held.
package lockcycle

import "dvm/internal/txn"

// LockAlphaThenBeta holds alpha while a helper acquires beta.
func LockAlphaThenBeta(lm *txn.LockManager) error {
	return lm.WithWrite([]string{"alpha"}, func() error {
		return acquireBeta(lm)
	})
}

// acquireBeta takes beta; reached with alpha held, this is the
// alpha -> beta half of the cycle.
func acquireBeta(lm *txn.LockManager) error {
	return lm.WithWrite([]string{"beta"}, func() error { return nil }) // want: cycle edge
}

// LockBetaThenAlpha holds beta while a helper acquires alpha — the
// opposing order.
func LockBetaThenAlpha(lm *txn.LockManager) error {
	return lm.WithWrite([]string{"beta"}, func() error {
		return acquireAlpha(lm)
	})
}

// acquireAlpha takes alpha; reached with beta held, this both inverts
// the sorted order and closes the cycle.
func acquireAlpha(lm *txn.LockManager) error {
	return lm.WithWrite([]string{"alpha"}, func() error { return nil }) // want: inversion + cycle edge
}

// Reacquire takes gamma while already holding it: LockManager mutexes
// are not reentrant, so this deadlocks on itself.
func Reacquire(lm *txn.LockManager) error {
	return lm.WithWrite([]string{"gamma"}, func() error {
		return lm.WithRead([]string{"gamma"}, func() error { return nil }) // want: self-reacquisition
	})
}

// NestedSorted nests acquisitions in sorted order with no opposing
// path: no deadlock yet, but a nesting all the same.
func NestedSorted(lm *txn.LockManager) error {
	return lm.WithWrite([]string{"t1"}, func() error {
		return lm.WithWrite([]string{"t2"}, func() error { return nil }) // want: nested
	})
}

// installHeld runs under its caller's write lock (it takes a txn.Held)
// and acquires another.
func installHeld(_ txn.Held, lm *txn.LockManager) error {
	return lm.WithRead([]string{"delta"}, func() error { return nil }) // want: nested
}

// Forge makes the proof without the lock, by a literal and by a var.
func Forge(lm *txn.LockManager) error {
	var zero txn.Held // want: forged txn.Held
	_ = installHeld(zero, lm)
	return installHeld(txn.Held{}, lm) // want: forged txn.Held
}

// Locked hands the Held its section received to a helper: clean.
func Locked(lm *txn.LockManager) error {
	return lm.WithWriteSpan([]string{"epsilon"}, nil, func(h txn.Held) error {
		return apply(h)
	})
}

// apply takes a txn.Held and acquires nothing: clean.
func apply(txn.Held) error { return nil }
