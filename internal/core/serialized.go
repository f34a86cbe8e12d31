package core

import (
	"sync"

	"dvm/internal/algebra"
	"dvm/internal/bag"
	"dvm/internal/schema"
	"dvm/internal/txn"
)

// Serialized makes a Manager safe for concurrent use — a first answer to
// the paper's Section 7 question about concurrency control with
// materialized views. Writers (transactions and every maintenance
// operation) serialize behind one mutex, which is exactly the paper's
// model: transactions are functions from states to states, applied one
// at a time. Readers (Query) bypass the mutex entirely and synchronize
// only through the per-view reader/writer locks, so analyst queries run
// concurrently with each other and block only while a refresh holds a
// view's exclusive lock.
type Serialized struct {
	mu sync.Mutex
	m  *Manager
}

// NewSerialized wraps a manager. The wrapped manager must not be used
// directly afterwards.
func NewSerialized(m *Manager) *Serialized { return &Serialized{m: m} }

// Execute runs a user transaction through makesafe, serialized.
func (s *Serialized) Execute(t txn.Txn) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.m.Execute(t)
}

// Refresh brings a view up to date, serialized against other writers.
func (s *Serialized) Refresh(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.m.Refresh(name)
}

// Propagate folds a Combined view's log into its differential tables.
func (s *Serialized) Propagate(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.m.Propagate(name)
}

// PartialRefresh applies a view's precomputed differential tables.
func (s *Serialized) PartialRefresh(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.m.PartialRefresh(name)
}

// RefreshRecompute recomputes a view from scratch.
func (s *Serialized) RefreshRecompute(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.m.RefreshRecompute(name)
}

// CheckInvariant verifies a view's scenario invariant, serialized (it
// reads auxiliary state a concurrent writer could be mid-update on).
func (s *Serialized) CheckInvariant(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.m.CheckInvariant(name)
}

// CheckConsistent verifies Q ≡ MV, serialized.
func (s *Serialized) CheckConsistent(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.m.CheckConsistent(name)
}

// Query reads the view's materialized table under its shared lock.
// Concurrent with other readers; blocks only during a refresh's
// exclusive section.
func (s *Serialized) Query(name string) (*bag.Bag, error) {
	return s.m.Query(name)
}

// Read runs f over the view's live MV under its shared lock, copying
// nothing (see Manager.Read). Like Query it bypasses the mutex.
func (s *Serialized) Read(name string, f func(mv *bag.Bag) error) error {
	return s.m.Read(name, f)
}

// QueryFresh answers at the view's CURRENT value (see Manager.QueryFresh).
// Unlike Query it reads auxiliary tables a concurrent writer could be
// mid-update on, so it serializes with the writers.
func (s *Serialized) QueryFresh(name string, pred algebra.Predicate) (*bag.Bag, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.m.QueryFresh(name, pred)
}

// ReadFresh enumerates the view's CURRENT value to f without building it
// (see Manager.ReadFresh); like QueryFresh it serializes with the
// writers.
func (s *Serialized) ReadFresh(name string, pred algebra.Predicate, f func(t schema.Tuple, n int)) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.m.ReadFresh(name, pred, f)
}

// Manager exposes the wrapped manager for setup (DefineView etc.) BEFORE
// concurrent operation starts.
func (s *Serialized) Manager() *Manager { return s.m }
