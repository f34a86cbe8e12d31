package txn

import (
	"sync"
	"testing"
	"time"

	"dvm/internal/obs"
)

// TestLockManagerOppositeOrderStress drives goroutines that acquire
// overlapping table sets declared in OPPOSITE orders. Because the
// manager sorts before acquiring (sortedUnique: the deadlock-freedom
// invariant, whatever order a call site lists its tables in), the
// schedule must complete — a deadlock trips the watchdog — and
// the shared counter below must be race-free under -race: writers on
// overlapping sets are mutually exclusive, and readers observe them
// only through the read locks.
func TestLockManagerOppositeOrderStress(t *testing.T) {
	lm := NewLockManager(obs.NewRegistry())
	const iters = 400

	// Shared state touched only under locks covering table "b", which
	// every set below includes: any unsorted acquisition that deadlocks
	// hangs the test; any lock hole is a -race report.
	counter := 0

	writerSets := [][]string{
		{"a", "b", "c"},
		{"c", "b", "a"}, // reverse declaration order
		{"b", "a"},
		{"c", "b"},
	}
	var wg sync.WaitGroup
	for _, set := range writerSets {
		wg.Add(1)
		go func(tables []string) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				err := lm.WithWrite(tables, func() error {
					counter++
					return nil
				})
				if err != nil {
					t.Errorf("WithWrite(%v): %v", tables, err)
					return
				}
			}
		}(set)
	}
	readerSets := [][]string{
		{"b", "a"},
		{"c", "b", "a"},
	}
	for _, set := range readerSets {
		wg.Add(1)
		go func(tables []string) {
			defer wg.Done()
			last := -1
			for i := 0; i < iters; i++ {
				err := lm.WithRead(tables, func() error {
					if counter < last {
						t.Errorf("counter went backwards: %d < %d", counter, last)
					}
					last = counter
					return nil
				})
				if err != nil {
					t.Errorf("WithRead(%v): %v", tables, err)
					return
				}
			}
		}(set)
	}

	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("deadlock: opposite-order acquisitions did not complete (sorted acquisition broken?)")
	}

	if want := len(writerSets) * iters; counter != want {
		t.Fatalf("counter = %d, want %d (lost updates imply a lock hole)", counter, want)
	}
}
