package bench

import (
	"fmt"
	"time"

	"dvm/internal/bag"
	"dvm/internal/core"
)

// E11ReaderBlocking measures the downtime claim from the readers' side.
// Phase 1 measures each refresh variant's true exclusive-lock hold over
// the same pending-update volume. Phase 2 deterministically replays that
// hold under the view's write lock and measures the latency of a borrowed
// read (Manager.Read, which copies nothing — a Query adds a copy-on-write
// Clone, O(1)) that provably arrives at the start of the hold (channel handshake
// inside the critical section) — the stall a worst-case analyst
// experiences. The deterministic replay keeps the experiment meaningful
// on single-CPU machines, where racing reader goroutines mostly measure
// the scheduler.
func E11ReaderBlocking() (*Report, error) {
	const pending = 2000
	rep := &Report{
		ID:     "E11",
		Title:  "Reader blocking during refresh (worst-case analyst arriving at lock acquisition)",
		Notes:  "stall ≈ hold (a borrowed read copies nothing); Policy 2 shrinks the hold to the precomputed-delta apply",
		Header: []string{"variant", "refresh hold µs", "baseline query µs", "worst-case reader stall µs"},
	}

	type variant struct {
		name    string
		sc      core.Scenario
		prepare func(m *core.Manager) error
		refresh func(m *core.Manager) error
	}
	variants := []variant{
		{
			name:    "BL refresh (incremental under lock)",
			sc:      core.BaseLogs,
			prepare: func(*core.Manager) error { return nil },
			refresh: func(m *core.Manager) error { return m.Refresh("v0") },
		},
		{
			name:    "C Policy 2 (propagate first, partial refresh)",
			sc:      core.Combined,
			prepare: func(m *core.Manager) error { return m.Propagate("v0") },
			refresh: func(m *core.Manager) error { return m.PartialRefresh("v0") },
		},
	}

	for _, v := range variants {
		m, w, err := setupViews(1, v.sc, 31)
		if err != nil {
			return nil, err
		}
		if err := m.Execute(w.SalesBatch(pending)); err != nil {
			return nil, err
		}
		if err := v.prepare(m); err != nil {
			return nil, err
		}
		view, _ := m.View("v0")

		// Phase 1: the variant's true hold time.
		m.Locks().Reset()
		if err := v.refresh(m); err != nil {
			return nil, err
		}
		hold := m.Locks().Stats(view.MVTable()).MaxWriteHold

		// Baseline query latency with no contention.
		look := func(*bag.Bag) error { return nil } // the lock is what is timed
		qStart := time.Now()
		if err := m.Read("v0", look); err != nil {
			return nil, err
		}
		baseline := time.Since(qStart)

		// Phase 2: replay the hold; the reader arrives exactly as the
		// exclusive section begins.
		inside := make(chan struct{})
		done := make(chan error, 1)
		go func() {
			done <- m.Locks().WithWrite([]string{view.MVTable()}, func() error {
				close(inside)
				time.Sleep(hold)
				return nil
			})
		}()
		<-inside
		rStart := time.Now()
		if err := m.Read("v0", look); err != nil {
			return nil, err
		}
		stall := time.Since(rStart)
		if err := <-done; err != nil {
			return nil, err
		}

		rep.Rows = append(rep.Rows, []string{
			v.name,
			fmt.Sprint(hold.Microseconds()),
			fmt.Sprint(baseline.Microseconds()),
			fmt.Sprint(stall.Microseconds()),
		})
	}
	return rep, nil
}
