package core

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"dvm/internal/algebra"
	"dvm/internal/bag"
	"dvm/internal/schema"
	"dvm/internal/txn"
)

// TestQueryResultsAreSnapshots: reader goroutines hold Query results
// while one writer runs every kind of MV write — makesafe_IM and
// makesafe_C in Execute, Propagate, PartialRefresh, Refresh on all four
// scenarios, RefreshRecompute. A result is a copy-on-write handle on MV,
// so it must keep the value it had when read (or after the reader's own
// change to it), whatever the writer does next; and a reader's Add or
// Clear on its result must never reach MV, which CheckInvariant and a
// final CheckConsistent would catch. Run under -race it also checks that
// sharing MV's map with readers adds no data race.
func TestQueryResultsAreSnapshots(t *testing.T) {
	db, def := retailDB(t)
	s := NewSerialized(NewManager(db))
	views := []string{"im", "bl", "dt", "c"}
	for i, sc := range []Scenario{Immediate, BaseLogs, DiffTables, Combined} {
		if _, err := s.Manager().DefineView(views[i], def, sc); err != nil {
			t.Fatal(err)
		}
	}
	// No customer 99 exists, so no view can hold this row.
	bogus := schema.Row(99, "nobody", "High", 0, 1)

	const (
		readers = 4
		reads   = 90  // Queries per reader
		steps   = 120 // writer operations, at least
		window  = 16  // results each reader holds at a time
	)
	var wg, rwg sync.WaitGroup
	errs := make(chan error, readers+1)
	readersDone := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(11))
		// The writer keeps going until every reader has finished, so all
		// the reads overlap writes.
		for i := 0; ; i++ {
			if i >= steps {
				select {
				case <-readersDone:
					return
				default:
				}
			}
			v := views[i/6%len(views)]
			var err error
			switch i % 6 {
			case 0, 1, 2:
				err = s.Execute(randomRetailTxn(rng))
			case 3:
				err = s.Propagate("c")
			case 4:
				if v == "c" || v == "dt" {
					err = s.PartialRefresh(v)
				} else {
					err = s.Refresh(v)
				}
			case 5:
				if i%4 == 1 {
					err = s.RefreshRecompute(v)
				} else {
					err = s.Refresh(v)
				}
			}
			if err != nil {
				errs <- fmt.Errorf("writer step %d on %s: %w", i, v, err)
				return
			}
		}
	}()
	for r := 0; r < readers; r++ {
		rwg.Add(1)
		go func(r int) {
			defer rwg.Done()
			type held struct {
				b    *bag.Bag
				want string
			}
			var hold []held
			check := func() error {
				for _, h := range hold {
					if got := h.b.String(); got != h.want {
						return fmt.Errorf("reader %d: a held result changed from %s to %s", r, h.want, got)
					}
				}
				return nil
			}
			for i := 0; i < reads; i++ {
				v := views[(r+i)%len(views)]
				b, err := s.Query(v)
				if err == nil && i%7 == 3 {
					// A reader's write reaching MV's map would leave MV's
					// size out of step with its contents.
					err = s.Read(v, func(mv *bag.Bag) error {
						n := 0
						mv.Each(func(_ schema.Tuple, c int) { n += c })
						if n != mv.Len() {
							return fmt.Errorf("MV holds %d tuples but counts %d", n, mv.Len())
						}
						return nil
					})
				}
				if err == nil && i%11 == 5 {
					n := 0
					err = s.ReadFresh(v, nil, func(_ schema.Tuple, c int) { n += c })
				}
				if err != nil {
					errs <- fmt.Errorf("reader %d on %s: %w", r, v, err)
					return
				}
				switch i % 3 {
				case 1:
					b.Add(bogus, 1)
				case 2:
					b.Clear()
				}
				hold = append(hold, held{b, b.String()})
				if len(hold) > window {
					hold = hold[1:]
				}
				if i%4 == 0 || i == reads-1 {
					if err := check(); err != nil {
						errs <- err
						return
					}
				}
			}
		}(r)
	}
	rwg.Wait()
	close(readersDone)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	for _, v := range views {
		if err := s.CheckInvariant(v); err != nil {
			t.Fatalf("%s after the run: %v", v, err)
		}
		if err := s.Read(v, func(mv *bag.Bag) error {
			if mv.Contains(bogus) {
				return fmt.Errorf("a reader's Add reached MV")
			}
			return nil
		}); err != nil {
			t.Fatalf("%s: %v", v, err)
		}
		if err := s.Refresh(v); err != nil {
			t.Fatal(err)
		}
		if err := s.CheckConsistent(v); err != nil {
			t.Fatalf("%s after a final refresh: %v", v, err)
		}
	}
}

// TestMVCopyIsPaidOutsideTheLock proves, without a clock, that the copy
// a Query leaves owing is paid by the writer before it takes MV's
// exclusive lock, and that the write under the lock copies nothing. The
// proof is a reader holding MV's shared lock: while it does, the writer
// cannot be inside its exclusive section, so every bag map copy counted
// before the reader lets go was taken outside the lock, and any copy
// counted after it was taken under the lock. Three Queries precede each
// write, and one copy is owed for all three.
func TestMVCopyIsPaidOutsideTheLock(t *testing.T) {
	insert := func(m *Manager) error { return m.Execute(txn.Insert("sales", bag.Of(saleRow(0, 50, 1)))) }
	for _, tc := range []struct {
		name   string
		sc     Scenario
		prep   []func(*Manager) error
		write  func(*Manager) error
		copies uint64
	}{
		{"makesafe_IM", Immediate, nil, insert, 1},
		{"refresh_BL", BaseLogs, []func(*Manager) error{insert}, func(m *Manager) error { return m.Refresh("hv") }, 1},
		{"refresh_DT", DiffTables, []func(*Manager) error{insert}, func(m *Manager) error { return m.Refresh("hv") }, 1},
		{"partial_refresh_DT", DiffTables, []func(*Manager) error{insert}, func(m *Manager) error { return m.PartialRefresh("hv") }, 1},
		{"partial_refresh_C", Combined, []func(*Manager) error{insert, func(m *Manager) error { return m.Propagate("hv") }},
			func(m *Manager) error { return m.PartialRefresh("hv") }, 1},
		{"refresh_C", Combined, []func(*Manager) error{insert}, func(m *Manager) error { return m.Refresh("hv") }, 1},
		// Nothing pending: nothing to copy, before the lock or under it.
		{"empty partial_refresh_C", Combined, nil, func(m *Manager) error { return m.PartialRefresh("hv") }, 0},
		// A recompute installs a new bag: the shared one is dropped, not copied.
		{"RefreshRecompute", Combined, []func(*Manager) error{insert}, func(m *Manager) error { return m.RefreshRecompute("hv") }, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			db, def := retailDB(t)
			m := NewManager(db)
			if _, err := m.DefineView("hv", def, tc.sc); err != nil {
				t.Fatal(err)
			}
			for _, f := range tc.prep {
				if err := f(m); err != nil {
					t.Fatal(err)
				}
			}
			var snaps []*bag.Bag
			for i := 0; i < 3; i++ {
				b, err := m.Query("hv")
				if err != nil {
					t.Fatal(err)
				}
				snaps = append(snaps, b)
			}
			want := snaps[0].String()

			holding, release := make(chan struct{}), make(chan struct{})
			readErr := make(chan error, 1)
			go func() {
				readErr <- m.Read("hv", func(*bag.Bag) error {
					close(holding)
					<-release
					return nil
				})
			}()
			<-holding
			c0 := bag.Copies()
			written := make(chan error, 1)
			go func() { written <- tc.write(m) }()
			deadline := time.After(10 * time.Second)
			for bag.Copies()-c0 < tc.copies {
				select {
				case err := <-written:
					t.Fatalf("the write returned (%v) while a reader held MV's shared lock", err)
				case <-deadline:
					t.Fatalf("%d of %d copies taken while a reader held the lock: the rest wait for the exclusive lock", bag.Copies()-c0, tc.copies)
				case <-time.After(time.Millisecond):
				}
			}
			outside := bag.Copies() - c0
			close(release)
			if err := <-written; err != nil {
				t.Fatal(err)
			}
			if err := <-readErr; err != nil {
				t.Fatal(err)
			}
			if under := bag.Copies() - c0 - outside; outside != tc.copies || under != 0 {
				t.Fatalf("copies: %d before the exclusive lock (want %d), %d under it (want 0)", outside, tc.copies, under)
			}

			for _, s := range snaps {
				if s.String() != want {
					t.Fatalf("a Query result changed under the write: %s, was %s", s, want)
				}
			}
			if err := m.CheckInvariant("hv"); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestFreshReadsMarkNothing: a fresh read — ReadFresh, or QueryFresh
// collecting it — reads MV without a Clone, so it leaves no copy owing:
// the refresh that follows copies nothing.
func TestFreshReadsMarkNothing(t *testing.T) {
	for _, sc := range []Scenario{Immediate, BaseLogs, DiffTables, Combined} {
		db, def := retailDB(t)
		m := NewManager(db)
		if _, err := m.DefineView("hv", def, sc); err != nil {
			t.Fatal(err)
		}
		if err := m.Execute(txn.Insert("sales", bag.Of(saleRow(0, 50, 1), saleRow(2, 51, 2)))); err != nil {
			t.Fatal(err)
		}
		c0 := bag.Copies()
		for _, pred := range []algebra.Predicate{nil, algebra.Eq(algebra.A("custId"), algebra.C(0))} {
			got, err := m.QueryFresh("hv", pred)
			if err != nil {
				t.Fatal(err)
			}
			seen := bag.New()
			if err := m.ReadFresh("hv", pred, func(tu schema.Tuple, n int) { seen.Add(tu, n) }); err != nil {
				t.Fatal(err)
			}
			if !seen.Equal(got) {
				t.Fatalf("%v: ReadFresh enumerates %v, QueryFresh answers %v", sc, seen, got)
			}
		}
		if err := m.Refresh("hv"); err != nil {
			t.Fatal(err)
		}
		if n := bag.Copies() - c0; n != 0 {
			t.Fatalf("%v: fresh reads and a refresh copied MV %d times, want 0", sc, n)
		}
		if err := m.CheckConsistent("hv"); err != nil {
			t.Fatal(err)
		}
	}
}
