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
	"dvm/internal/storage"
	"dvm/internal/txn"
)

// TestQueryResultsAreSnapshots: reader goroutines hold Query and
// whole-view QueryFresh results while one writer runs every kind of MV
// write — makesafe_IM and makesafe_C in Execute, Propagate,
// PartialRefresh, Refresh on all four scenarios, RefreshRecompute. A
// result is a copy-on-write handle on MV, so it must keep the value it
// had when read (or after the reader's own change to it), whatever the
// writer does next; and a reader's Add or Clear on its result must never
// reach MV, which CheckInvariant and a final CheckConsistent would
// catch. The views hold some 200 rows against writes of a few, so the
// writer prepares them by bag.Prepare's rule: each goes two-level, has
// its overlay copied, and is folded into one map again, over and over,
// while readers hold results sharing the base, the overlay or both, and
// Clear or write their own. Run under -race it also checks that sharing
// MV's maps with readers adds no data race.
func TestQueryResultsAreSnapshots(t *testing.T) {
	db, def := retailDB(t)
	if err := txn.Insert("sales", highSales(0, 200)).Apply(db); err != nil {
		t.Fatal(err)
	}
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
				var b *bag.Bag
				var err error
				if i%5 == 2 {
					b, err = s.QueryFresh(v, nil)
				} else {
					b, err = s.Query(v)
				}
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

// TestMVCopyIsPaidOutsideTheLock proves, without a clock, that what a
// Query leaves owing is paid by the writer before it takes MV's
// exclusive lock, and that the write under the lock copies no entry.
// The proof is a reader holding MV's shared lock: while it does, the
// writer cannot be inside its exclusive section, so every entry counted
// as copied before the reader lets go was copied outside the lock, and
// any counted after it under the lock. Each case runs six epochs of
// three Queries and one write, so MV goes two-level, has its overlay
// copied, and is folded back into one map (bag.Prepare's rule); a twin
// manager run without a reader says how many entries each epoch's write
// copies in all, and all of them must be counted while the reader holds
// the lock.
func TestMVCopyIsPaidOutsideTheLock(t *testing.T) {
	const epochs = 6
	insert := func(m *Manager, e int) error { return m.Execute(txn.Insert("sales", bag.Of(saleRow(0, 50+e, 1)))) }
	refresh := func(m *Manager, _ int) error { return m.Refresh("hv") }
	partial := func(m *Manager, _ int) error { return m.PartialRefresh("hv") }
	propagate := func(m *Manager, _ int) error { return m.Propagate("hv") }
	for _, tc := range []struct {
		name   string
		sc     Scenario
		prep   []func(*Manager, int) error
		write  func(*Manager, int) error
		copies bool // whether any epoch's write copies entries at all
	}{
		{"makesafe_IM", Immediate, nil, insert, true},
		{"refresh_BL", BaseLogs, []func(*Manager, int) error{insert}, refresh, true},
		{"refresh_DT", DiffTables, []func(*Manager, int) error{insert}, refresh, true},
		{"partial_refresh_DT", DiffTables, []func(*Manager, int) error{insert}, partial, true},
		{"partial_refresh_C", Combined, []func(*Manager, int) error{insert, propagate}, partial, true},
		{"refresh_C", Combined, []func(*Manager, int) error{insert}, refresh, true},
		// Nothing pending: nothing to copy, before the lock or under it.
		{"empty partial_refresh_C", Combined, nil, partial, false},
		// A recompute installs a new bag: the shared one is dropped, not copied.
		{"RefreshRecompute", Combined, []func(*Manager, int) error{insert}, func(m *Manager, _ int) error { return m.RefreshRecompute("hv") }, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			setup := func() *Manager {
				db, def := retailDB(t)
				m := NewManager(db)
				if _, err := m.DefineView("hv", def, tc.sc); err != nil {
					t.Fatal(err)
				}
				return m
			}
			// epoch runs epoch e's preparation and its three Queries.
			epoch := func(m *Manager, e int) []*bag.Bag {
				for _, f := range tc.prep {
					if err := f(m, e); err != nil {
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
				return snaps
			}
			twin, want, total := setup(), make([]uint64, epochs), uint64(0)
			for e := range want {
				epoch(twin, e)
				c0 := bag.CopiedEntries()
				if err := tc.write(twin, e); err != nil {
					t.Fatal(err)
				}
				want[e] = bag.CopiedEntries() - c0
				total += want[e]
			}
			if (total > 0) != tc.copies {
				t.Fatalf("the epochs' writes copy %v entries in all", want)
			}

			m := setup()
			for e := range want {
				snaps := epoch(m, e)
				before := snaps[0].String()
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
				c0 := bag.CopiedEntries()
				written := make(chan error, 1)
				go func() { written <- tc.write(m, e) }()
				deadline := time.After(10 * time.Second)
				for bag.CopiedEntries()-c0 < want[e] {
					select {
					case err := <-written:
						t.Fatalf("epoch %d: the write returned (%v) while a reader held MV's shared lock", e, err)
					case <-deadline:
						t.Fatalf("epoch %d: %d of %d entries copied while a reader held the lock: the rest wait for the exclusive lock", e, bag.CopiedEntries()-c0, want[e])
					case <-time.After(time.Millisecond):
					}
				}
				outside := bag.CopiedEntries() - c0
				close(release)
				if err := <-written; err != nil {
					t.Fatal(err)
				}
				if err := <-readErr; err != nil {
					t.Fatal(err)
				}
				if under := bag.CopiedEntries() - c0 - outside; outside != want[e] || under != 0 {
					t.Fatalf("epoch %d: %d entries copied before the exclusive lock (want %d), %d under it (want 0)", e, outside, want[e], under)
				}
				for _, s := range snaps {
					if s.String() != before {
						t.Fatalf("epoch %d: a Query result changed under the write: %s, was %s", e, s, before)
					}
				}
				if err := m.CheckInvariant("hv"); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// TestFreshReadsCopyOnlyTheDifferential: a fresh read — ReadFresh, or
// QueryFresh collecting it — copies no more entries than the pending
// differential holds, and neither does the refresh that follows it.
// ReadFresh and a sliced QueryFresh only read MV; a whole-view QueryFresh
// is a Clone of MV given the differential, which marks MV, and the
// refresh then owes what bag.Prepare's rule says, not a copy of MV.
func TestFreshReadsCopyOnlyTheDifferential(t *testing.T) {
	for _, sc := range []Scenario{Immediate, BaseLogs, DiffTables, Combined} {
		db, def := retailDB(t)
		m := NewManager(db)
		if _, err := m.DefineView("hv", def, sc); err != nil {
			t.Fatal(err)
		}
		if err := m.Execute(txn.Insert("sales", highSales(0, 40))); err != nil {
			t.Fatal(err)
		}
		if err := m.Refresh("hv"); err != nil {
			t.Fatal(err)
		}
		if err := m.Execute(txn.Insert("sales", bag.Of(saleRow(0, 50, 1), saleRow(2, 51, 2)))); err != nil {
			t.Fatal(err)
		}
		c0 := bag.CopiedEntries()
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
		// A Combined view's log is folded by now: the differential is what
		// the reads applied and what the refresh will.
		v := m.views["hv"]
		diff := uint64(v.diffVolume() + v.logVolume())
		reads := bag.CopiedEntries() - c0
		if err := m.Refresh("hv"); err != nil {
			t.Fatal(err)
		}
		refresh := bag.CopiedEntries() - c0 - reads
		if reads > diff || refresh > diff {
			t.Fatalf("%v: fresh reads copied %d entries and the refresh %d, want at most the %d of the differential", sc, reads, refresh, diff)
		}
		if err := m.CheckConsistent("hv"); err != nil {
			t.Fatal(err)
		}
	}
}

// TestQueriedRefreshCopiesGrowWithTheChange counts, without a clock,
// what a Query before every refresh costs a Combined view over 40
// epochs in which a fixed Δ = 20 tuples change (10 deleted, 10
// inserted). Were MV copied at each refresh, the entries copied per
// epoch would grow as |MV|; written as a frozen base under an overlay
// (bag.Prepare), they grow at most as √|MV| — a fold every √(2·|MV|/Δ)
// epochs or so — so 10x the view may copy at most 4x the entries
// (√10 ≈ 3.2), and at |MV|/Δ = 100 the 40 epochs copy at most a quarter
// of what 40 copies of MV would.
func TestQueriedRefreshCopiesGrowWithTheChange(t *testing.T) {
	const epochs, delta = 40, 20
	copiedOver := func(rows int) uint64 {
		db := storage.NewDatabase()
		sch := schema.NewSchema(schema.Col("r.k", schema.TInt), schema.Col("r.v", schema.TInt))
		r, err := db.Create("r", sch, storage.External)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < rows; i++ {
			if err := r.Insert(schema.Row(i, i%7), 1); err != nil {
				t.Fatal(err)
			}
		}
		def, err := algebra.NewSelect(algebra.Neq(algebra.A("r.v"), algebra.C(-1)), algebra.NewBase("r", sch))
		if err != nil {
			t.Fatal(err)
		}
		m := NewManager(db)
		if _, err := m.DefineView("v", def, Combined); err != nil {
			t.Fatal(err)
		}
		c0 := bag.CopiedEntries()
		for e := 0; e < epochs; e++ {
			del, ins := bag.New(), bag.New()
			for i := 0; i < delta/2; i++ {
				del.Add(schema.Row(e*delta/2+i, (e*delta/2+i)%7), 1)
				ins.Add(schema.Row(rows+e*delta/2+i, 0), 1)
			}
			if err := m.Execute(txn.Txn{"r": {Delete: del, Insert: ins}}); err != nil {
				t.Fatal(err)
			}
			if _, err := m.Query("v"); err != nil {
				t.Fatal(err)
			}
			if err := m.Refresh("v"); err != nil {
				t.Fatal(err)
			}
		}
		if err := m.CheckConsistent("v"); err != nil {
			t.Fatal(err)
		}
		return bag.CopiedEntries() - c0
	}
	small, large := copiedOver(100*delta), copiedOver(1000*delta)
	t.Logf("%d epochs of Δ = %d: %d entries copied at |MV| = %d, %d at |MV| = %d", epochs, delta, small, 100*delta, large, 1000*delta)
	if large > 4*small {
		t.Errorf("10x the view copied %.1fx the entries, want at most 4x", float64(large)/float64(small))
	}
	if limit := uint64(epochs * 100 * delta / 4); small > limit {
		t.Errorf("at |MV|/Δ = 100 the epochs copied %d entries, want at most a quarter of %d MV copies' %d", small, epochs, 4*limit)
	}
}
