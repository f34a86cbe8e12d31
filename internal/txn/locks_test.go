package txn

import (
	"errors"
	"sync"
	"testing"
	"time"

	"dvm/internal/obs"
	"dvm/internal/obs/trace"
)

func TestLockManagerWriteStats(t *testing.T) {
	lm := NewLockManager(obs.NewRegistry())
	err := lm.WithWrite([]string{"mv"}, func() error {
		time.Sleep(2 * time.Millisecond)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	s := lm.Stats("mv")
	if s.WriteHolds != 1 || s.WriteHoldTime <= 0 || s.MaxWriteHold <= 0 {
		t.Fatalf("stats = %+v", s)
	}
	if err := lm.WithWrite([]string{"mv"}, func() error { return errors.New("boom") }); err == nil {
		t.Fatal("error not propagated")
	}
	if lm.Stats("mv").WriteHolds != 2 {
		t.Fatal("failed section not counted")
	}
}

func TestLockManagerReadersBlockOnWriter(t *testing.T) {
	lm := NewLockManager(obs.NewRegistry())
	writerIn := make(chan struct{})
	release := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = lm.WithWrite([]string{"mv"}, func() error {
			close(writerIn)
			<-release
			return nil
		})
	}()
	<-writerIn
	readerDone := make(chan struct{})
	go func() {
		_ = lm.WithRead([]string{"mv"}, func() error { return nil })
		close(readerDone)
	}()
	select {
	case <-readerDone:
		t.Fatal("reader proceeded while writer held the lock")
	case <-time.After(5 * time.Millisecond):
	}
	close(release)
	select {
	case <-readerDone:
	case <-time.After(time.Second):
		t.Fatal("reader never unblocked")
	}
	wg.Wait()
	s := lm.Stats("mv")
	if s.ReadWaits != 1 || s.ReadWaitTime <= 0 {
		t.Fatalf("reader wait not recorded: %+v", s)
	}
}

func TestLockManagerConcurrentReaders(t *testing.T) {
	lm := NewLockManager(obs.NewRegistry())
	inside := make(chan struct{}, 2)
	proceed := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = lm.WithRead([]string{"mv"}, func() error {
				inside <- struct{}{}
				<-proceed
				return nil
			})
		}()
	}
	for i := 0; i < 2; i++ {
		select {
		case <-inside:
		case <-time.After(time.Second):
			t.Fatal("readers did not run concurrently")
		}
	}
	close(proceed)
	wg.Wait()
}

func TestLockManagerMultiTableOrdering(t *testing.T) {
	lm := NewLockManager(obs.NewRegistry())
	var wg sync.WaitGroup
	// Two writers locking the same pair in opposite order must not
	// deadlock thanks to sorted acquisition.
	for i := 0; i < 50; i++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			_ = lm.WithWrite([]string{"a", "b"}, func() error { return nil })
		}()
		go func() {
			defer wg.Done()
			_ = lm.WithWrite([]string{"b", "a"}, func() error { return nil })
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("deadlock between multi-table writers")
	}
}

func TestSortedUnique(t *testing.T) {
	got := sortedUnique([]string{"b", "a", "b", "a", "c"})
	if len(got) != 3 || got[0] != "a" || got[1] != "b" || got[2] != "c" {
		t.Fatalf("sortedUnique = %v", got)
	}
	if len(sortedUnique(nil)) != 0 {
		t.Fatal("sortedUnique(nil) should be empty")
	}
}

func TestStatsUnknownTable(t *testing.T) {
	r := obs.NewRegistry()
	lm := NewLockManager(r)
	if s := lm.Stats("never"); s != (LockStats{}) {
		t.Fatalf("unknown table stats = %+v", s)
	}
	if ms := r.Snapshot().Metrics; len(ms) != 0 {
		t.Fatalf("Stats of a never-locked table registered %v", ms)
	}
}

// TestOneTableSectionAllocatesNothing: an untraced one-table section —
// a SQL read of one view — copies and sorts no table list and builds no
// span attributes, so once the table's lock exists it allocates nothing,
// shared or exclusive.
func TestOneTableSectionAllocatesNothing(t *testing.T) {
	lm := NewLockManager(obs.NewRegistry())
	tables := []string{"mv"}
	read := func(*trace.Span) error { return nil }
	write := func(Held) error { return nil }
	_ = lm.WithReadSpan(tables, nil, read) // the first lock makes the table's lock and histograms
	if n := testing.AllocsPerRun(100, func() { _ = lm.WithReadSpan(tables, nil, read) }); n != 0 {
		t.Errorf("a one-table read section makes %v objects, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { _ = lm.WithWriteSpan(tables, nil, write) }); n != 0 {
		t.Errorf("a one-table write section makes %v objects, want 0", n)
	}
	if s := lm.Stats("mv"); s.ReadWaits != 102 || s.WriteHolds != 101 {
		t.Errorf("stats = %+v, want 102 read acquisitions and 101 exclusive holds", s)
	}
}
