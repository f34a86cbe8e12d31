package core

import (
	"sync"
	"testing"

	"dvm/internal/bag"
	"dvm/internal/txn"
)

// TestSerializedConcurrentStress hammers a Serialized manager with
// concurrent writers (transactions + maintenance) and readers, then
// checks the invariant and final consistency. Run with -race to verify
// synchronization.
func TestSerializedConcurrentStress(t *testing.T) {
	db, def := retailDB(t)
	s := NewSerialized(NewManager(db))
	if _, err := s.Manager().DefineView("hv", def, Combined); err != nil {
		t.Fatal(err)
	}

	const (
		writers   = 3
		readers   = 3
		perWorker = 30
	)
	var wg sync.WaitGroup
	errs := make(chan error, writers+readers)

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				tx := txn.Insert("sales", bag.Of(saleRow((id*7+i)%10, 100*id+i, 1+i%3)))
				if err := s.Execute(tx); err != nil {
					errs <- err
					return
				}
				switch i % 10 {
				case 3:
					if err := s.Propagate("hv"); err != nil {
						errs <- err
						return
					}
				case 6:
					if err := s.PartialRefresh("hv"); err != nil {
						errs <- err
						return
					}
				case 9:
					if err := s.Refresh("hv"); err != nil {
						errs <- err
						return
					}
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				if _, err := s.Query("hv"); err != nil {
					errs <- err
					return
				}
				if i%5 == 0 {
					if _, err := s.QueryFresh("hv", nil); err != nil {
						errs <- err
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	if err := s.CheckInvariant("hv"); err != nil {
		t.Fatal(err)
	}
	if err := s.Refresh("hv"); err != nil {
		t.Fatal(err)
	}
	if err := s.CheckConsistent("hv"); err != nil {
		t.Fatal(err)
	}
	if n := stat(s.Manager(), "makesafe_ns", "hv"); n != writers*perWorker {
		t.Fatalf("lost transactions: %d ops, want %d", n, writers*perWorker)
	}
}

func TestSerializedRecompute(t *testing.T) {
	db, def := retailDB(t)
	s := NewSerialized(NewManager(db))
	if _, err := s.Manager().DefineView("hv", def, BaseLogs); err != nil {
		t.Fatal(err)
	}
	if err := s.Execute(txn.Insert("sales", bag.Of(saleRow(0, 1, 1)))); err != nil {
		t.Fatal(err)
	}
	if err := s.RefreshRecompute("hv"); err != nil {
		t.Fatal(err)
	}
	if err := s.CheckConsistent("hv"); err != nil {
		t.Fatal(err)
	}
}
