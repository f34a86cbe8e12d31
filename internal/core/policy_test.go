package core

import (
	"testing"

	"dvm/internal/bag"
	"dvm/internal/txn"
)

func policySetup(t *testing.T, sc Scenario) *Manager {
	t.Helper()
	db, def := retailDB(t)
	m := NewManager(db)
	if _, err := m.DefineView("hv", def, sc); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestPolicyValidation(t *testing.T) {
	m := policySetup(t, BaseLogs)
	if _, err := m.NewRunner("hv", Policy{PropagateEvery: 1, RefreshEvery: 4}); err == nil {
		t.Fatal("propagate policy on BL view accepted")
	}
	if _, err := m.NewRunner("hv", Policy{RefreshEvery: 4, Partial: true}); err == nil {
		t.Fatal("partial policy on BL view accepted")
	}
	if _, err := m.NewRunner("ghost", Policy{}); err == nil {
		t.Fatal("policy on missing view accepted")
	}
	mc := policySetup(t, Combined)
	if _, err := mc.NewRunner("hv", Policy{PropagateEvery: 8, RefreshEvery: 4}); err == nil {
		t.Fatal("k > m accepted")
	}
	if _, err := mc.NewRunner("hv", Policy{PropagateEvery: 2, RefreshEvery: 8}); err != nil {
		t.Fatalf("valid policy rejected: %v", err)
	}
}

func TestPolicy1Schedule(t *testing.T) {
	// Policy 1 (Example 5.4 scaled): propagate every k=2, refresh_C every
	// m=6. Over 12 ticks with one txn per tick: propagates at 2,4,8,10
	// (6 and 12 are subsumed by refresh), refreshes at 6 and 12.
	m := policySetup(t, Combined)
	r, err := m.NewRunner("hv", Policy{PropagateEvery: 2, RefreshEvery: 6})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		if err := m.Execute(txn.Insert("sales", bag.Of(saleRow(i%10, i, 1)))); err != nil {
			t.Fatal(err)
		}
		if err := r.Tick(); err != nil {
			t.Fatal(err)
		}
		if err := m.CheckInvariant("hv"); err != nil {
			t.Fatalf("tick %d: %v", i+1, err)
		}
		// At refresh ticks the view is fully consistent.
		if (i+1)%6 == 0 {
			if err := m.CheckConsistent("hv"); err != nil {
				t.Fatalf("tick %d: %v", i+1, err)
			}
		}
	}
	if n := stat(m, "propagate_ns", "hv"); n != 4 {
		t.Fatalf("Propagates = %d, want 4 (refresh ticks subsume their propagate)", n)
	}
	if n := stat(m, "refresh_ns", "hv"); n != 2 {
		t.Fatalf("Refreshes = %d, want 2", n)
	}
}

func TestPolicy2PartialRefresh(t *testing.T) {
	// Policy 2: refresh uses partial_refresh_C — view lags by at most k
	// ticks, downtime is minimal, and the view is generally NOT fully
	// consistent at refresh ticks (data between last propagate and now is
	// missing).
	m := policySetup(t, Combined)
	r, err := m.NewRunner("hv", Policy{PropagateEvery: 2, RefreshEvery: 4, Partial: true})
	if err != nil {
		t.Fatal(err)
	}
	sawStale := false
	for i := 0; i < 8; i++ {
		if err := m.Execute(txn.Insert("sales", bag.Of(saleRow(i%10, i, 1)))); err != nil {
			t.Fatal(err)
		}
		if err := r.Tick(); err != nil {
			t.Fatal(err)
		}
		if err := m.CheckInvariant("hv"); err != nil {
			t.Fatalf("tick %d: %v", i+1, err)
		}
		if (i+1)%4 == 0 {
			if err := m.CheckConsistent("hv"); err != nil {
				sawStale = true
			}
		}
	}
	if n := stat(m, "partial_refresh_ns", "hv"); n != 2 {
		t.Fatalf("PartialCount = %d, want 2", n)
	}
	if n := stat(m, "refresh_ns", "hv"); n != 0 {
		t.Fatalf("full refreshes = %d, want 0 under Policy 2", n)
	}
	// With propagate at tick 4 and partial refresh also at tick 4, the
	// view IS consistent there; but at most k ticks stale in general.
	// We only require that partial refresh never broke the invariant and
	// that a final full refresh converges.
	_ = sawStale
	if err := m.Refresh("hv"); err != nil {
		t.Fatal(err)
	}
	if err := m.CheckConsistent("hv"); err != nil {
		t.Fatal(err)
	}
}

func TestOnDemandPolicy(t *testing.T) {
	m := policySetup(t, Combined)
	r, err := m.NewRunner("hv", Policy{PropagateEvery: 1, RefreshEvery: 4, OnDemand: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if err := m.Execute(txn.Insert("sales", bag.Of(saleRow(i%10, i, 1)))); err != nil {
			t.Fatal(err)
		}
		if err := r.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	if stat(m, "refresh_ns", "hv") != 0 {
		t.Fatal("on-demand policy refreshed periodically")
	}
	if n := stat(m, "propagate_ns", "hv"); n != 8 {
		t.Fatalf("Propagates = %d, want 8", n)
	}
	// The demand arrives: refresh before querying.
	if err := r.RefreshNow(); err != nil {
		t.Fatal(err)
	}
	if err := m.CheckConsistent("hv"); err != nil {
		t.Fatal(err)
	}
}
