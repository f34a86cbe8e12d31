package dvm_test

import (
	"testing"

	"dvm/internal/algebra"
	"dvm/internal/bag"
	"dvm/internal/core"
	"dvm/internal/storage"
	"dvm/internal/workload"
)

// compiledDay builds one manager over a freshly set-up retail state with
// the Example 1.1 view defined under scenario. Its maintenance runs the
// view's compiled pair program; the tests below check it against the
// reference — the tree-walking interpreter, algebra.Eval, over the view
// definition — so any divergence is a compiler or pipeline bug.
func compiledDay(t *testing.T, scenario core.Scenario, seed int64) (*core.Manager, *workload.Retail) {
	t.Helper()
	w := workload.NewRetail(workload.RetailConfig{
		Customers:    120,
		HighFraction: 0.25,
		InitialSales: 600,
		Items:        60,
		ZipfS:        1.2,
		Seed:         seed,
	})
	db := storage.NewDatabase()
	if err := w.Setup(db); err != nil {
		t.Fatal(err)
	}
	m := core.NewManager(db)
	def, err := w.ViewDef()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.DefineView("hv", def, scenario); err != nil {
		t.Fatal(err)
	}
	return m, w
}

// reference evaluates the view definition from scratch with the
// interpreter: Q's current value.
func reference(t *testing.T, m *core.Manager) *bag.Bag {
	t.Helper()
	v, err := m.View("hv")
	if err != nil {
		t.Fatal(err)
	}
	q, err := algebra.Eval(v.Def, m.DB())
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// checkMV requires MV ≡ Eval(Def): the postcondition of every refresh.
func checkMV(t *testing.T, m *core.Manager, when string) {
	t.Helper()
	want := reference(t, m)
	got, err := m.Query("hv")
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatalf("%s: MV = %v, the interpreter computes %v", when, got, want)
	}
}

// checkFresh requires QueryFresh ≡ Eval(Def) and leaves the invariant
// intact.
func checkFresh(t *testing.T, m *core.Manager, when string) {
	t.Helper()
	want := reference(t, m)
	got, err := m.QueryFresh("hv", nil)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatalf("%s: fresh answer = %v, the interpreter computes %v", when, got, want)
	}
	checkInvariant(t, m, when)
}

func checkInvariant(t *testing.T, m *core.Manager, when string) {
	t.Helper()
	if err := m.CheckInvariant("hv"); err != nil {
		t.Fatalf("%s: %v", when, err)
	}
}

// TestCompiledMatchesInterpretedScenarios drives a retail stream through
// the compiled pipeline under every maintenance scenario and checks it
// against the interpreter: the Figure 1 invariant after every step, the
// fresh answer at the end, and MV ≡ Eval(Def) after the refresh.
func TestCompiledMatchesInterpretedScenarios(t *testing.T) {
	scenarios := []struct {
		name string
		s    core.Scenario
	}{
		{"immediate", core.Immediate},
		{"baselogs", core.BaseLogs},
		{"difftables", core.DiffTables},
		{"combined", core.Combined},
	}
	for si, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			m, w := compiledDay(t, sc.s, int64(40+si))
			for tick := 1; tick <= 20; tick++ {
				if err := m.Execute(w.Basket(2, 6, 0.2)); err != nil {
					t.Fatal(err)
				}
				if tick%7 == 0 {
					flip, err := w.ScoreFlip()
					if err != nil {
						t.Fatal(err)
					}
					if err := m.Execute(flip); err != nil {
						t.Fatal(err)
					}
				}
				if sc.s == core.Combined && tick%5 == 0 {
					if err := m.Propagate("hv"); err != nil {
						t.Fatal(err)
					}
				}
				checkInvariant(t, m, "tick")
			}
			checkFresh(t, m, "end of day")
			if err := m.Refresh("hv"); err != nil {
				t.Fatal(err)
			}
			checkMV(t, m, "after refresh")
			checkInvariant(t, m, "after refresh")
		})
	}
}

// TestCompiledPoliciesMatchInterpreted runs the mixed retail day under
// each deferred-maintenance policy (1: propagate + refresh_C, 2:
// propagate + partial_refresh_C, 3: on-demand) against a Combined view,
// checking the invariant after every tick, the fresh answer against the
// interpreter every ten, and MV ≡ Eval(Def) after every refresh.
func TestCompiledPoliciesMatchInterpreted(t *testing.T) {
	policies := []struct {
		name string
		p    core.Policy
	}{
		{"policy1", core.Policy{PropagateEvery: 2, RefreshEvery: 10}},
		{"policy2", core.Policy{PropagateEvery: 2, RefreshEvery: 10, Partial: true}},
		{"policy3-ondemand", core.Policy{PropagateEvery: 2, OnDemand: true}},
	}
	for pi, pol := range policies {
		t.Run(pol.name, func(t *testing.T) {
			m, w := compiledDay(t, core.Combined, int64(70+pi))
			r, err := m.NewRunner("hv", pol.p)
			if err != nil {
				t.Fatal(err)
			}
			for tick := 1; tick <= 40; tick++ {
				if err := m.Execute(w.Basket(2, 6, 0.2)); err != nil {
					t.Fatal(err)
				}
				if tick%13 == 0 {
					flip, err := w.ScoreFlip()
					if err != nil {
						t.Fatal(err)
					}
					if err := m.Execute(flip); err != nil {
						t.Fatal(err)
					}
				}
				if err := r.Tick(); err != nil {
					t.Fatal(err)
				}
				checkInvariant(t, m, "tick")
				if !pol.p.OnDemand && tick%pol.p.RefreshEvery == 0 {
					// The tick's propagate emptied the log, so refresh_C and
					// partial_refresh_C alike leave MV ≡ Q.
					checkMV(t, m, "after the policy's refresh")
				}
				if tick%10 == 0 {
					checkFresh(t, m, "tick")
				}
			}
			if pol.p.OnDemand {
				if err := r.RefreshNow(); err != nil {
					t.Fatal(err)
				}
			} else if err := m.Refresh("hv"); err != nil {
				t.Fatal(err)
			}
			checkMV(t, m, "after the closing refresh")
			checkInvariant(t, m, "after the closing refresh")
		})
	}
}

// TestCompiledRecomputeAndPartial covers the remaining compiled entry
// points one by one: RefreshRecompute (full recompute via the compiled
// definition program) must land MV on the interpreter's answer, and
// PartialRefresh right after a Propagate must too.
func TestCompiledRecomputeAndPartial(t *testing.T) {
	m, w := compiledDay(t, core.Combined, 59)
	step := func() {
		t.Helper()
		if err := m.Execute(w.Basket(2, 6, 0.2)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 8; i++ {
		step()
	}
	if err := m.RefreshRecompute("hv"); err != nil {
		t.Fatal(err)
	}
	checkMV(t, m, "after recompute")
	for i := 0; i < 8; i++ {
		step()
	}
	if err := m.Propagate("hv"); err != nil {
		t.Fatal(err)
	}
	if err := m.PartialRefresh("hv"); err != nil {
		t.Fatal(err)
	}
	checkMV(t, m, "after partial refresh")
	checkInvariant(t, m, "after partial refresh")
}
