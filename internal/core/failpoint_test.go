package core

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"dvm/internal/algebra"
	"dvm/internal/bag"
	"dvm/internal/obs/trace"
)

// failSteps are the maintenance operations a failpoint can fail, each
// run on the view hv (a DefineView defines nv beside it). A step that is
// not defined for a scenario (Propagate of a view without logs) returns
// an error of its own, and one that reaches no failpoint there (an
// Immediate view's Refresh) counts no hit: either is skipped.
var failSteps = []struct {
	name   string
	traced bool // the step finishes a trace of its own
	run    func(m *Manager) error
}{
	{"execute", true, func(m *Manager) error { return m.Execute(randomRetailTxn(rand.New(rand.NewSource(99)))) }},
	{"propagate", true, func(m *Manager) error { return m.Propagate("hv") }},
	{"refresh", true, func(m *Manager) error { return m.Refresh("hv") }},
	{"partial refresh", true, func(m *Manager) error { return m.PartialRefresh("hv") }},
	{"fresh read", false, func(m *Manager) error { _, err := m.QueryFresh("hv", nil); return err }},
	{"recompute", true, func(m *Manager) error { return m.RefreshRecompute("hv") }},
	{"define", false, func(m *Manager) error {
		_, err := m.DefineView("nv", m.views["hv"].Def, m.views["hv"].Scenario)
		return err
	}},
}

// siteNames names each failpoint after the function it sits in.
var siteNames = [...]string{sitePair: "evalPairs", siteFold: "foldLogLocked", siteLog: "evalLog", siteDef: "evalDef", siteDefine: "DefineView"}

// TestFailedEvaluationChangesNothing is Theorem 5's premise, that a
// maintenance transaction is atomic, at every failpoint of the evaluate
// phase. In each scenario it runs a short transaction stream and then
// each step that reaches a failpoint with the k-th hit of that
// failpoint failing, for every k the step reaches. The step must return
// the injected error within a deadline (a step that blocks has
// deadlocked on a lock its error path takes again), leave every base,
// MV, log and differential table and the registered views as a twin
// manager holds them before the step, keep CheckInvariant true, and end
// every span of the trace it finished. Cleared of the failpoint, the
// same step then succeeds, and after a Refresh each view equals its
// definition.
func TestFailedEvaluationChangesNothing(t *testing.T) {
	failed, runs := map[site]bool{}, 0
	for _, sc := range []Scenario{Immediate, BaseLogs, DiffTables, Combined} {
		for _, st := range failSteps {
			label := fmt.Sprintf("%s, %s", sc, st.name)
			hits := map[site]int{}
			m := failSetup(t, sc)
			m.fail = func(s site) error { hits[s]++; return nil }
			if err := within(t, label, func() error { return st.run(m) }); err != nil {
				continue // not a step of this scenario
			}
			for s := sitePair; s <= siteDefine; s++ {
				for k := 1; k <= hits[s]; k++ {
					failed[s] = true
					runs++
					checkFailedStep(t, fmt.Sprintf("%s, hit %d of %s failed", label, k, siteNames[s]), sc, st.traced, st.run, s, k)
				}
			}
		}
	}
	t.Logf("%d failed steps checked", runs)
	for s := sitePair; s <= siteDefine; s++ {
		if !failed[s] {
			t.Errorf("no step reached the failpoint in %s", siteNames[s])
		}
	}
}

// checkFailedStep fails the k-th hit of failpoint s in one run of step,
// and checks what the run left.
func checkFailedStep(t *testing.T, label string, sc Scenario, traced bool, step func(*Manager) error, s site, k int) {
	t.Helper()
	want, wantMeta := failState(t, failSetup(t, sc))
	m := failSetup(t, sc)
	injected := fmt.Errorf("failpoint %s, hit %d", siteNames[s], k)
	n := 0
	m.fail = func(at site) error {
		if at == s {
			if n++; n == k {
				return injected
			}
		}
		return nil
	}
	since := lastTraceID(m)
	if err := within(t, label, func() error { return step(m) }); !errors.Is(err, injected) {
		t.Errorf("%s: the step returned %v, want the injected error", label, err)
	}
	got, gotMeta := failState(t, m)
	if gotMeta != wantMeta {
		t.Errorf("%s: views are %s, were %s", label, gotMeta, wantMeta)
	}
	for name, b := range want {
		if g, ok := got[name]; !ok || !g.Equal(b) {
			t.Errorf("%s: table %s is %v, was %v", label, name, g, b)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("%s: table %s was left behind", label, name)
		}
	}
	for _, v := range m.Views() {
		if err := m.CheckInvariant(v.Name); err != nil {
			t.Errorf("%s: %v", label, err)
		}
	}
	finished := 0
	for _, tr := range m.Tracer().Last(64) {
		if tr.ID <= since {
			continue
		}
		finished++
		for _, sp := range openSpans(tr.Root) {
			t.Errorf("%s: span %s never ended", label, sp)
		}
	}
	if traced && finished == 0 {
		t.Errorf("%s: the step finished no trace", label)
	}
	if t.Failed() {
		return // a step that broke the state need not be retried
	}

	m.fail = nil
	if err := within(t, label+", retried", func() error { return step(m) }); err != nil {
		t.Errorf("%s: the retry failed: %v", label, err)
	}
	for _, v := range m.Views() {
		if err := within(t, label+", refreshed", func() error { return m.Refresh(v.Name) }); err != nil {
			t.Errorf("%s: refresh after the retry: %v", label, err)
		}
		if err := m.CheckConsistent(v.Name); err != nil {
			t.Errorf("%s: %v", label, err)
		}
	}
}

// failSetup is a manager with two views of sc over the retail tables,
// hv (the join) and sv (sales with a quantity), every trace sampled, and
// a short transaction stream run; a Combined view's logs are propagated
// half way, so its logs and differential tables both hold changes.
func failSetup(t *testing.T, sc Scenario) *Manager {
	t.Helper()
	db, def := retailDB(t)
	m := NewManager(db)
	m.Tracer().SampleAll()
	sales, err := db.Table("sales")
	if err != nil {
		t.Fatal(err)
	}
	sel, err := algebra.NewSelect(algebra.Neq(algebra.A("s.quantity"), algebra.C(0)), algebra.NewBase("sales", sales.Schema()))
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []struct {
		name string
		def  algebra.Expr
	}{{"hv", def}, {"sv", sel}} {
		if _, err := m.DefineView(d.name, d.def, sc); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(int64(sc) + 1))
	for i := 0; i < 4; i++ {
		if err := m.Execute(randomRetailTxn(rng)); err != nil {
			t.Fatal(err)
		}
		if i == 1 && sc == Combined {
			for _, name := range []string{"hv", "sv"} {
				if err := m.Propagate(name); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	return m
}

// failState is what a failed step must leave as it was: a copy of every
// table and the registered views.
func failState(t *testing.T, m *Manager) (map[string]*bag.Bag, string) {
	t.Helper()
	meta := fmt.Sprint(m.order)
	tables := map[string]*bag.Bag{}
	for _, name := range m.DB().Names() {
		b, err := m.DB().Bag(name)
		if err != nil {
			t.Fatal(err)
		}
		tables[name] = bag.UnionAll(b, bag.New())
	}
	return tables, meta
}

// within runs a step under the deadline every step meets in
// milliseconds: one that blocks past it has deadlocked, and the test
// stops there rather than at go test's timeout.
func within(t *testing.T, label string, step func() error) error {
	t.Helper()
	done := make(chan error, 1)
	go func() {
		defer func() {
			if r := recover(); r != nil {
				done <- fmt.Errorf("panic: %v", r)
			}
		}()
		done <- step()
	}()
	select {
	case err := <-done:
		return err
	case <-time.After(5 * time.Second):
		t.Fatalf("%s: deadlock: the step did not return in 5 s", label)
		return nil
	}
}

// lastTraceID is the ID of the newest finished trace, 0 if none.
func lastTraceID(m *Manager) uint64 {
	if last := m.Tracer().Last(1); len(last) > 0 {
		return last[0].ID
	}
	return 0
}

// openSpans names the spans of the tree under s that no End reached.
func openSpans(s *trace.Span) []string {
	var open []string
	if s.Dur == 0 {
		open = append(open, s.Name)
	}
	for _, c := range s.Children {
		open = append(open, openSpans(c)...)
	}
	return open
}
