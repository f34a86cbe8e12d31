package core

import (
	"fmt"
	"math/rand"
	"testing"

	"dvm/internal/algebra"
	"dvm/internal/bag"
	"dvm/internal/schema"
	"dvm/internal/storage"
	"dvm/internal/txn"
)

// TestQueryFreshMatchesDirectEvaluation: for every scenario and random
// transaction streams, QueryFresh must return Q's CURRENT value even
// though MV is stale — and must leave MV untouched.
func TestQueryFreshMatchesDirectEvaluation(t *testing.T) {
	r := rand.New(rand.NewSource(4242))
	u := algebra.NewRandomUniverse(2)
	for _, sc := range []Scenario{Immediate, BaseLogs, DiffTables, Combined} {
		for trial := 0; trial < 10; trial++ {
			db := storage.NewDatabase()
			for _, name := range u.Tables {
				tb, _ := db.Create(name, u.Sch, storage.External)
				for i, n := 0, r.Intn(6); i < n; i++ {
					if err := tb.Insert(schema.Row(r.Intn(4), r.Intn(4)), 1); err != nil {
						t.Fatal(err)
					}
				}
			}
			def := u.RandomQuery(r, 3)
			m := NewManager(db)
			v, err := m.DefineView("v", def, sc)
			if err != nil {
				t.Fatal(err)
			}

			for step := 0; step < 5; step++ {
				del, ins := u.RandomDelta(r)
				tx := txn.Txn{u.Tables[r.Intn(len(u.Tables))]: txn.Update{Delete: del, Insert: ins}}
				if err := m.Execute(tx); err != nil {
					t.Fatal(err)
				}
				if sc == Combined && step == 2 {
					if err := m.Propagate("v"); err != nil {
						t.Fatal(err)
					}
				}

				fresh, err := m.QueryFresh("v", nil)
				if err != nil {
					t.Fatalf("%v trial %d step %d: %v", sc, trial, step, err)
				}
				want, err := algebra.Eval(def, db)
				if err != nil {
					t.Fatal(err)
				}
				if !fresh.Equal(want) {
					t.Fatalf("%v trial %d step %d: fresh=%v want=%v\ndef=%s", sc, trial, step, fresh, want, def)
				}
				// MV untouched: the invariant still holds.
				if err := m.CheckInvariant("v"); err != nil {
					t.Fatalf("%v trial %d step %d: QueryFresh disturbed state: %v", sc, trial, step, err)
				}
			}
			_ = v
		}
	}
}

func TestQueryFreshWithPredicate(t *testing.T) {
	db, def := retailDB(t)
	m := NewManager(db)
	if _, err := m.DefineView("hv", def, Combined); err != nil {
		t.Fatal(err)
	}
	if err := m.Execute(txn.Insert("sales", bag.Of(saleRow(0, 77, 9)))); err != nil {
		t.Fatal(err)
	}
	// The stale MV does not have item 77; the fresh slice does.
	stale, _ := m.Query("hv")
	found := false
	stale.Each(func(tu schema.Tuple, _ int) {
		if tu[3].AsInt() == 77 {
			found = true
		}
	})
	if found {
		t.Fatal("MV unexpectedly fresh")
	}
	slice, err := m.QueryFresh("hv", algebra.Eq(algebra.A("itemNo"), algebra.C(77)))
	if err != nil {
		t.Fatal(err)
	}
	if slice.Len() != 1 {
		t.Fatalf("fresh slice = %v", slice)
	}
	// Bad predicate fails cleanly.
	if _, err := m.QueryFresh("hv", algebra.Eq(algebra.A("nothere"), algebra.C(1))); err == nil {
		t.Fatal("unbindable predicate accepted")
	}
	if _, err := m.QueryFresh("ghost", nil); err == nil {
		t.Fatal("missing view accepted")
	}
}

// TestQueryFreshDifferential drives one random retail stream through
// every combination of scenario × a sibling view × predicate and checks
// the fresh-read contract at each stop: QueryFresh(v, p) is σ_p of a
// from-scratch recompute and ReadFresh enumerates the same bag, the
// stale MV a plain Query sees is
// byte-identical before and after, the Figure 1 invariant still holds,
// the size gauges describe the folded state, and a second fresh read
// with no write in between does no join work.
//
// interp=true runs the same stream and seed checked against the
// interpreter at every step, not only at the stops: the Figure 1
// invariant after every transaction and propagate, and MV ≡ Eval(Def)
// after every refresh. shared=true defines a Combined sibling view over
// the same base tables first, so every makesafe appends to two views'
// logs and their joins probe the same base-table indexes. The subtest
// names keep their shards=1 component: the one layout there is.
func TestQueryFreshDifferential(t *testing.T) {
	slice := algebra.Eq(algebra.A("custId"), algebra.C(2))
	for _, sc := range []Scenario{Immediate, BaseLogs, DiffTables, Combined} {
		for _, interp := range []bool{false, true} {
			for _, sibling := range []bool{false, true} {
				for _, pred := range []algebra.Predicate{nil, slice} {
					name := fmt.Sprintf("%v/interp=%v/shards=1/shared=%v/slice=%v", sc, interp, sibling, pred != nil)
					t.Run(name, func(t *testing.T) {
						checkFreshReads(t, sc, pred, interp, sibling)
					})
				}
			}
		}
	}
}

// checkFreshReads runs TestQueryFreshDifferential's stream; everyStep
// additionally checks the invariant after every step and MV ≡ Eval(Def)
// after every refresh, and sibling defines the sibling view.
func checkFreshReads(t *testing.T, sc Scenario, pred algebra.Predicate, everyStep, sibling bool) {
	db, def := retailDB(t)
	m := NewManager(db)
	if sibling {
		if _, err := m.DefineView("sib", def, Combined); err != nil {
			t.Fatal(err)
		}
	}
	v, err := m.DefineView("hv", def, sc)
	if err != nil {
		t.Fatal(err)
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	step := func(err error) {
		t.Helper()
		must(err)
		if everyStep {
			must(m.CheckInvariant("hv"))
		}
	}
	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 4; round++ {
		for i := 0; i < 4; i++ {
			step(m.Execute(randomRetailTxn(rng)))
		}
		// Leave part of the backlog in the differential tables and part in
		// the log, and make MV itself move between rounds.
		if sc == Combined && round%2 == 1 {
			step(m.Propagate("hv"))
			step(m.Execute(randomRetailTxn(rng)))
		}
		if round == 2 {
			step(m.Refresh("hv"))
			if everyStep {
				must(m.CheckConsistent("hv"))
			}
			step(m.Execute(randomRetailTxn(rng)))
		}

		stale, err := m.Query("hv")
		must(err)
		got, err := m.QueryFresh("hv", pred)
		must(err)
		want, err := algebra.Eval(def, db)
		must(err)
		if pred != nil {
			fn, err := pred.Bind(def.Schema())
			must(err)
			want = bag.Select(want, fn)
		}
		if !got.Equal(want) {
			t.Fatalf("round %d: fresh = %v, recompute = %v", round, got, want)
		}
		seen := bag.New()
		must(m.ReadFresh("hv", pred, func(tu schema.Tuple, n int) { seen.Add(tu, n) }))
		if !seen.Equal(want) {
			t.Fatalf("round %d: ReadFresh enumerates %v, recompute = %v", round, seen, want)
		}
		after, err := m.Query("hv")
		must(err)
		if stale.String() != after.String() {
			t.Fatalf("round %d: QueryFresh changed MV:\nbefore %v\nafter  %v", round, stale, after)
		}
		must(m.CheckInvariant("hv"))
		if sc == Combined {
			// The fold moved the whole log into ∇MV/△MV, and the gauges
			// \stats and the benchmark read say so.
			if l := v.met.logSizeTuples.Load(); l != 0 {
				t.Fatalf("round %d: log_size_tuples = %d after a fresh read, want 0", round, l)
			}
			if d, want := v.met.diffSizeTuples.Load(), int64(v.diffVolume()); d != want {
				t.Fatalf("round %d: diff_size_tuples = %d, tables hold %d", round, d, want)
			}
		}

		// Again, with no write in between: same answer, and nothing is
		// re-materialized or re-joined. (A BaseLogs view has no
		// differential tables to keep a fold in, so it alone re-evaluates
		// ▼(L,Q)/▲(L,Q) per read — the scenario's price, not a leak.)
		probes := v.met.indexProbeTuples.Load()
		again, err := m.QueryFresh("hv", pred)
		must(err)
		if !again.Equal(want) {
			t.Fatalf("round %d: second fresh read = %v, want %v", round, again, want)
		}
		if d := v.met.indexProbeTuples.Load() - probes; d != 0 && sc != BaseLogs {
			t.Fatalf("round %d: second fresh read probed %d index tuples, want 0", round, d)
		}
	}
	for _, name := range m.order {
		must(m.CheckInvariant(name))
		must(m.Refresh(name))
		must(m.CheckConsistent(name))
		must(m.CheckInvariant(name))
	}
}
