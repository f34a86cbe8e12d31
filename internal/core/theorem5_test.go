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

// TestTheorem5RandomStreams is the paper's Theorem 5 as a property test:
// for random view definitions over the full bag algebra and random
// multi-table transaction streams, every makesafe_* is safe for INV_*,
// every refresh_* establishes Q ≡ MV, and propagate_C /
// partial_refresh_C meet their Hoare specifications — with the
// minimality invariants of Section 5.2 holding throughout.
func TestTheorem5RandomStreams(t *testing.T) {
	scenarios := []Scenario{Immediate, BaseLogs, DiffTables, Combined}
	for _, sc := range scenarios {
		sc := sc
		t.Run(sc.String(), func(t *testing.T) {
			r := rand.New(rand.NewSource(int64(sc) + 100))
			u := algebra.NewRandomUniverse(2)
			for trial := 0; trial < 40; trial++ {
				db := storage.NewDatabase()
				for _, name := range u.Tables {
					tb, err := db.Create(name, u.Sch, storage.External)
					if err != nil {
						t.Fatal(err)
					}
					for i, n := 0, r.Intn(8); i < n; i++ {
						if err := tb.Insert(schema.Row(r.Intn(4), r.Intn(4)), 1+r.Intn(2)); err != nil {
							t.Fatal(err)
						}
					}
				}
				def := u.RandomQuery(r, 3)
				m := NewManager(db)
				var opts []Option
				if trial%2 == 1 {
					opts = append(opts, WithStrongMinimality())
				}
				v, err := m.DefineView("v", def, sc, opts...)
				if err != nil {
					t.Fatalf("trial %d: define: %v\ndef=%s", trial, err, def)
				}

				for step := 0; step < 8; step++ {
					op := r.Intn(10)
					switch {
					case op < 6: // user transaction
						tx := txn.Txn{}
						for _, name := range u.Tables {
							if r.Intn(2) == 0 {
								continue
							}
							del, ins := u.RandomDelta(r)
							tx[name] = txn.Update{Delete: del, Insert: ins}
						}
						if len(tx) == 0 {
							tx = txn.Insert(u.Tables[0], bag.Of(schema.Row(r.Intn(4), r.Intn(4))))
						}
						// Every auxiliary update is the composition lemma.
						merged := expectMakesafe(t, m, v, tx)
						if err := m.Execute(tx); err != nil {
							t.Fatalf("trial %d step %d: execute: %v\ndef=%s", trial, step, err, def)
						}
						merged()
					case op < 7 && sc == Combined: // propagate
						merged := expectFold(t, m, v, db, "propagate_C")
						if err := m.Propagate("v"); err != nil {
							t.Fatalf("trial %d step %d: propagate: %v", trial, step, err)
						}
						merged()
					case op < 8 && (sc == Combined || sc == DiffTables): // partial refresh
						if err := m.PartialRefresh("v"); err != nil {
							t.Fatalf("trial %d step %d: partial: %v", trial, step, err)
						}
					default: // full refresh
						if err := m.Refresh("v"); err != nil {
							t.Fatalf("trial %d step %d: refresh: %v", trial, step, err)
						}
						if err := m.CheckConsistent("v"); err != nil {
							t.Fatalf("trial %d step %d (after refresh): %v\ndef=%s", trial, step, err, def)
						}
					}
					if err := m.CheckInvariant("v"); err != nil {
						t.Fatalf("trial %d step %d (op=%d): %v\ndef=%s", trial, step, op, err, def)
					}
				}

				// Final refresh must always converge to consistency.
				if err := m.Refresh("v"); err != nil {
					t.Fatalf("trial %d: final refresh: %v", trial, err)
				}
				if err := m.CheckConsistent("v"); err != nil {
					t.Fatalf("trial %d: final: %v\ndef=%s", trial, err, def)
				}
			}
		})
	}
}

// TestTheorem5MultiView runs several views with different scenarios over
// one shared transaction stream: makesafe must compose across views.
func TestTheorem5MultiView(t *testing.T) {
	r := rand.New(rand.NewSource(555))
	u := algebra.NewRandomUniverse(2)
	for trial := 0; trial < 15; trial++ {
		db := storage.NewDatabase()
		for _, name := range u.Tables {
			tb, err := db.Create(name, u.Sch, storage.External)
			if err != nil {
				t.Fatal(err)
			}
			for i, n := 0, r.Intn(6); i < n; i++ {
				if err := tb.Insert(schema.Row(r.Intn(4), r.Intn(4)), 1); err != nil {
					t.Fatal(err)
				}
			}
		}
		m := NewManager(db)
		scenarios := []Scenario{Immediate, BaseLogs, DiffTables, Combined}
		names := make([]string, len(scenarios))
		for i, sc := range scenarios {
			names[i] = fmt.Sprintf("v%d", i)
			if _, err := m.DefineView(names[i], u.RandomQuery(r, 2), sc); err != nil {
				t.Fatalf("trial %d: define v%d: %v", trial, i, err)
			}
		}
		for step := 0; step < 6; step++ {
			del, ins := u.RandomDelta(r)
			tx := txn.Txn{u.Tables[r.Intn(len(u.Tables))]: txn.Update{Delete: del, Insert: ins}}
			if err := m.Execute(tx); err != nil {
				t.Fatalf("trial %d step %d: %v", trial, step, err)
			}
			for _, n := range names {
				if err := m.CheckInvariant(n); err != nil {
					t.Fatalf("trial %d step %d view %s: %v", trial, step, n, err)
				}
			}
		}
		for _, n := range names {
			if err := m.Refresh(n); err != nil {
				t.Fatal(err)
			}
			if err := m.CheckConsistent(n); err != nil {
				t.Fatalf("trial %d view %s: %v", trial, n, err)
			}
		}
	}
}

// TestLemma4LogRelation checks the heart of Lemma 4 directly: after any
// sequence of makesafe_BL-extended transactions, evaluating PAST(L,Q) in
// the current state reproduces Q's value in the snapshot taken at log
// start, and ▲R ⊑ R holds.
func TestLemma4LogRelation(t *testing.T) {
	r := rand.New(rand.NewSource(777))
	u := algebra.NewRandomUniverse(2)
	for trial := 0; trial < 30; trial++ {
		db := storage.NewDatabase()
		for _, name := range u.Tables {
			tb, _ := db.Create(name, u.Sch, storage.External)
			for i, n := 0, r.Intn(6); i < n; i++ {
				if err := tb.Insert(schema.Row(r.Intn(4), r.Intn(4)), 1+r.Intn(2)); err != nil {
					t.Fatal(err)
				}
			}
		}
		def := u.RandomQuery(r, 3)
		m := NewManager(db)
		v, err := m.DefineView("v", def, BaseLogs)
		if err != nil {
			t.Fatal(err)
		}
		snap := db.Snapshot()
		qAtStart, err := algebra.Eval(def, snap)
		if err != nil {
			t.Fatal(err)
		}

		for step := 0; step < 5; step++ {
			tx := txn.Txn{}
			for _, name := range u.Tables {
				del, ins := u.RandomDelta(r)
				tx[name] = txn.Update{Delete: del, Insert: ins}
			}
			if err := m.Execute(tx); err != nil {
				t.Fatal(err)
			}

			past, err := m.PastExpr(v)
			if err != nil {
				t.Fatal(err)
			}
			p, err := algebra.Eval(past, db)
			if err != nil {
				t.Fatal(err)
			}
			if !p.Equal(qAtStart) {
				t.Fatalf("trial %d step %d: log does not reconstruct the past: PAST=%v want %v\ndef=%s",
					trial, step, p, qAtStart, def)
			}
			for _, b := range v.BaseTables() {
				ins := v.logs[b].add.Data()
				base, err := db.Bag(b)
				if err != nil {
					t.Fatal(err)
				}
				if !ins.SubBagOf(base) {
					t.Fatalf("trial %d step %d: ▲%s ⋢ %s (Lemma 4 violated)", trial, step, b, b)
				}
			}
		}
	}
}
