package core

import (
	"fmt"
	"math/rand"
	"testing"

	"dvm/internal/algebra"
	"dvm/internal/bag"
	"dvm/internal/storage"
	"dvm/internal/txn"
)

// TestCallerOwnedBagsSurviveMaintenance: tables are now emptied in place
// (Table.Clear empties the bag Data() returned), so whatever the engine
// hands to a caller must be the caller's own. The bags returned by
// Query, QueryFresh (whole and sliced) and by a compiled program whose
// root is a bare table are rendered, the view is then driven through
// Execute → Propagate → PartialRefresh → Refresh, and every bag must
// still render the same. (The case names keep their shards=1 component:
// the one layout there is.)
func TestCallerOwnedBagsSurviveMaintenance(t *testing.T) {
	slice := algebra.Eq(algebra.A("custId"), algebra.C(2))
	for _, sc := range []Scenario{Immediate, BaseLogs, DiffTables, Combined} {
		t.Run(fmt.Sprintf("%v/shards=1", sc), func(t *testing.T) {
			db, def := retailDB(t)
			m := NewManager(db)
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
			rng := rand.New(rand.NewSource(11))
			// A backlog in every auxiliary table the scenario has.
			for i := 0; i < 4; i++ {
				must(m.Execute(randomRetailTxn(rng)))
			}
			if sc == Combined {
				must(m.Propagate("hv"))
				must(m.Execute(randomRetailTxn(rng)))
			}

			held := map[string]*bag.Bag{}
			hold := func(name string, b *bag.Bag, err error) {
				t.Helper()
				must(err)
				held[name] = b
			}
			q, err := m.Query("hv")
			hold("Query", q, err)
			q, err = m.QueryFresh("hv", nil)
			hold("QueryFresh(nil)", q, err)
			q, err = m.QueryFresh("hv", slice)
			hold("QueryFresh(pred)", q, err)
			// Every auxiliary table, read the way a caller can: through
			// a compiled program whose root is the bare table.
			var aux []*storage.Table
			if v.diff != nil {
				aux = append(aux, v.diff.del, v.diff.add)
			}
			for _, b := range v.bases {
				if p, ok := v.logs[b]; ok {
					aux = append(aux, p.del, p.add)
				}
			}
			for _, tb := range aux {
				name := tb.Name()
				prog, err := algebra.Compile(algebra.NewBase(name, tb.Schema()))
				must(err)
				outs, _, err := prog.Eval(nil, db)
				hold("Program.Eval("+name+")", outs[0], err)
			}
			before := map[string]string{}
			for name, b := range held {
				before[name] = b.String()
			}

			must(m.Execute(randomRetailTxn(rng)))
			if sc == Combined {
				must(m.Propagate("hv"))
			}
			if sc == Combined || sc == DiffTables {
				must(m.PartialRefresh("hv"))
			}
			must(m.Execute(randomRetailTxn(rng)))
			must(m.Refresh("hv"))
			must(m.CheckConsistent("hv"))

			for name, b := range held {
				if got := b.String(); got != before[name] {
					t.Errorf("%s changed under its caller:\nbefore %s\nafter  %s", name, before[name], got)
				}
			}
		})
	}
}

// TestReadLendsTheLiveView: Read is the read that copies nothing — its
// function sees MV itself, under the read lock, for a few hundred bytes
// of span and lock bookkeeping however large the view — and Query is
// Read plus Clone: equal contents, a different bag. An error from the
// function, or an unknown view, comes back as it is.
func TestReadLendsTheLiveView(t *testing.T) {
	db, def := retailDB(t)
	m := NewManager(db)
	v, err := m.DefineView("hv", def, Combined)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Execute(txn.Insert("sales", highSales(0, 5000))); err != nil {
		t.Fatal(err)
	}
	if err := m.Refresh("hv"); err != nil {
		t.Fatal(err)
	}
	live, err := db.Bag(v.MVTable())
	if err != nil {
		t.Fatal(err)
	}
	var seen *bag.Bag
	n := 0
	bytes := allocBytes(func() {
		err = m.Read("hv", func(mv *bag.Bag) error {
			seen = mv // kept to compare identities only
			n = mv.Len()
			return nil
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if seen != live || n != live.Len() || n < 5000 {
		t.Fatalf("Read lent a bag of %d tuples; MV is another bag or holds %d", n, live.Len())
	}
	if bytes > 4096 {
		t.Fatalf("Read of a %d-tuple view allocated %d bytes: it copies", n, bytes)
	}
	q, err := m.Query("hv")
	if err != nil {
		t.Fatal(err)
	}
	if q == live || !q.Equal(live) {
		t.Fatal("Query must return a copy of MV")
	}
	boom := fmt.Errorf("boom")
	if err := m.Read("hv", func(*bag.Bag) error { return boom }); err != boom {
		t.Fatalf("Read returned %v, want the function's error", err)
	}
	if err := m.Read("nope", func(*bag.Bag) error { return nil }); err == nil {
		t.Fatal("Read of an unknown view succeeded")
	}
}
