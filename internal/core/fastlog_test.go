package core

import (
	"math/rand"
	"testing"

	"dvm/internal/algebra"
	"dvm/internal/bag"
	"dvm/internal/schema"
	"dvm/internal/storage"
	"dvm/internal/txn"
)

// TestFastLogAppendMatchesAlgebraic drives random transaction streams
// through a manager and, step by step, holds its in-place log extension
// against the algebraic Figure 3 assignments (algebraicMerge) applied to
// the same pre-state and the same normalized ∇R/△R, filtered through the
// table's relevant-update filter σ_f by the interpreter: the log tables
// must be identical after every transaction.
func TestFastLogAppendMatchesAlgebraic(t *testing.T) {
	r := rand.New(rand.NewSource(2024))
	u := algebra.NewRandomUniverse(2)
	for trial := 0; trial < 25; trial++ {
		def := u.RandomQuery(r, 3)

		// Rows loaded BEFORE the view is defined so MV starts consistent.
		seed := bag.New()
		for i, n := 0, r.Intn(8); i < n; i++ {
			seed.Add(schema.Row(r.Intn(4), r.Intn(4)), 1+r.Intn(2))
		}
		db := storage.NewDatabase()
		for _, name := range u.Tables {
			tb, err := db.Create(name, u.Sch, storage.External)
			if err != nil {
				t.Fatal(err)
			}
			tb.Replace(seed.Clone())
		}
		m := NewManager(db)
		v, err := m.DefineView("v", def, Combined)
		if err != nil {
			t.Fatal(err)
		}

		for step := 0; step < 8; step++ {
			tx := txn.Txn{}
			for _, name := range u.Tables {
				del, ins := u.RandomDelta(r)
				tx[name] = txn.Update{Delete: del, Insert: ins}
			}
			nt, err := tx.Normalize(db)
			if err != nil {
				t.Fatal(err)
			}
			want := map[string][2]*bag.Bag{}
			for _, b := range v.BaseTables() {
				logDel, logIns := v.logs[b].del.Data(), v.logs[b].add.Data()
				del, ins := relevantPart(t, v, b, u.Sch, nt[b])
				wd, wi := algebraicMerge(t, u.Sch, logDel, logIns, del, ins, false)
				want[b] = [2]*bag.Bag{wd, wi}
			}
			if err := m.Execute(tx); err != nil {
				t.Fatal(err)
			}
			for _, b := range v.BaseTables() {
				for i, tb := range []*storage.Table{v.logs[b].del, v.logs[b].add} {
					if got := tb.Data(); !got.Equal(want[b][i]) {
						t.Fatalf("trial %d step %d: log %s diverged:\nin place:  %v\nalgebraic: %v\ndef=%s",
							trial, step, tb.Name(), got, want[b][i], def)
					}
				}
			}
			if err := m.CheckInvariant("v"); err != nil {
				t.Fatalf("trial %d step %d: in-place append broke INV_C: %v", trial, step, err)
			}
		}

		if err := m.Refresh("v"); err != nil {
			t.Fatal(err)
		}
		if err := m.CheckConsistent("v"); err != nil {
			t.Fatal(err)
		}
	}
}

func TestExecuteValidatesBeforeBookkeeping(t *testing.T) {
	db, def := retailDB(t)
	m := NewManager(db)
	v, err := m.DefineView("hv", def, Combined)
	if err != nil {
		t.Fatal(err)
	}
	// A mixed transaction with a type-violating insert must fail without
	// touching any log table.
	bad := txn.Txn{"sales": txn.Update{
		Delete: bag.Of(saleRow(0, 0, 1)),
		Insert: bag.Of(schema.Row("not-an-int", 1, 1, 1.0)),
	}}
	if err := m.Execute(bad); err == nil {
		t.Fatal("ill-typed insert accepted")
	}
	for _, b := range v.BaseTables() {
		for _, tb := range []*storage.Table{v.logs[b].del, v.logs[b].add} {
			if !tb.Data().Empty() {
				t.Fatalf("log %s mutated by rejected transaction", tb.Name())
			}
		}
	}
	if err := m.CheckInvariant("hv"); err != nil {
		t.Fatal(err)
	}
}

// The log append's per-transaction cost must not grow with the
// accumulated log: the bytes one small transaction allocates against a
// 20 000-tuple log stay within a small constant of what it allocates
// against an empty one.
func TestFastLogAppendIndependentOfLogSize(t *testing.T) {
	perAppend := func(backlog int) uint64 {
		db, def := retailDB(t)
		m := NewManager(db)
		if _, err := m.DefineView("hv", def, BaseLogs); err != nil {
			t.Fatal(err)
		}
		if backlog > 0 {
			big := bag.New()
			for i := 0; i < backlog; i++ {
				big.Add(saleRow(i%10, 100+i, 1+i%3), 1)
			}
			if err := m.Execute(txn.Insert("sales", big)); err != nil {
				t.Fatal(err)
			}
		}
		v, _ := m.View("hv")
		before := v.logs["sales"].add.Data()
		sizeBefore := before.Len()

		txs := make([]txn.Txn, 50)
		for i := range txs {
			txs[i] = txn.Insert("sales", bag.Of(saleRow(i%10, i, 1)))
		}
		bytes := allocBytes(func() {
			for _, tx := range txs {
				if err := m.Execute(tx); err != nil {
					t.Fatal(err)
				}
			}
		})
		after := v.logs["sales"].add.Data()
		if after.Len() != sizeBefore+len(txs) {
			t.Fatalf("log grew from %d to %d, want +%d", sizeBefore, after.Len(), len(txs))
		}
		if err := m.CheckInvariant("hv"); err != nil {
			t.Fatal(err)
		}
		return bytes / uint64(len(txs))
	}
	small, large := perAppend(0), perAppend(20000)
	t.Logf("one append: %d B against an empty log, %d B against a 20000-tuple one", small, large)
	// The large log's map is past its growth steps; the small one's is
	// not, so "large" may well be the cheaper of the two.
	if large > 2*small+1024 {
		t.Fatalf("an append to a 20000-tuple log allocates %d B, to an empty one %d B", large, small)
	}
}
