package core

import (
	"math/rand"
	"testing"

	"dvm/internal/algebra"
	"dvm/internal/bag"
	"dvm/internal/delta"
	"dvm/internal/schema"
	"dvm/internal/storage"
	"dvm/internal/txn"
)

// algebraicMerge is the reference form of mergeDelta: the composition
// lemma written as the paper writes it, as two simultaneous algebraic
// assignments
//
//	Del := Del ⊎ (del ∸ Add);  Add := (Add ∸ del) ⊎ add
//
// (under strong, through delta.StrengthenMinimality) evaluated by the
// tree-walking interpreter over a scratch database. It returns the new
// (Del, Add) and leaves its operands alone. This is what Execute ran
// under the retired slow-log-append switch.
func algebraicMerge(t testing.TB, sch *schema.Schema, Del, Add, del, add *bag.Bag, strong bool) (*bag.Bag, *bag.Bag) {
	t.Helper()
	db := storage.NewDatabase()
	base := map[string]algebra.Expr{}
	for name, b := range map[string]*bag.Bag{"Del": Del, "Add": Add, "del": del, "add": add} {
		tb, err := db.Create(name, sch, storage.External)
		if err != nil {
			t.Fatal(err)
		}
		tb.Replace(b.Clone())
		base[name] = algebra.NewBase(name, sch)
	}
	must := func(e algebra.Expr, err error) algebra.Expr {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	delRHS := must(algebra.NewUnionAll(base["Del"], must(algebra.NewMonus(base["del"], base["Add"]))))
	addRHS := must(algebra.NewUnionAll(must(algebra.NewMonus(base["Add"], base["del"])), base["add"]))
	if strong {
		var err error
		if delRHS, addRHS, err = delta.StrengthenMinimality(delRHS, addRHS); err != nil {
			t.Fatal(err)
		}
	}
	err := txn.ApplyAssignments(db, []txn.Assignment{{Table: "Del", Expr: delRHS}, {Table: "Add", Expr: addRHS}})
	if err != nil {
		t.Fatal(err)
	}
	outDel, _ := db.Bag("Del")
	outAdd, _ := db.Bag("Add")
	return outDel, outAdd
}

// algebraicSelect is σ_pred(b), by the interpreter.
func algebraicSelect(t testing.TB, sch *schema.Schema, pred algebra.Predicate, b *bag.Bag) *bag.Bag {
	t.Helper()
	sel, err := algebra.NewSelect(pred, algebra.NewBase("b", sch))
	if err != nil {
		t.Fatal(err)
	}
	out, err := algebra.Eval(sel, algebra.MapSource{"b": b})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// relevantPart is what of one table's normalized change u a logging
// view's log must take: u, or σ_f of it by the interpreter when the
// view's definition yields the table a filter f.
func relevantPart(t testing.TB, v *View, table string, sch *schema.Schema, u txn.Update) (del, ins *bag.Bag) {
	t.Helper()
	f, ok := algebra.RelevantFilters(v.Def)[table]
	if !ok {
		return u.Delete, u.Insert
	}
	return algebraicSelect(t, sch, f, u.Delete), algebraicSelect(t, sch, f, u.Insert)
}

// randomOperand draws a bag over a 3×3 domain: duplicates and overlaps
// between operands are the common case, and one draw in five is empty.
func randomOperand(r *rand.Rand) *bag.Bag {
	b := bag.New()
	if r.Intn(5) == 0 {
		return b
	}
	for i, n := 0, 1+r.Intn(6); i < n; i++ {
		b.Add(schema.Row(r.Intn(3), r.Intn(3)), 1+r.Intn(3))
	}
	return b
}

// TestMergeDeltaIsCompositionLemma: for random (Del, Add, del, add) —
// duplicates, del overlapping Add, tuples in both del and add, empty
// operands — the in-place merge equals the interpreter's evaluation of
// the algebraic assignments, weakly and (given disjoint tables, which
// the strong merge itself maintains) strongly; del and add are left
// untouched; and an index the tables' bags own follows the merge like a
// rebuilt one.
func TestMergeDeltaIsCompositionLemma(t *testing.T) {
	sch := schema.NewSchema(schema.Col("a", schema.TInt), schema.Col("b", schema.TInt))
	// Every tuple of the domain, to probe an index bucket by bucket.
	domain := bag.New()
	for a := 0; a < 3; a++ {
		for b := 0; b < 3; b++ {
			domain.Add(schema.Row(a, b), 1)
		}
	}
	pos := []int{0}
	sameIndex := func(b *bag.Bag) bool {
		own, _ := b.IndexOn(pos)
		got, _ := bag.JoinIndexed(domain, pos, own, false, nil)
		want, _ := bag.JoinIndexed(domain, pos, bag.NewIndex(b.Clone(), pos), false, nil)
		return got.Equal(want)
	}
	r := rand.New(rand.NewSource(20))
	for _, strong := range []bool{false, true} {
		for trial := 0; trial < 400; trial++ {
			Del, Add, del, add := randomOperand(r), randomOperand(r), randomOperand(r), randomOperand(r)
			if strong {
				Del, Add = bag.Monus(Del, Add), bag.Monus(Add, Del)
			}
			wantDel, wantAdd := algebraicMerge(t, sch, Del, Add, del, add, strong)

			db := storage.NewDatabase()
			delT, _ := db.Create("Del", sch, storage.Internal)
			addT, _ := db.Create("Add", sch, storage.Internal)
			delT.Replace(Del.Clone())
			addT.Replace(Add.Clone())
			delT.Data().IndexOn(pos)
			addT.Data().IndexOn(pos)
			del0, add0 := del.Clone(), add.Clone()

			mergeDelta(delT, addT, del, add, strong)

			if !delT.Data().Equal(wantDel) || !addT.Data().Equal(wantAdd) {
				t.Fatalf("strong=%v trial %d: merge(Del=%v, Add=%v, del=%v, add=%v)\n got (%v, %v)\nwant (%v, %v)",
					strong, trial, Del, Add, del0, add0, delT.Data(), addT.Data(), wantDel, wantAdd)
			}
			if !del.Equal(del0) || !add.Equal(add0) {
				t.Fatalf("strong=%v trial %d: merge changed its delta operands", strong, trial)
			}
			if strong && !bag.Min(delT.Data(), addT.Data()).Empty() {
				t.Fatalf("strong=%v trial %d: tables not disjoint after the merge", strong, trial)
			}
			if !sameIndex(delT.Data()) || !sameIndex(addT.Data()) {
				t.Fatalf("strong=%v trial %d: an owned index did not follow the merge", strong, trial)
			}
		}
	}
}

// expectMerged computes, by the algebraic reference, what a table pair
// must hold once (del, add) has been merged into it, and returns the
// check to run after the engine has done so in place.
func expectMerged(t testing.TB, what string, p tablePair, del, add *bag.Bag, strong bool) func() {
	t.Helper()
	wantDel, wantAdd := algebraicMerge(t, p.del.Schema(), p.del.Data(), p.add.Data(), del, add, strong)
	return func() {
		t.Helper()
		if !p.del.Data().Equal(wantDel) || !p.add.Data().Equal(wantAdd) {
			t.Fatalf("%s: (%s, %s) = (%v, %v), the composition lemma gives (%v, %v)",
				what, p.del.Name(), p.add.Name(), p.del.Data(), p.add.Data(), wantDel, wantAdd)
		}
	}
}

// expectMakesafe returns the check that a view's auxiliary
// tables are, after Execute(tx), the composition-lemma merge of the
// transaction into their current contents: (∇R, △R)'s relevant part
// (relevantPart) into each log for BaseLogs/Combined, the interpreter's (∇(T,Q), △(T,Q)) into ∇MV/△MV
// for DiffTables. Call it before Execute, run the result after.
func expectMakesafe(t testing.TB, m *Manager, v *View, tx txn.Txn) func() {
	t.Helper()
	nt, err := tx.Normalize(m.db)
	if err != nil {
		t.Fatal(err)
	}
	var checks []func()
	switch v.Scenario {
	case BaseLogs, Combined:
		for _, b := range v.bases {
			if u, ok := nt[b]; ok {
				tb, _ := m.db.Table(b)
				del, ins := relevantPart(t, v, b, tb.Schema(), u)
				checks = append(checks, expectMerged(t, "makesafe", v.logs[b], del, ins, false))
			}
		}
	case DiffTables:
		// The pair reads ∇R/△R through txSource, which binds them only
		// inside Execute: evaluate over one that binds this transaction's.
		src := &txSource{db: m.db.Snapshot(), nt: nt, v: v, bound: map[txParam]*bag.Bag{}, empty: bag.New()}
		src.bind([]*View{v})
		checks = append(checks, expectFold(t, m, v, src, "makesafe_DT"))
	}
	return func() {
		t.Helper()
		for _, c := range checks {
			c()
		}
	}
}

// expectFold returns the check that ∇MV/△MV become the merge of the
// view's incremental pair, as the interpreter evaluates it over src,
// into their current contents (makesafe_DT; propagate_C with src the
// live database).
func expectFold(t testing.TB, m *Manager, v *View, src algebra.Source, what string) func() {
	t.Helper()
	ev := algebra.NewEvaluator(src)
	del, err := ev.Eval(v.del)
	if err != nil {
		t.Fatal(err)
	}
	add, err := ev.Eval(v.add)
	if err != nil {
		t.Fatal(err)
	}
	return expectMerged(t, what, *v.diff, del, add, v.StrongMinimal)
}
