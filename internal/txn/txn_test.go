package txn

import (
	"testing"

	"dvm/internal/algebra"
	"dvm/internal/bag"
	"dvm/internal/schema"
	"dvm/internal/storage"
)

func setup(t *testing.T) (*storage.Database, *schema.Schema) {
	t.Helper()
	db := storage.NewDatabase()
	sch := schema.NewSchema(schema.Col("x", schema.TInt))
	r, err := db.Create("R", sch, storage.External)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []int{1, 1, 2, 3} {
		if err := r.Insert(schema.Row(v), 1); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := db.Create("S", sch, storage.External); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Create("_mv", sch, storage.Internal); err != nil {
		t.Fatal(err)
	}
	return db, sch
}

func TestInsertDeleteConstructors(t *testing.T) {
	db, _ := setup(t)
	if err := Insert("R", bag.Of(schema.Row(9))).Apply(db); err != nil {
		t.Fatal(err)
	}
	b, _ := db.Bag("R")
	if b.Count(schema.Row(9)) != 1 {
		t.Fatal("Insert txn failed")
	}
	if err := Delete("R", bag.Of(schema.Row(9))).Apply(db); err != nil {
		t.Fatal(err)
	}
	b, _ = db.Bag("R")
	if b.Contains(schema.Row(9)) {
		t.Fatal("Delete txn failed")
	}
}

func TestApplySimpleSemantics(t *testing.T) {
	db, _ := setup(t)
	// Delete one copy of 1 and insert a 4, simultaneously.
	tx := Txn{"R": {Delete: bag.Of(schema.Row(1)), Insert: bag.Of(schema.Row(4))}}
	if err := tx.Apply(db); err != nil {
		t.Fatal(err)
	}
	b, _ := db.Bag("R")
	want := bag.Of(schema.Row(1), schema.Row(2), schema.Row(3), schema.Row(4))
	if !b.Equal(want) {
		t.Fatalf("apply wrong: %v", b)
	}
	// Deleting more copies than exist clamps (monus semantics).
	tx = Txn{"R": {Delete: bag.Of(schema.Row(1), schema.Row(1), schema.Row(1))}}
	if err := tx.Apply(db); err != nil {
		t.Fatal(err)
	}
	b, _ = db.Bag("R")
	if b.Contains(schema.Row(1)) {
		t.Fatal("clamped delete wrong")
	}
}

func TestApplyValidation(t *testing.T) {
	db, _ := setup(t)
	bad := Txn{"R": {Insert: bag.Of(schema.Row("string"))}}
	if err := bad.Apply(db); err == nil {
		t.Fatal("type-violating insert accepted")
	}
	// Nothing was applied.
	b, _ := db.Bag("R")
	if b.Len() != 4 {
		t.Fatal("partial application after validation failure")
	}
	missing := Txn{"ghost": {Insert: bag.Of(schema.Row(1))}}
	if err := missing.Apply(db); err == nil {
		t.Fatal("unknown table accepted")
	}
}

func TestMerge(t *testing.T) {
	a := Insert("R", bag.Of(schema.Row(1)))
	b := Txn{"R": {Delete: bag.Of(schema.Row(2))}, "S": {Insert: bag.Of(schema.Row(3))}}
	m := a.Merge(b)
	u := m["R"]
	if u.Insert.Count(schema.Row(1)) != 1 || u.Delete.Count(schema.Row(2)) != 1 {
		t.Fatalf("merge R wrong: %+v", u)
	}
	if m["S"].Insert.Count(schema.Row(3)) != 1 {
		t.Fatal("merge S wrong")
	}
	// Inputs unchanged.
	if a["R"].Delete != nil {
		t.Fatal("merge mutated input")
	}
}

func TestNormalizeWeakMinimality(t *testing.T) {
	db, _ := setup(t) // R = {1,1,2,3}
	tx := Txn{"R": {Delete: bag.Of(schema.Row(1), schema.Row(1), schema.Row(1), schema.Row(5))}}
	n, err := tx.Normalize(db)
	if err != nil {
		t.Fatal(err)
	}
	d := n["R"].Delete
	// Capped to the 2 existing copies of 1; the non-existent 5 vanishes.
	if d.Count(schema.Row(1)) != 2 || d.Contains(schema.Row(5)) {
		t.Fatalf("normalize wrong: %v", d)
	}
	rBag, _ := db.Bag("R")
	if !d.SubBagOf(rBag) {
		t.Fatal("normalized delete not a subbag of R")
	}
	// Same net effect.
	db2 := db.Snapshot()
	if err := tx.Apply(db); err != nil {
		t.Fatal(err)
	}
	if err := n.Apply(db2); err != nil {
		t.Fatal(err)
	}
	b1, _ := db.Bag("R")
	b2, _ := db2.Bag("R")
	if !b1.Equal(b2) {
		t.Fatal("normalization changed the transaction's effect")
	}
	if _, err := (Txn{"ghost": {}}).Normalize(db); err == nil {
		t.Fatal("normalize of unknown table should fail")
	}
}

// TestNormalizeHandsOverAWeaklyMinimalDelete: a ∇R that is already a
// sub-bag of R is handed over as a copy-on-write Clone after one lookup
// per tuple, not rebuilt by min — Normalize allocates the same handful of
// objects for a 2 000-tuple delete as for a 10-tuple one, and copies
// none of its entries: what it copies is the 1-row insert, a small bag
// whose Clone is a copy, the same for both — and the caller may still
// change its bag without the normalized transaction seeing it.
func TestNormalizeHandsOverAWeaklyMinimalDelete(t *testing.T) {
	db, _ := setup(t)
	r, _ := db.Table("R")
	for v := 100; v < 10100; v++ {
		if err := r.Insert(schema.Row(v), 2); err != nil {
			t.Fatal(err)
		}
	}
	deletes := func(n int) *bag.Bag {
		b := bag.New()
		for v := 100; v < 100+n; v++ {
			b.Add(schema.Row(v), 1+v%2)
		}
		return b
	}
	// allocs returns what one Normalize of an n-tuple delete allocates
	// and the entries all its runs copied.
	allocs := func(n int) (float64, uint64) {
		tx := Txn{"R": {Delete: deletes(n), Insert: bag.Of(schema.Row(7))}}
		c0 := bag.CopiedEntries()
		a := testing.AllocsPerRun(20, func() {
			if _, err := tx.Normalize(db); err != nil {
				t.Fatal(err)
			}
		})
		return a, bag.CopiedEntries() - c0
	}
	small, smallCopied := allocs(10)
	large, largeCopied := allocs(2000)
	if small != large || large > 8 || smallCopied != largeCopied {
		t.Fatalf("Normalize of a weakly minimal delete: %v allocations and %d entries copied for 10 tuples, %v and %d for 2000; want one small constant of each",
			small, smallCopied, large, largeCopied)
	}

	del := deletes(50)
	n, err := Txn{"R": {Delete: del}}.Normalize(db)
	if err != nil {
		t.Fatal(err)
	}
	want := deletes(50)
	del.Add(schema.Row(1), 1)
	del.Remove(schema.Row(100), 1)
	if got := n["R"].Delete; !got.Equal(want) {
		t.Fatalf("normalized delete %v changed with the caller's bag, want %v", got, want)
	}
}

// TestNormalizeIntoHandsTheBagsOver: normalizing into a transaction the
// caller reuses allocates nothing. A weakly minimal ∇R and a △R are the
// caller's own bags, a nil one is the shared empty bag, and only a bag
// that is the live contents of a table the transaction writes is a
// Clone, since the base update would otherwise write what it reads.
func TestNormalizeIntoHandsTheBagsOver(t *testing.T) {
	db, _ := setup(t) // R = {1,1,2,3}
	del, ins := bag.Of(schema.Row(1), schema.Row(2)), bag.Of(schema.Row(7))
	tx := Txn{"R": {Delete: del, Insert: ins}, "S": {Insert: ins}}
	out := Txn{}
	normalize := func() {
		clear(out)
		if err := tx.NormalizeInto(db, out); err != nil {
			t.Fatal(err)
		}
	}
	normalize()
	if out["R"].Delete != del || out["R"].Insert != ins || out["S"].Insert != ins || out["S"].Delete != none {
		t.Fatalf("normalized into %+v, want the caller's bags and the shared empty one", out)
	}
	if n := testing.AllocsPerRun(20, normalize); n != 0 {
		t.Errorf("NormalizeInto allocates %v times, want 0", n)
	}

	r, _ := db.Table("R")
	s, _ := db.Table("S")
	live := Txn{"R": {Delete: r.Data()}, "S": {Insert: r.Data()}}
	clear(out)
	if err := live.NormalizeInto(db, out); err != nil {
		t.Fatal(err)
	}
	if out["R"].Delete == r.Data() || !out["R"].Delete.Equal(r.Data()) {
		t.Fatal("a ∇R that is R's live bag is handed over as itself, want a Clone")
	}
	if out["S"].Insert == r.Data() {
		t.Fatal("a △S that is R's live bag, with R written, is handed over as itself, want a Clone")
	}
	if out["S"].Delete != none || s.Len() != 0 {
		t.Fatal("S's nil ∇S is not the shared empty bag")
	}
}

func TestTouchesInternal(t *testing.T) {
	db, _ := setup(t)
	user := Insert("R", bag.Of(schema.Row(9)))
	if name, bad := user.TouchesInternal(db); bad {
		t.Fatalf("external write misflagged: %s", name)
	}
	evil := Insert("_mv", bag.Of(schema.Row(9)))
	if name, bad := evil.TouchesInternal(db); !bad || name != "_mv" {
		t.Fatal("internal write not flagged")
	}
}

func TestApplyAssignmentsSimultaneous(t *testing.T) {
	db, sch := setup(t)
	sT, _ := db.Table("S")
	if err := sT.Insert(schema.Row(100), 1); err != nil {
		t.Fatal(err)
	}
	// Swap R and S simultaneously: {R := S, S := R}. Sequential
	// application would make both equal; simultaneous must swap.
	r := algebra.NewBase("R", sch)
	s := algebra.NewBase("S", sch)
	err := ApplyAssignments(db, []Assignment{
		{Table: "R", Expr: s},
		{Table: "S", Expr: r},
	})
	if err != nil {
		t.Fatal(err)
	}
	rb, _ := db.Bag("R")
	sb, _ := db.Bag("S")
	if !rb.Equal(bag.Of(schema.Row(100))) {
		t.Fatalf("R after swap = %v", rb)
	}
	if sb.Len() != 4 {
		t.Fatalf("S after swap = %v", sb)
	}
}

func TestApplyAssignmentsErrors(t *testing.T) {
	db, sch := setup(t)
	if err := ApplyAssignments(db, []Assignment{{Table: "ghost", Expr: algebra.NewBase("R", sch)}}); err == nil {
		t.Fatal("assignment to unknown table accepted")
	}
	if err := ApplyAssignments(db, []Assignment{{Table: "R", Expr: algebra.NewBase("ghost", sch)}}); err == nil {
		t.Fatal("assignment reading unknown table accepted")
	}
}
