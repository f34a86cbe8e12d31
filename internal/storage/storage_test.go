package storage

import (
	"testing"

	"dvm/internal/bag"
	"dvm/internal/schema"
)

func newDB(t *testing.T) (*Database, *Table) {
	t.Helper()
	db := NewDatabase()
	sch := schema.NewSchema(schema.Col("id", schema.TInt), schema.Col("name", schema.TString))
	tb, err := db.Create("users", sch, External)
	if err != nil {
		t.Fatal(err)
	}
	return db, tb
}

func TestCreateDropLookup(t *testing.T) {
	db, tb := newDB(t)
	if tb.Name() != "users" || tb.Kind() != External || tb.Schema().Len() != 2 {
		t.Fatal("table metadata wrong")
	}
	if _, err := db.Create("users", tb.Schema(), External); err == nil {
		t.Fatal("duplicate create should fail")
	}
	got, err := db.Table("users")
	if err != nil || got != tb {
		t.Fatal("lookup failed")
	}
	if !db.Has("users") || db.Has("ghost") {
		t.Fatal("Has wrong")
	}
	if _, err := db.Table("ghost"); err == nil {
		t.Fatal("missing lookup should fail")
	}
	if err := db.Drop("users"); err != nil {
		t.Fatal(err)
	}
	if err := db.Drop("users"); err == nil {
		t.Fatal("double drop should fail")
	}
}

func TestInsertDelete(t *testing.T) {
	_, tb := newDB(t)
	if err := tb.Insert(schema.Row(1, "ann"), 2); err != nil {
		t.Fatal(err)
	}
	if tb.Len() != 2 {
		t.Fatalf("Len = %d", tb.Len())
	}
	if err := tb.Insert(schema.Row("bad", "types"), 1); err == nil {
		t.Fatal("type violation accepted")
	}
	if n := tb.Delete(schema.Row(1, "ann"), 5); n != 2 {
		t.Fatalf("Delete removed %d, want 2", n)
	}
	if tb.Len() != 0 {
		t.Fatal("table not empty after delete")
	}
	if n := tb.Delete(schema.Row(1, "ann"), 1); n != 0 {
		t.Fatal("deleting absent tuple should remove 0")
	}
}

func TestReplaceClearData(t *testing.T) {
	_, tb := newDB(t)
	b := bag.Of(schema.Row(1, "x"), schema.Row(2, "y"))
	tb.Replace(b)
	if tb.Len() != 2 || tb.Data() != b {
		t.Fatal("Replace wrong")
	}
	// Clear empties in place: the table keeps its bag (whoever holds
	// Data() sees it emptied) and the bag keeps its index, empty.
	pos := []int{0}
	b.IndexOn(pos)
	tb.Clear()
	if tb.Len() != 0 || tb.Data() != b || !b.Empty() {
		t.Fatal("Clear wrong")
	}
	if got := b.Indexes(); len(got) != 1 || len(got[0]) != 1 || got[0][0] != 0 {
		t.Fatalf("Clear dropped the bag's index: %v", got)
	}
	probe := bag.Of(schema.Row(1, "p"), schema.Row(2, "p"), schema.Row(3, "p"))
	ix, _ := b.IndexOn(pos)
	if out, _ := bag.JoinIndexed(probe, pos, ix, false, nil); !out.Empty() {
		t.Fatalf("the index of a cleared table still answers %v", out)
	}
	// After a refill the same index answers like a rebuilt one.
	for _, r := range []schema.Tuple{schema.Row(2, "again"), schema.Row(3, "new"), schema.Row(3, "new")} {
		if err := tb.Insert(r, 1); err != nil {
			t.Fatal(err)
		}
	}
	again, _ := b.IndexOn(pos)
	got, _ := bag.JoinIndexed(probe, pos, again, false, nil)
	want, _ := bag.JoinIndexed(probe, pos, bag.NewIndex(b.Clone(), pos), false, nil)
	if again != ix || got.Len() != 3 || !got.Equal(want) {
		t.Fatalf("after a refill the table's index answers %v, a fresh one %v", got, want)
	}
}

func TestBagSourceInterface(t *testing.T) {
	db, tb := newDB(t)
	if err := tb.Insert(schema.Row(7, "z"), 1); err != nil {
		t.Fatal(err)
	}
	b, err := db.Bag("users")
	if err != nil || b.Len() != 1 {
		t.Fatal("Bag() wrong")
	}
	if _, err := db.Bag("nope"); err == nil {
		t.Fatal("Bag of missing table should fail")
	}
}

func TestNamesSorted(t *testing.T) {
	db := NewDatabase()
	sch := schema.NewSchema(schema.Col("x", schema.TInt))
	for _, n := range []string{"zeta", "alpha", "mid"} {
		if _, err := db.Create(n, sch, Internal); err != nil {
			t.Fatal(err)
		}
	}
	names := db.Names()
	if len(names) != 3 || names[0] != "alpha" || names[1] != "mid" || names[2] != "zeta" {
		t.Fatalf("Names = %v", names)
	}
}

func TestSnapshotIsolation(t *testing.T) {
	db, tb := newDB(t)
	if err := tb.Insert(schema.Row(1, "a"), 1); err != nil {
		t.Fatal(err)
	}
	snap := db.Snapshot()
	if err := tb.Insert(schema.Row(2, "b"), 1); err != nil {
		t.Fatal(err)
	}
	sb, _ := snap.Bag("users")
	if sb.Len() != 1 {
		t.Fatal("snapshot sees later writes")
	}
	st, _ := snap.Table("users")
	if st.Kind() != External || !st.Schema().Equal(tb.Schema()) {
		t.Fatal("snapshot metadata wrong")
	}
}

func TestKindString(t *testing.T) {
	if External.String() != "external" || Internal.String() != "internal" {
		t.Fatal("Kind.String wrong")
	}
}
