package storage

import (
	"bytes"
	"fmt"
	"testing"

	"dvm/internal/schema"
)

// TestSaveDeterministic: the same database must serialize to identical
// bytes every time (EachOrdered in Save), whatever history left its
// contents: a table walks its rows in the order they arrived, so a
// snapshot in that order would differ between two databases that hold
// the same rows, which breaks snapshot diffing and content-addressed
// storage.
func TestSaveDeterministic(t *testing.T) {
	sch := schema.NewSchema(schema.Col("a", schema.TInt), schema.Col("s", schema.TString))
	build := func(order func(i int) int) *Database {
		db := NewDatabase()
		tb, err := db.Create("r", sch, External)
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < 80; k++ {
			i := order(k)
			if err := tb.Insert(schema.Tuple{schema.Int(int64(i % 13)), schema.Str(fmt.Sprintf("v%d", i))}, 1+i%3); err != nil {
				t.Fatal(err)
			}
		}
		return db
	}
	db := build(func(i int) int { return i })
	var reversed bytes.Buffer
	if err := build(func(i int) int { return 79 - i }).Save(&reversed); err != nil {
		t.Fatal(err)
	}

	var first bytes.Buffer
	if err := db.Save(&first); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 5; round++ {
		var again bytes.Buffer
		if err := db.Save(&again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), again.Bytes()) {
			t.Fatalf("snapshot bytes differ between Save calls (round %d)", round)
		}
	}

	if !bytes.Equal(first.Bytes(), reversed.Bytes()) {
		t.Fatal("the same rows inserted in another order serialize to other bytes")
	}

	// And a restored copy re-serializes to the same bytes.
	restored, err := Load(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var rt bytes.Buffer
	if err := restored.Save(&rt); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), rt.Bytes()) {
		t.Fatal("snapshot bytes not stable across Save/Load/Save")
	}
}
