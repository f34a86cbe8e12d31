package schema_test

import (
	"testing"

	"dvm/internal/bag"
	"dvm/internal/schema"
)

// roundTrip checks that TupleAt(t.Ptr(), len(t)) is t: the same values
// at the same addresses, with no capacity past them.
func roundTrip(t *testing.T, name string, tu schema.Tuple) {
	t.Helper()
	got := schema.TupleAt(tu.Ptr(), len(tu))
	switch {
	case !got.Equal(tu):
		t.Errorf("%s: TupleAt(Ptr) = %v, want %v", name, got, tu)
	case len(tu) == 0 && (tu.Ptr() != nil || got != nil):
		t.Errorf("%s: an empty tuple has pointer %p and reads back as %v", name, tu.Ptr(), got)
	case len(tu) > 0 && &got[0] != &tu[0]:
		t.Errorf("%s: TupleAt copied the tuple", name)
	case cap(got) != len(tu):
		t.Errorf("%s: capacity %d past a %d-value tuple: an append would write into its array", name, cap(got), len(tu))
	}
}

// TestTupleAtRoundTrips is the schema half of the one-pointer bag entry:
// a tuple stored as Ptr and rebuilt with TupleAt under its arity is the
// tuple, for every arity a table has, for a subslice of a longer array
// (a projection's prefix, a split join row), and for one tuple that two
// bags hold — they share its array, and each reads it back whole. Under
// -race, checkptr checks that every rebuilt slice stays inside its
// allocation.
func TestTupleAtRoundTrips(t *testing.T) {
	vals := []any{1, "two", 3.5, true, nil, "", -7, "eight"}
	for n := 0; n <= len(vals); n++ {
		roundTrip(t, "arity", schema.Row(vals[:n]...))
	}

	wide := schema.Row(vals...)
	roundTrip(t, "prefix", wide[:3])
	roundTrip(t, "middle", wide[2:5])
	roundTrip(t, "suffix", wide[6:])
	if sub := wide[:3]; cap(sub) <= len(sub) {
		t.Fatalf("the prefix case needs capacity past the length: cap %d, len %d", cap(sub), len(sub))
	}

	tu := schema.Row(4, "shared", 2.5)
	one, other := bag.Of(tu), bag.New().Add(tu, 3)
	for _, b := range []*bag.Bag{one, other} {
		b.Each(func(got schema.Tuple, _ int) {
			if &got[0] != &tu[0] {
				t.Errorf("a bag holds a copy of the tuple, not its array")
			}
			roundTrip(t, "shared", got)
		})
	}
}
