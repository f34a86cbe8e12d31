package bag

import (
	"testing"

	"dvm/internal/schema"
)

// The paper's bag algebra (Section 2.1) is defined over non-negative
// multiplicities: deletions are represented as their own positive bags
// (▼R, ∇MV), never as negative counts inside one bag. These tests pin
// the invariant that Bag cannot represent a negative multiplicity — Add
// clamps at zero and every operator preserves non-negativity — and that
// the count arithmetic of the operators matches the paper's definitions
// on every boundary the clamp creates.

// negatives returns every tuple whose stored multiplicity is ≤ 0
// (there should never be any).
func negatives(t *testing.T, b *Bag) {
	t.Helper()
	b.each(func(_ uint32, e entry) {
		if e.count <= 0 {
			t.Fatalf("bag holds non-positive multiplicity %d for %v", e.count, b.tupleAt(e.p))
		}
	})
}

func TestAddClampsAtZero(t *testing.T) {
	b := New()
	b.Add(row("x"), -3)
	if b.Count(row("x")) != 0 || b.Len() != 0 {
		t.Fatalf("negative add on empty bag must be a no-op, got count=%d len=%d",
			b.Count(row("x")), b.Len())
	}
	b.Add(row("x"), 2)
	b.Add(row("x"), -5)
	if b.Count(row("x")) != 0 || b.Len() != 0 {
		t.Fatalf("over-removal must clamp at zero, got count=%d len=%d",
			b.Count(row("x")), b.Len())
	}
	b.Add(row("x"), 4)
	b.Remove(row("x"), 1)
	if b.Count(row("x")) != 3 {
		t.Fatalf("Remove(1) of 4 = %d, want 3", b.Count(row("x")))
	}
	negatives(t, b)
}

func TestOperatorCountArithmetic(t *testing.T) {
	// Each case gives per-tuple multiplicities in a and b (0 = absent)
	// and the expected result multiplicity per operator. The x/y/z rows
	// cover a>b, a<b, and one-sided presence.
	a := bagOf(map[string]int{"x": 5, "y": 2, "onlyA": 3})
	b := bagOf(map[string]int{"x": 2, "y": 7, "onlyB": 4})

	cases := []struct {
		name string
		got  *Bag
		want map[string]int
	}{
		{"UnionAll", UnionAll(a, b), map[string]int{"x": 7, "y": 9, "onlyA": 3, "onlyB": 4}},
		{"Monus", Monus(a, b), map[string]int{"x": 3, "onlyA": 3}},
		{"MonusRev", Monus(b, a), map[string]int{"y": 5, "onlyB": 4}},
		{"Min", Min(a, b), map[string]int{"x": 2, "y": 2}},
		{"Max", Max(a, b), map[string]int{"x": 5, "y": 7, "onlyA": 3, "onlyB": 4}},
		{"Except", Except(a, b), map[string]int{"onlyA": 3}},
		{"DupElim", DupElim(a), map[string]int{"x": 1, "y": 1, "onlyA": 1}},
	}
	for _, c := range cases {
		negatives(t, c.got)
		want := New()
		for s, n := range c.want {
			want.Add(row(s), n)
		}
		if !c.got.Equal(want) {
			t.Errorf("%s = %v, want %v", c.name, c.got, want)
		}
	}
}

// TestMonusIdentities checks the paper's derived-operator identities
// min(a,b) = a ∸ (a ∸ b) and max(a,b) = a ⊎ (b ∸ a) against the direct
// implementations, on bags engineered so both clamp branches fire.
func TestMonusIdentities(t *testing.T) {
	a := bagOf(map[string]int{"x": 5, "y": 1, "onlyA": 2})
	b := bagOf(map[string]int{"x": 3, "y": 6, "onlyB": 9})

	if got, want := Min(a, b), Monus(a, Monus(a, b)); !got.Equal(want) {
		t.Errorf("Min(a,b) = %v, want a∸(a∸b) = %v", got, want)
	}
	if got, want := Max(a, b), UnionAll(a, Monus(b, a)); !got.Equal(want) {
		t.Errorf("Max(a,b) = %v, want a⊎(b∸a) = %v", got, want)
	}
}

// TestProductCountMultiplication pins ProductSelect/Product count
// handling: multiplicities multiply, and since bags cannot hold
// negative counts (the clamp invariant above), the product of two
// well-formed bags is always well-formed — there is no sign case.
func TestProductCountMultiplication(t *testing.T) {
	a := New().Add(row("k", 1), 3).Add(row("k", 2), 2)
	b := New().Add(row("k", 10), 4)

	p := ProductSelect(a, b, func(schema.Tuple) bool { return true })
	negatives(t, p)
	if got := p.Count(row("k", 1, "k", 10)); got != 12 {
		t.Fatalf("count(k1×k10) = %d, want 3*4=12", got)
	}
	if got := p.Count(row("k", 2, "k", 10)); got != 8 {
		t.Fatalf("count(k2×k10) = %d, want 2*4=8", got)
	}
	if !p.Equal(Product(a, b)) {
		t.Fatalf("ProductSelect(true) != Product: %v vs %v", p, Product(a, b))
	}
}
