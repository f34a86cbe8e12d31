package bag

import (
	"testing"

	"dvm/internal/schema"
)

// FuzzBagOps interprets the input as a program of Add/Remove/Clear
// operations (plus ApplyDelta, bursts longer than the journal window,
// and look-ups of the bag's own index in between) executed against
// both a Bag and a plain map[string]int reference model, then checks
// the bag's accounting (Len, Distinct, Count) against the model, the
// bag's own index against a freshly built one, and the algebraic laws
// of Section 2.1 that the DEL/ADD differentials depend on.
func FuzzBagOps(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 2, 0, 2, 1, 3})
	f.Add([]byte{1, 0, 0, 1, 0, 1, 9, 3, 3, 3})
	f.Add([]byte{0, 5, 1, 0, 5, 2, 2, 0, 5, 3, 255, 0, 0, 0})
	f.Add([]byte{0, 1, 2, 5, 0, 0, 6, 1, 0, 3, 1, 1, 6, 7, 2, 5, 0, 0, 7, 0, 0, 0, 2, 1})

	f.Fuzz(func(t *testing.T, data []byte) {
		b := New()
		model := map[string]int{}
		size := 0

		// Each op consumes up to 3 bytes: opcode, tuple id, count.
		for i := 0; i+2 < len(data); i += 3 {
			tu := schema.Row(int(data[i+1]%5), int(data[i+1]/5%5))
			n := int(data[i+2] % 4)
			key := tu.Key()
			switch data[i] % 8 {
			case 0, 1, 2:
				b.Add(tu, n)
				model[key] += n
			case 3, 4:
				b.Remove(tu, n)
				model[key] -= n
			case 5:
				// The index is asked for mid-sequence, so later ops reach it
				// through the journal, not through a first build.
				if msg := checkIndexOn(b); msg != "" {
					t.Fatal(msg)
				}
			case 6:
				if n == 0 {
					// A burst that overflows the journal window: the bag
					// itself must carry its index across.
					for j := 0; j < 2*window(b)+1; j++ {
						b.Add(tu, 1)
						b.Remove(tu, 1)
					}
					break
				}
				b.ApplyDelta(Of(tu), New().Add(tu, n))
				model[key] = max(model[key]-1, 0) + n
			case 7:
				b.Clear()
				model = map[string]int{}
			}
			// The model mirrors the bag's floor-at-zero semantics.
			if model[key] <= 0 {
				delete(model, key)
			}
			size = 0
			for _, c := range model {
				size += c
			}
		}

		if b.Len() != size {
			t.Fatalf("Len = %d, model says %d", b.Len(), size)
		}
		if b.Distinct() != len(model) {
			t.Fatalf("Distinct = %d, model says %d", b.Distinct(), len(model))
		}
		b.Each(func(tu schema.Tuple, n int) {
			if model[tu.Key()] != n {
				t.Fatalf("Count(%s) = %d, model says %d", tu, n, model[tu.Key()])
			}
		})
		if msg := checkIndexOn(b); msg != "" {
			t.Fatal(msg)
		}

		// Algebraic laws over (b, other), with other built from the tail
		// of the input read in reverse so the two bags differ.
		other := New()
		for i := len(data) - 1; i >= 2; i -= 3 {
			other.Add(schema.Row(int(data[i]%5), int(data[i-1]%5)), 1+int(data[i-2]%2))
		}

		// (b ⊎ o) ∸ o = b  (monus undoes union-all exactly).
		if !Monus(UnionAll(b, other), other).Equal(b) {
			t.Fatal("Monus(UnionAll(b, o), o) != b")
		}
		// The in-place (b ∸ d) ⊎ a equals the pure form, keeps a cached
		// index syncable, and keeps the journal accounting — with d = other
		// (overlapping b, not a sub-bag of it) and a = a slice of both.
		if msg := checkApplyDelta(b, other, Min(UnionAll(b, other), DupElim(other))); msg != "" {
			t.Fatal(msg)
		}
		if msg := checkApplyDelta(b, Max(b, other), other); msg != "" {
			t.Fatal(msg)
		}
		// min is a lower bound of both; max an upper bound of b.
		lo := Min(b, other)
		if !lo.SubBagOf(b) || !lo.SubBagOf(other) {
			t.Fatal("Min(b, o) not a subbag of both arguments")
		}
		if !b.SubBagOf(Max(b, other)) {
			t.Fatal("b not a subbag of Max(b, o)")
		}
		// except ⊆ b and is disjoint from o's support.
		ex := Except(b, other)
		if !ex.SubBagOf(b) {
			t.Fatal("Except(b, o) not a subbag of b")
		}
		ex.Each(func(tu schema.Tuple, n int) {
			if other.Contains(tu) {
				t.Fatalf("Except(b, o) kept %s, which o contains", tu)
			}
		})
		// ε collapses every multiplicity to exactly one.
		DupElim(b).Each(func(tu schema.Tuple, n int) {
			if n != 1 {
				t.Fatalf("DupElim multiplicity %d for %s", n, tu)
			}
		})
		// EachOrdered visits the same contents as Each, just ordered.
		ordered := New()
		b.EachOrdered(func(tu schema.Tuple, n int) { ordered.Add(tu, n) })
		if !ordered.Equal(b) {
			t.Fatal("EachOrdered visited different contents than Each")
		}
	})
}
