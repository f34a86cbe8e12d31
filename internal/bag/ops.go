package bag

import "dvm/internal/schema"

// UnionAll returns a ⊎ b: multiplicities add.
func UnionAll(a, b *Bag) *Bag {
	out := a.private()
	out.AddBag(b)
	return out
}

// Applied returns σ_keep((b ∸ del) ⊎ add) as a new bag: what EachApplied
// enumerates, collected under the operands' own keys (none is encoded
// again). Unfiltered it is pre-sized for b and add, so it never regrows,
// and b is only read — it is not marked shared, as a Clone would mark
// it. A nil keep keeps every tuple, and a nil del or add is empty.
func Applied(b, del, add *Bag, keep func(schema.Tuple) bool) *Bag {
	n := 0
	if keep == nil {
		n = len(b.m)
		if add != nil {
			n += len(add.m)
		}
	}
	out := NewSized(n)
	b.eachApplied(del, add, keep, func(k string, t schema.Tuple, n int) { out.addKeyed(k, t, n) })
	return out
}

// The operators below write their output's map directly, past addKeyed,
// so each sets the output's arity itself: that of the operand its
// entries come from.

// newLike returns an empty bag for entries taken from a.
func newLike(a *Bag) *Bag {
	out := New()
	out.arity = a.arity
	return out
}

// Monus returns a ∸ b: per-tuple multiplicity max(0, n_a - n_b).
// This is the paper's "∸" operator, distinct from SQL EXCEPT.
func Monus(a, b *Bag) *Bag {
	out := newLike(a)
	for k, e := range a.m {
		n := e.count - b.m[k].count
		if n > 0 {
			out.m[k] = entry{p: e.p, count: n}
			out.size += n
		}
	}
	return out
}

// Min returns the minimal intersection: per-tuple min(n_a, n_b).
// Defined in the paper as a ∸ (a ∸ b); computed directly here.
func Min(a, b *Bag) *Bag {
	if len(b.m) < len(a.m) {
		a, b = b, a
	}
	out := newLike(a)
	for k, e := range a.m {
		n := e.count
		if bn := b.m[k].count; bn < n {
			n = bn
		}
		if n > 0 {
			out.m[k] = entry{p: e.p, count: n}
			out.size += n
		}
	}
	return out
}

// MinWithin returns Min(a, b) restricted to the tuples of the within
// bags, in O(Σ|within|) whatever the sizes of a and b: what two bags
// kept disjoint can have in common after a change that touched only
// those tuples.
func MinWithin(a, b *Bag, within ...*Bag) *Bag {
	out := newLike(a)
	for _, w := range within {
		for k := range w.m {
			e := a.m[k]
			if n := min(e.count, b.m[k].count); n > 0 && out.m[k].count == 0 {
				out.m[k] = entry{p: e.p, count: n}
				out.size += n
			}
		}
	}
	return out
}

// Max returns the maximal union: per-tuple max(n_a, n_b).
// Defined in the paper as a ⊎ (b ∸ a); computed directly here.
func Max(a, b *Bag) *Bag {
	out := a.private() // out.m is written directly, past the copy-on-write check
	if len(b.m) > 0 && b.arity != out.arity {
		out.setArity(b.arity) // panics unless a is empty: out would mix arities
	}
	for k, e := range b.m {
		if have := out.m[k].count; e.count > have {
			out.size += e.count - have
			out.m[k] = e
		}
	}
	return out
}

// Except returns SQL EXCEPT ALL-the-paper's-way: a EXCEPT b removes every
// tuple of a that occurs in b at all, regardless of multiplicity
// (Section 2.1). It equals Π1(σ1=2(a × (ε(a) ∸ b))) but is computed
// directly.
func Except(a, b *Bag) *Bag {
	out := newLike(a)
	for k, e := range a.m {
		if b.m[k].count == 0 {
			out.m[k] = e
			out.size += e.count
		}
	}
	return out
}

// DupElim returns ε(a): every tuple of a with multiplicity 1.
func DupElim(a *Bag) *Bag {
	out := newLike(a)
	for k, e := range a.m {
		out.m[k] = entry{p: e.p, count: 1}
	}
	out.size = len(out.m)
	return out
}

// Select returns σ_p(a) for a predicate over tuples.
func Select(a *Bag, pred func(schema.Tuple) bool) *Bag {
	out := newLike(a)
	for k, e := range a.m {
		if pred(a.tupleAt(e.p)) {
			out.m[k] = e
			out.size += e.count
		}
	}
	return out
}

// Project returns Π(a) under a tuple transform. Distinct inputs may map
// to the same output, in which case multiplicities add (bag semantics —
// projection does NOT eliminate duplicates).
func Project(a *Bag, f func(schema.Tuple) schema.Tuple) *Bag {
	out := New()
	for _, e := range a.m {
		out.Add(f(a.tupleAt(e.p)), e.count)
	}
	return out
}

// Product returns a × b: tuple concatenation, multiplicities multiply.
func Product(a, b *Bag) *Bag {
	out := New()
	for ka, ea := range a.m {
		for kb, eb := range b.m {
			// Concat keys compose: key(s ++ t) = key(s) + key(t).
			out.addKeyed(ka+kb, a.tupleAt(ea.p).Concat(b.tupleAt(eb.p)), ea.count*eb.count)
		}
	}
	return out
}

// ProductSelect returns σ_p(a × b) without materializing the full product:
// the join path used by the evaluator.
func ProductSelect(a, b *Bag, pred func(schema.Tuple) bool) *Bag {
	out := New()
	for ka, ea := range a.m {
		for kb, eb := range b.m {
			t := a.tupleAt(ea.p).Concat(b.tupleAt(eb.p))
			if pred(t) {
				out.addKeyed(ka+kb, t, ea.count*eb.count)
			}
		}
	}
	return out
}
