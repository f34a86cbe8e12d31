package bag

import "dvm/internal/schema"

// UnionAll returns a ⊎ b: multiplicities add.
func UnionAll(a, b *Bag) *Bag {
	out := a.private()
	out.AddBag(b)
	return out
}

// Applied returns σ_keep((b ∸ del) ⊎ add) as a new bag: what EachApplied
// enumerates. A nil keep keeps every tuple, and a nil del or add is
// empty. Unfiltered, the answer is a Clone of b prepared for and given
// the differential (Prepare, Adopt, ApplyDelta): it shares b's contents,
// and costs what the differential and b's overlay cost, not what b does.
// That marks b shared, but a bag written as Prepare directs owes the
// mark no copy of itself at its next write — at most its overlay.
// Filtered, it is collected under the operands' own keys (none is
// encoded again), and b is only read.
func Applied(b, del, add *Bag, keep func(schema.Tuple) bool) *Bag {
	if keep == nil {
		out := b.Clone()
		pending := 0
		if del != nil {
			pending += del.size
		}
		if add != nil {
			pending += add.size
		}
		if pending > 0 {
			out.Adopt(out.Prepare(pending)) // a Clone is shared, so Prepare never returns nil for it
			out.ApplyDelta(del, add)
		}
		return out
	}
	out := New()
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
	a.each(func(k string, e entry) {
		if n := e.count - b.get(k).count; n > 0 {
			out.m[k] = entry{p: e.p, count: n}
			out.size += n
		}
	})
	return out
}

// Min returns the minimal intersection: per-tuple min(n_a, n_b).
// Defined in the paper as a ∸ (a ∸ b); computed directly here.
func Min(a, b *Bag) *Bag {
	if b.Distinct() < a.Distinct() {
		a, b = b, a
	}
	out := newLike(a)
	a.each(func(k string, e entry) {
		if n := min(e.count, b.get(k).count); n > 0 {
			out.m[k] = entry{p: e.p, count: n}
			out.size += n
		}
	})
	return out
}

// MinWithin returns Min(a, b) restricted to the tuples of the within
// bags, in O(Σ|within|) whatever the sizes of a and b: what two bags
// kept disjoint can have in common after a change that touched only
// those tuples.
func MinWithin(a, b *Bag, within ...*Bag) *Bag {
	out := newLike(a)
	for _, w := range within {
		w.each(func(k string, _ entry) {
			e := a.get(k)
			if n := min(e.count, b.get(k).count); n > 0 && out.m[k].count == 0 {
				out.m[k] = entry{p: e.p, count: n}
				out.size += n
			}
		})
	}
	return out
}

// Max returns the maximal union: per-tuple max(n_a, n_b).
// Defined in the paper as a ⊎ (b ∸ a); computed directly here.
func Max(a, b *Bag) *Bag {
	out := a.private() // out.m is written directly, past the copy-on-write check
	if b.Distinct() > 0 && b.arity != out.arity {
		out.setArity(b.arity) // panics unless a is empty: out would mix arities
	}
	b.each(func(k string, e entry) {
		if have := out.m[k].count; e.count > have {
			out.size += e.count - have
			out.m[k] = e
		}
	})
	return out
}

// Except returns SQL EXCEPT ALL-the-paper's-way: a EXCEPT b removes every
// tuple of a that occurs in b at all, regardless of multiplicity
// (Section 2.1). It equals Π1(σ1=2(a × (ε(a) ∸ b))) but is computed
// directly.
func Except(a, b *Bag) *Bag {
	out := newLike(a)
	a.each(func(k string, e entry) {
		if b.get(k).count == 0 {
			out.m[k] = e
			out.size += e.count
		}
	})
	return out
}

// DupElim returns ε(a): every tuple of a with multiplicity 1.
func DupElim(a *Bag) *Bag {
	out := newLike(a)
	a.each(func(k string, e entry) { out.m[k] = entry{p: e.p, count: 1} })
	out.size = len(out.m)
	return out
}

// Select returns σ_p(a) for a predicate over tuples.
func Select(a *Bag, pred func(schema.Tuple) bool) *Bag {
	out := newLike(a)
	a.each(func(k string, e entry) {
		if pred(a.tupleAt(e.p)) {
			out.m[k] = e
			out.size += e.count
		}
	})
	return out
}

// Project returns Π(a) under a tuple transform. Distinct inputs may map
// to the same output, in which case multiplicities add (bag semantics —
// projection does NOT eliminate duplicates).
func Project(a *Bag, f func(schema.Tuple) schema.Tuple) *Bag {
	out := New()
	a.each(func(_ string, e entry) { out.Add(f(a.tupleAt(e.p)), e.count) })
	return out
}

// Product returns a × b: tuple concatenation, multiplicities multiply.
func Product(a, b *Bag) *Bag {
	out := New()
	a.each(func(ka string, ea entry) {
		b.each(func(kb string, eb entry) {
			// Concat keys compose: key(s ++ t) = key(s) + key(t).
			out.addKeyed(ka+kb, a.tupleAt(ea.p).Concat(b.tupleAt(eb.p)), ea.count*eb.count)
		})
	})
	return out
}

// ProductSelect returns σ_p(a × b) without materializing the full product:
// the join path used by the evaluator.
func ProductSelect(a, b *Bag, pred func(schema.Tuple) bool) *Bag {
	out := New()
	a.each(func(ka string, ea entry) {
		b.each(func(kb string, eb entry) {
			t := a.tupleAt(ea.p).Concat(b.tupleAt(eb.p))
			if pred(t) {
				out.addKeyed(ka+kb, t, ea.count*eb.count)
			}
		})
	})
	return out
}
