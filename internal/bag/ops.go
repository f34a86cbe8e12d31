package bag

import "dvm/internal/schema"

// UnionAll returns a ⊎ b: multiplicities add.
func UnionAll(a, b *Bag) *Bag {
	out := a.private(b.Distinct())
	out.AddBag(b)
	return out
}

// Applied returns σ_keep((b ∸ del) ⊎ add) as a new bag: what EachApplied
// enumerates. A nil keep keeps every tuple, and a nil del or add is
// empty. Unfiltered, the answer is a Clone of b prepared for and given
// the differential (Prepare, Adopt, ApplyDelta): it shares b's contents,
// and costs what the differential and b's overlay cost, not what b does.
// That marks a large b shared, but a bag written as Prepare directs owes
// the mark no copy of itself at its next write — at most its overlay; a
// small b is copied and not marked. Filtered, it is collected under the
// operands' own hashes (no tuple is encoded again), and b is only read.
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
			if p := out.Prepare(pending); p != nil { // nil for a small b, whose Clone is a copy
				out.Adopt(p)
			}
			out.ApplyDelta(del, add)
		}
		return out
	}
	out := New()
	b.eachApplied(del, add, keep, func(h uint32, t schema.Tuple, n int) { out.addKeyed(h, t, n) })
	return out
}

// The operators below write their output past addKeyed, so each sets
// the output's arity itself: that of the operand its entries come from.
// An entry that is new to the output goes in through putNew, under its
// operand's hash.

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
	a.each(func(h uint32, e entry) {
		if n := e.count - b.get(h, a.tupleAt(e.p)).count; n > 0 {
			out.putNew(h, entry{p: e.p, count: n})
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
	a.each(func(h uint32, e entry) {
		if n := min(e.count, b.get(h, a.tupleAt(e.p)).count); n > 0 {
			out.putNew(h, entry{p: e.p, count: n})
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
		w.each(func(h uint32, we entry) {
			t := w.tupleAt(we.p)
			e := a.get(h, t)
			if n := min(e.count, b.get(h, t).count); n > 0 && out.get(h, t).count == 0 {
				out.putNew(h, entry{p: e.p, count: n})
			}
		})
	}
	return out
}

// Max returns the maximal union: per-tuple max(n_a, n_b).
// Defined in the paper as a ⊎ (b ∸ a); computed directly here.
func Max(a, b *Bag) *Bag {
	out := a.private(b.Distinct()) // out is written past the copy-on-write check
	if b.Distinct() > 0 && b.arity != out.arity {
		out.setArity(int(b.arity)) // panics unless a is empty: out would mix arities
	}
	b.each(func(h uint32, e entry) {
		i, s := out.find(&out.table, h, b.tupleAt(e.p))
		switch {
		case i < 0:
			out.size += e.count
			out.add(h, e.p, e.count, s)
		case e.count > out.count(i):
			out.size += e.count - out.count(i)
			out.setCount(i, e.count)
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
	a.each(func(h uint32, e entry) {
		if b.get(h, a.tupleAt(e.p)).count == 0 {
			out.putNew(h, e)
		}
	})
	return out
}

// DupElim returns ε(a): every tuple of a with multiplicity 1.
func DupElim(a *Bag) *Bag {
	out := newLike(a)
	a.each(func(h uint32, e entry) { out.putNew(h, entry{p: e.p, count: 1}) })
	return out
}

// Select returns σ_p(a) for a predicate over tuples. Its output starts
// small whatever a's size: the first smallMax matches are held on the
// stack, and a bag of their number takes them at the end, one object
// (NewSized) — a DELETE's few rows out of a large table cost no
// position table. The next match moves the output to a table with room
// for twice smallMax, which grows from there.
func Select(a *Bag, pred func(schema.Tuple) bool) *Bag {
	type match struct {
		h uint32
		e entry
	}
	var (
		first [smallMax]match
		n     int
		out   *Bag
	)
	a.each(func(h uint32, e entry) {
		switch {
		case !pred(a.tupleAt(e.p)):
		case out != nil:
			out.putNew(h, e)
		case n < smallMax:
			first[n] = match{h: h, e: e}
			n++
		default:
			out = NewSized(2 * smallMax)
			out.arity = a.arity
			for _, m := range first {
				out.putNew(m.h, m.e)
			}
			out.putNew(h, e)
		}
	})
	if out == nil {
		out = NewSized(n)
		out.arity = a.arity
		for _, m := range first[:n] {
			out.putNew(m.h, m.e)
		}
	}
	return out
}

// Project returns Π(a) under a tuple transform. Distinct inputs may map
// to the same output, in which case multiplicities add (bag semantics —
// projection does NOT eliminate duplicates).
func Project(a *Bag, f func(schema.Tuple) schema.Tuple) *Bag {
	out := New()
	a.each(func(_ uint32, e entry) { out.Add(f(a.tupleAt(e.p)), e.count) })
	return out
}

// Product returns a × b: tuple concatenation, multiplicities multiply.
func Product(a, b *Bag) *Bag {
	return ProductSelect(a, b, func(schema.Tuple) bool { return true })
}

// ProductSelect returns σ_p(a × b) without materializing the full product:
// the join path used by the evaluator. A concatenation's key is its
// halves' keys appended (a per-value self-delimiting encoding), so each
// left tuple is encoded once, and each output's hash is taken over its
// key built beside it.
func ProductSelect(a, b *Bag, pred func(schema.Tuple) bool) *Bag {
	out := New()
	var kb [128]byte
	a.each(func(_ uint32, ea entry) {
		lt := a.tupleAt(ea.p)
		lk := lt.AppendKey(kb[:0])
		b.each(func(_ uint32, eb entry) {
			rt := b.tupleAt(eb.p)
			if t := lt.Concat(rt); pred(t) {
				out.addKeyed(keyHash(rt.AppendKey(lk)), t, ea.count*eb.count)
			}
		})
	})
	return out
}
