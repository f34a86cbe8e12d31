package algebra

import "dvm/internal/schema"

// Compile-time join distribution.
//
// The Figure 2 delta queries join small per-transaction deltas against
// "adjusted" base tables of the form R ∸ ▲R or (R ∸ ▲R) ⊎ ▼R (the PAST
// reconstruction), all under one Π. Evaluated literally, every adjusted
// table materializes an O(|R|) bag per propagate — a clone of the base
// table — and any hash index built over it dies with the evaluation,
// because the next propagate materializes a fresh bag. That fixed
// O(|R|) cost per propagate is exactly what deferred maintenance is
// supposed to avoid.
//
// The join kernel reads the commonest adjustment in place: a side
// R ∸ σ_r(X), R a base table under selects, is R's own hash index
// (bag.IndexOn), which follows the table's in-place mutations through
// its journal, with each bucket entry's count lowered by one lookup of
// its key in X (bag.Join.Indexed). What the kernel cannot read is
// rewritten away, exactly, by the bag identities
//
//	σ_p((A ⊎ B) × C) ≡ σ_p(A × C) ⊎ σ_p(B × C)
//	σ_p((A ∸ B) × C) ≡ σ_p(A × C) ∸ σ_p(B × C)
//	Π(A ⊎ B)         ≡ Π(A) ⊎ Π(B)
//
// (the joins symmetrically on the right). For bags with non-negative
// multiplicities the per-tuple join count is the product of the operand
// counts, and multiplication by a non-negative factor distributes over
// both x+y and max(x−y, 0); a projection adds the counts of the tuples it
// merges, which commutes with + but not with max(x−y, 0) — so Π goes
// through ⊎ and stops at ∸. distributeJoins distributes a join over a
// small ∸/⊎ composition containing a base table only where the kernel
// cannot read the side as it is:
//
//   - a ⊎ (the ▼R half of the PAST reconstruction);
//   - a ∸ whose left operand is not a base table under selects
//     ((A ⊎ B) ∸ X, (R ∸ X) ∸ Y, a derived A ∸ X);
//   - the left side of a join whose both sides are R ∸ X: the kernel
//     reads one side through a subtrahend, the indexed one.
//
// Every other term stays one join against the live base bag, and a
// non-renaming Π is pushed through ⊎ onto each σ(×) term, where the
// compiler fuses it into the join: the kernel emits the projected
// tuples.

// Optimize returns e as Compile rewrites it before lowering it: joins
// distributed and selections and projections pushed down as above. The
// result has e's schema and value, and shares what e shares.
func Optimize(e Expr) Expr {
	out, err := distributeJoins(e, make(map[Expr]Expr))
	if err != nil {
		return e
	}
	return out
}

// maxDistLeaves bounds the ∸/⊎ spine size a side may have to be
// distributed: a join over k×l terms emits k·l hash joins, so the
// rewrite is kept to the small adjustment shapes differentiation
// produces rather than arbitrary union trees.
const maxDistLeaves = 4

// distributeJoins rewrites e bottom-up, memoized by node so shared DAG
// nodes rewrite once and stay shared. Nodes that need no rewrite are
// returned as-is (pointer identity preserved).
func distributeJoins(e Expr, memo map[Expr]Expr) (Expr, error) {
	if r, ok := memo[e]; ok {
		return r, nil
	}
	out, err := rewriteNode(e, memo)
	if err != nil {
		return nil, err
	}
	memo[e] = out
	return out, nil
}

func rewriteNode(e Expr, memo map[Expr]Expr) (Expr, error) {
	switch n := e.(type) {
	case *Literal, *Base:
		return e, nil

	case *Select:
		if prod, ok := n.Child.(*Product); ok {
			l, err := distributeJoins(prod.L, memo)
			if err != nil {
				return nil, err
			}
			r, err := distributeJoins(prod.R, memo)
			if err != nil {
				return nil, err
			}
			if l == prod.L && r == prod.R && spreadSide(l, r) == nil {
				return e, nil
			}
			return distJoin(n.Pred, l, r)
		}
		if pushable(n.Child) {
			// σ over a ∸/⊎ composition of products (the Figure 2 delta
			// shape): push the predicate through the spine so each
			// product term becomes a fusable σ(×) hash join instead of
			// a materialized cartesian product under a late filter.
			return pushSelect(n.Pred, n.Child, memo)
		}
		child, err := distributeJoins(n.Child, memo)
		if err != nil {
			return nil, err
		}
		if child == n.Child {
			return e, nil
		}
		return NewSelect(n.Pred, child)

	case *Project:
		child, err := distributeJoins(n.Child, memo)
		if err != nil {
			return nil, err
		}
		if n.rename {
			if child == n.Child {
				return e, nil
			}
			return newRename(child, n.sch), nil
		}
		if _, ok := child.(*UnionAll); ok {
			return pushProject(n, child)
		}
		if child == n.Child {
			return e, nil
		}
		return NewProject(n.Cols, n.OutNames, child)

	case *DupElim:
		child, err := distributeJoins(n.Child, memo)
		if err != nil {
			return nil, err
		}
		if child == n.Child {
			return e, nil
		}
		return NewDupElim(child), nil

	case *UnionAll, *Monus:
		nl, nr, rebuild, _ := spine(e)
		l, err := distributeJoins(nl, memo)
		if err != nil {
			return nil, err
		}
		r, err := distributeJoins(nr, memo)
		if err != nil {
			return nil, err
		}
		if l == nl && r == nr {
			return e, nil
		}
		return rebuild(l, r)

	case *Product:
		l, err := distributeJoins(n.L, memo)
		if err != nil {
			return nil, err
		}
		r, err := distributeJoins(n.R, memo)
		if err != nil {
			return nil, err
		}
		if l == n.L && r == n.R {
			return e, nil
		}
		return NewProduct(l, r), nil
	}
	return e, nil
}

// pushProject rewrites Π(e), p a non-renaming projection, by pushing it
// through e's ⊎ nodes, so that each Π sits on its own term. Each side
// is projected by p's column positions, not names: a ⊎ takes its left
// operand's names, and the right one's may differ.
func pushProject(p *Project, e Expr) (Expr, error) {
	if u, ok := e.(*UnionAll); ok {
		l, err := pushProject(p, u.L)
		if err != nil {
			return nil, err
		}
		r, err := pushProject(p, u.R)
		if err != nil {
			return nil, err
		}
		return NewUnionAll(l, r)
	}
	in := e.Schema()
	cols := make([]string, len(p.positions))
	outCols := make([]schema.Column, len(p.positions))
	for i, pos := range p.positions {
		cols[i] = in.Column(pos).Name
		outCols[i] = schema.Column{Name: p.OutNames[i], Type: in.Column(pos).Type}
	}
	return &Project{Cols: cols, OutNames: p.OutNames, Child: e, positions: p.positions,
		sch: schema.NewSchema(outCols...)}, nil
}

// spine takes a ∸/⊎ node apart: its operands, and the constructor of
// the same operator over new ones. ok is false for any other node.
func spine(e Expr) (l, r Expr, rebuild func(l, r Expr) (Expr, error), ok bool) {
	switch n := e.(type) {
	case *Monus:
		return n.L, n.R, func(l, r Expr) (Expr, error) { return NewMonus(l, r) }, true
	case *UnionAll:
		return n.L, n.R, func(l, r Expr) (Expr, error) { return NewUnionAll(l, r) }, true
	}
	return nil, nil, nil, false
}

// spreadSide returns the operand of σ(l × r) that distJoin distributes
// the join over next, or nil when the kernel reads both as they are:
// the right one if it is distributable but not readable, else the left
// one if it is distributable and either not readable or facing a right
// side the kernel reads through its subtrahend already.
func spreadSide(l, r Expr) Expr {
	switch {
	case distributable(r) && !readable(r):
		return r
	case distributable(l) && (!readable(l) || readable(r)):
		return l
	}
	return nil
}

// distJoin emits the distributed form of σ_p(l × r), recursing through
// the ∸/⊎ spines spreadSide picks and terminating in per-term σ_p(×)
// joins (which emitJoin then lowers to kernel calls).
func distJoin(pred Predicate, l, r Expr) (Expr, error) {
	side := spreadSide(l, r)
	if side == nil {
		return NewSelect(pred, NewProduct(l, r))
	}
	x, y, rebuild, _ := spine(side)
	term := func(s Expr) (Expr, error) { return distJoin(pred, l, s) }
	if side == l {
		term = func(s Expr) (Expr, error) { return distJoin(pred, s, r) }
	}
	a, err := term(x)
	if err != nil {
		return nil, err
	}
	b, err := term(y)
	if err != nil {
		return nil, err
	}
	return rebuild(a, b)
}

// peelSelects strips a chain of Selects bottoming at a (possibly
// renamed) Base, returning the base — renaming included, the stripped
// predicates bind against its names — and the predicates; any other
// shape is returned unchanged (select work over derived inputs stays
// where it was).
func peelSelects(e Expr) (Expr, []Predicate) {
	cur, preds := peelAll(e)
	if !isBase(cur) {
		return e, nil
	}
	return cur, preds
}

// peelAll strips a chain of Selects off any expression, returning what
// is below it and the stripped predicates, which all bind against its
// schema (a σ keeps its child's).
func peelAll(e Expr) (Expr, []Predicate) {
	var preds []Predicate
	for {
		s, ok := e.(*Select)
		if !ok {
			return e, preds
		}
		preds = append(preds, s.Pred)
		e = s.Child
	}
}

// maxPushLeaves bounds the ∸/⊎ spine size the select push-down will
// traverse. A tuple of the spine's union appears in at most one leaf
// per ⊎ and at most two per ∸, so the duplicated predicate work stays
// proportional to the union's size; the bound just keeps the emitted
// node count in check on degenerate trees.
const maxPushLeaves = 8

// pushable reports whether e is a ∸/⊎ composition whose leaves include
// a product — the case where pushing a parent σ through the spine
// turns late-filtered cartesian products into fusable hash joins.
func pushable(e Expr) bool {
	for _, l := range leaves(e, maxPushLeaves) {
		if _, ok := l.(*Product); ok {
			return true
		}
	}
	return false
}

// pushSelect rewrites σ_p(e) by distributing the predicate through e's
// ∸/⊎ spine (exact in bag semantics: per-tuple counts scale by the
// same non-negative [p(t)] factor on every branch). Product leaves
// become σ(×) nodes — further distributed via distJoin where a side is
// a base-table adjustment the kernel cannot read — and other leaves
// keep a σ on top.
func pushSelect(pred Predicate, e Expr, memo map[Expr]Expr) (Expr, error) {
	if l, r, rebuild, ok := spine(e); ok {
		a, err := pushSelect(pred, l, memo)
		if err != nil {
			return nil, err
		}
		b, err := pushSelect(pred, r, memo)
		if err != nil {
			return nil, err
		}
		return rebuild(a, b)
	}
	if n, ok := e.(*Product); ok {
		l, err := distributeJoins(n.L, memo)
		if err != nil {
			return nil, err
		}
		r, err := distributeJoins(n.R, memo)
		if err != nil {
			return nil, err
		}
		return distJoin(pred, l, r)
	}
	rw, err := distributeJoins(e, memo)
	if err != nil {
		return nil, err
	}
	return NewSelect(pred, rw)
}

// distributable reports whether e is a ∸/⊎ composition worth
// distributing a join over: a small spine whose leaves include a base
// table — the case where per-term joins can key a persistent index off
// the live table bag instead of a freshly materialized adjustment.
func distributable(e Expr) bool {
	for _, l := range leaves(e, maxDistLeaves) {
		if baseLeaf(l) {
			return true
		}
	}
	return false
}

// readable reports whether the join kernel reads e as it is: R ∸ X (under
// any renaming), R a base table under selects — R's own index, X by one
// lookup per bucket entry.
func readable(e Expr) bool {
	m, ok := under(e).(*Monus)
	return ok && baseLeaf(m.L)
}

// baseLeaf reports whether e is a base table, possibly renamed, possibly
// under a chain of selects. The compiled join reads such a side off the
// live table bag, running the selects' predicates on its tuples.
func baseLeaf(e Expr) bool {
	b, _ := peelAll(e)
	return isBase(b)
}

// leaves returns the maximal non-∸/⊎ subtrees of e, in order, when e is
// a ∸/⊎ spine of at most max of them that all have e's column names
// position by position, and nil otherwise. A ∸ or ⊎ takes its left
// operand's names, so a predicate bound against e binds other columns,
// or none, on a leaf whose names differ: neither σ nor a join may be
// pushed down to such a leaf.
func leaves(e Expr, max int) []Expr {
	if _, _, _, ok := spine(e); !ok {
		return nil
	}
	out := spineLeaves(e, nil)
	if len(out) > max {
		return nil
	}
	for _, l := range out {
		if !sameColumnNames(l.Schema(), e.Schema()) {
			return nil
		}
	}
	return out
}

// spineLeaves collects the maximal non-∸/⊎ subtrees of e in order.
func spineLeaves(e Expr, out []Expr) []Expr {
	if l, r, _, ok := spine(e); ok {
		return spineLeaves(r, spineLeaves(l, out))
	}
	return append(out, e)
}

// splitConjuncts partitions the top-level conjuncts of p — a predicate
// bound against prod's schema — by the side their attributes resolve to
// there: left-only, right-only, and the rest (cross-side, constant, or an
// OR over both). The test is a bind against the product schema with one
// side's columns listed twice: every name resolving to that side is then
// ambiguous, so the conjunct still binds exactly when it reads only the
// other side — and then binds against that side's own schema to the same
// columns. (Asking each side's schema alone is not enough: "a" finds
// "x.a" in L on its own, yet is R's exact "a" in the product.)
func splitConjuncts(p Predicate, prod *Product) (left, right, rest []Predicate) {
	return splitAt(p, prod.sch, prod.L.Schema(), prod.R.Schema())
}

// splitAt is splitConjuncts for p bound against sch, the concatenation
// of the sides' schemas l and r.
func splitAt(p Predicate, sch, l, r *schema.Schema) (left, right, rest []Predicate) {
	onlyL := sch.Concat(r)
	onlyR := l.Concat(sch)
	for _, c := range flattenAnd(p) {
		_, lerr := c.Bind(onlyL)
		_, rerr := c.Bind(onlyR)
		switch {
		case lerr == nil && rerr != nil:
			left = append(left, c)
		case rerr == nil && lerr != nil:
			right = append(right, c)
		default:
			rest = append(rest, c)
		}
	}
	return left, right, rest
}

// flattenAnd returns the top-level conjuncts of p.
func flattenAnd(p Predicate) []Predicate {
	if a, ok := p.(And); ok {
		var out []Predicate
		for _, sub := range a.Preds {
			out = append(out, flattenAnd(sub)...)
		}
		return out
	}
	return []Predicate{p}
}

// sameColumnNames reports whether two schemas agree on column names
// position by position.
func sameColumnNames(a, b *schema.Schema) bool {
	if a.Len() != b.Len() {
		return false
	}
	for i := 0; i < a.Len(); i++ {
		if a.Column(i).Name != b.Column(i).Name {
			return false
		}
	}
	return true
}
