package algebra

// Compile-time join distribution.
//
// The Figure 2 delta queries join small per-transaction deltas against
// "adjusted" base tables of the form (R ∸ ▲R) ⊎ ▼R (the PAST
// reconstruction) or R ∸ ∇R. Evaluated literally, every such term
// materializes an O(|R|) bag per propagate — a clone of the base table
// — and any hash index built over it dies with the evaluation, because
// the next propagate materializes a fresh bag. That fixed O(|R|) cost
// per propagate is exactly what deferred maintenance is supposed to
// avoid.
//
// Joins distribute over ∸ and ⊎ in bag semantics: for bags with
// non-negative multiplicities, the per-tuple join count is the product
// of the operand counts, and multiplication by a non-negative factor
// distributes over both x+y and max(x−y, 0). Hence, exactly:
//
//	σ_p((A ∸ B) × C) ≡ σ_p(A × C) ∸ σ_p(B × C)
//	σ_p((A ⊎ B) × C) ≡ σ_p(A × C) ⊎ σ_p(B × C)
//
// (and symmetrically on the right). distributeJoins rewrites fusable
// σ(×) nodes this way whenever a side is a small ∸/⊎ composition
// containing a base table, so the compiled program joins the delta
// against the live base bag directly: the join probes that bag's own
// hash index (bag.IndexOn), which follows the table's in-place mutations
// through its journal and is shared by every term and every view that
// joins on those columns, and the ∸/⊎ arithmetic runs over delta-sized
// join outputs instead of table-sized inputs.

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
			if !distributable(l) && !distributable(r) {
				if l == prod.L && r == prod.R {
					return e, nil
				}
				return NewSelect(n.Pred, NewProduct(l, r))
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
		if child == n.Child {
			return e, nil
		}
		if n.rename {
			return newRename(child, n.sch), nil
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

// distJoin emits the distributed form of σ_p(l × r), recursing through
// the ∸/⊎ spines of distributable sides (the right one first) and
// terminating in per-term σ_p(× ) joins (which emitJoin then lowers to
// hash joins).
func distJoin(pred Predicate, l, r Expr) (Expr, error) {
	var x, y Expr
	var rebuild func(l, r Expr) (Expr, error)
	var term func(side Expr) (Expr, error) // the join with one operand of the spine
	switch {
	case distributable(r):
		x, y, rebuild, _ = spine(r)
		term = func(side Expr) (Expr, error) { return distJoin(pred, l, side) }
	case distributable(l):
		x, y, rebuild, _ = spine(l)
		term = func(side Expr) (Expr, error) { return distJoin(pred, side, r) }
	default:
		return joinTerm(pred, l, r)
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

// joinTerm emits one terminal σ_p(l × r) join, folding σ-chains that
// bottom at a base table into the join's predicate. Exact: σ_q(R)'s
// per-tuple count is R(t)·[q(t)], and q rebinds by column name over the
// product schema, so selecting after the product scales every count by
// the identical factor. That is the algebra; it is not the execution.
// The point of the fold is that the join then reads the live base bag's
// own index — which persists and journal-syncs across evaluations —
// instead of indexing a σ materialization that dies with each one, and
// emitJoin splits the folded predicate back by side: q still runs on
// R's tuple alone, before any pair is formed.
func joinTerm(pred Predicate, l, r Expr) (Expr, error) {
	l2, lp := peelSelects(l)
	r2, rp := peelSelects(r)
	if len(lp) == 0 && len(rp) == 0 {
		return NewSelect(pred, NewProduct(l, r))
	}
	preds := make([]Predicate, 0, 1+len(lp)+len(rp))
	preds = append(preds, pred)
	preds = append(preds, lp...)
	preds = append(preds, rp...)
	return NewSelect(AndOf(preds...), NewProduct(l2, r2))
}

// peelSelects strips a chain of Selects bottoming at a (possibly
// renamed) Base, returning the base — renaming included, the stripped
// predicates bind against its names — and the predicates; any other
// shape is returned unchanged (select work over derived inputs stays
// where it was).
func peelSelects(e Expr) (Expr, []Predicate) {
	cur := e
	var preds []Predicate
	for {
		s, ok := cur.(*Select)
		if !ok {
			break
		}
		preds = append(preds, s.Pred)
		cur = s.Child
	}
	if !isBase(cur) {
		return e, nil
	}
	return cur, preds
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
	switch e.(type) {
	case *Monus, *UnionAll:
	default:
		return false
	}
	leaves := spineLeaves(e, nil)
	if len(leaves) > maxPushLeaves {
		return false
	}
	for _, l := range leaves {
		if _, ok := l.(*Product); ok {
			return true
		}
	}
	return false
}

// pushSelect rewrites σ_p(e) by distributing the predicate through e's
// ∸/⊎ spine (exact in bag semantics: per-tuple counts scale by the
// same non-negative [p(t)] factor on every branch). Product leaves
// become σ(×) nodes — further distributed via distJoin when a side is
// a base-table adjustment — and other leaves keep a σ on top.
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
		if distributable(l) || distributable(r) {
			return distJoin(pred, l, r)
		}
		return NewSelect(pred, NewProduct(l, r))
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
	switch e.(type) {
	case *Monus, *UnionAll:
	default:
		return false
	}
	leaves := spineLeaves(e, nil)
	if len(leaves) > maxDistLeaves {
		return false
	}
	for _, l := range leaves {
		if baseLeaf(l) {
			return true
		}
	}
	return false
}

// baseLeaf reports whether e is a base table, possibly renamed, possibly
// under a chain of selects (the shape the select push-down in Optimize
// produces). Such leaves join directly against the live table bag once
// joinTerm peels the selects into the join predicate.
func baseLeaf(e Expr) bool {
	for {
		s, ok := e.(*Select)
		if !ok {
			break
		}
		e = s.Child
	}
	return isBase(e)
}

// spineLeaves collects the maximal non-∸/⊎ subtrees of e in order.
func spineLeaves(e Expr, out []Expr) []Expr {
	if l, r, _, ok := spine(e); ok {
		return spineLeaves(r, spineLeaves(l, out))
	}
	return append(out, e)
}
