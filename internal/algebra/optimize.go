package algebra

import "dvm/internal/schema"

// Optimize rewrites e into an equivalent expression that evaluates
// faster, without changing its schema. The only rewrites applied are
// multiplicity-preserving bag identities:
//
//	σ_p(E ⊎ F)  →  σ_p(E) ⊎ σ_p(F)
//	σ_p(E ∸ F)  →  σ_p(E) ∸ σ_p(F)
//	σ_p(ε(E))   →  ε(σ_p(E))
//	σ_p(σ_q(E)) →  σ_{q∧p}(E)
//	ρ(E ⊎ F)    →  ρ(E) ⊎ ρ(F)      (ρ a pure renaming; likewise ∸)
//
// The last one gives renamings a normal form: ρ sits on the leaves of a
// ∸/⊎ spine, and a selection pushed down stops above ρ(R) for a base
// table R instead of slipping between the two. The join rewrites of
// rewrite.go and the compiler then see ρ(R) wherever a SQL FROM clause
// aliased R, and treat it as R.
//
// Their payoff: the differential algorithms emit σ above unions of
// products, and pushing the selection down exposes σ(E × F) shapes the
// evaluator runs as hash joins instead of materialized cross products.
//
// Selections are pushed only when the predicate re-binds against the
// child (union children may be merely union-compatible, with different
// attribute names); on a bind failure the σ stays where it was.
//
// Node sharing is preserved: if the input DAG references a subexpression
// from several parents, the rewritten DAG shares the rewritten node too,
// keeping the evaluator's memoization effective.
func Optimize(e Expr) Expr {
	return (&optimizer{memo: make(map[Expr]Expr)}).rewrite(e)
}

// OptimizePair rewrites two expressions with a SHARED rewrite memo so
// that subexpressions shared between them (the rule for DEL/ADD pairs
// from the differ) remain pointer-shared afterwards, keeping a shared
// evaluator's memoization effective across both.
func OptimizePair(a, b Expr) (Expr, Expr) {
	o := &optimizer{memo: make(map[Expr]Expr)}
	return o.rewrite(a), o.rewrite(b)
}

type optimizer struct {
	memo map[Expr]Expr
}

func (o *optimizer) rewrite(e Expr) Expr {
	if out, ok := o.memo[e]; ok {
		return out
	}
	out := o.rewriteNode(e)
	o.memo[e] = out
	return out
}

func (o *optimizer) rewriteNode(e Expr) Expr {
	switch n := e.(type) {
	case *Literal, *Base:
		return e
	case *Select:
		child := o.rewrite(n.Child)
		return o.pushSelect(n.Pred, child)
	case *Project:
		c := o.rewrite(n.Child)
		if n.rename {
			return sinkRename(n, c)
		}
		p, err := NewProject(n.Cols, n.OutNames, c)
		if err != nil {
			return e
		}
		return p
	case *DupElim:
		return NewDupElim(o.rewrite(n.Child))
	case *UnionAll:
		u, err := NewUnionAll(o.rewrite(n.L), o.rewrite(n.R))
		if err != nil {
			return e
		}
		return u
	case *Monus:
		m, err := NewMonus(o.rewrite(n.L), o.rewrite(n.R))
		if err != nil {
			return e
		}
		return m
	case *Product:
		return NewProduct(o.rewrite(n.L), o.rewrite(n.R))
	}
	return e
}

// sinkRename places the renaming ρ above child, or on child's leaves
// when child is a ∸/⊎ spine (exact: ρ changes no tuple).
func sinkRename(rho *Project, child Expr) Expr {
	if l, r, rebuild, ok := spine(child); ok {
		out, _ := rebuild(sinkRename(rho, l), sinkRename(rho, r)) // both sides now have ρ's schema
		return out
	}
	if child == rho.Child {
		return rho
	}
	return newRename(child, rho.sch)
}

// pushSelect places σ_p above child, pushing it through union, monus,
// duplicate elimination, and nested selections where the predicate still
// binds. It returns a valid expression in all cases. Children reached
// here are already rewritten (and memoized) by rewrite.
func (o *optimizer) pushSelect(p Predicate, child Expr) Expr {
	keep := func() Expr {
		s, err := NewSelect(p, child)
		if err != nil {
			// The caller only re-binds predicates that bound before the
			// rewrite; schemas are preserved, so this cannot happen.
			panic("algebra: optimize lost predicate bindability: " + err.Error())
		}
		return s
	}
	if l, r, rebuild, ok := spine(child); ok {
		// Binary set operations take the LEFT schema's names; pushing
		// into the right side is only sound when its names coincide
		// positionally (name-based binding would silently pick different
		// columns otherwise).
		if !sameColumnNames(l.Schema(), r.Schema()) {
			return keep()
		}
		out, err := rebuild(o.pushSelect(p, l), o.pushSelect(p, r))
		if err != nil {
			return keep()
		}
		return out
	}
	switch n := child.(type) {
	case *DupElim:
		// σ_p(ε(E)) ≡ ε(σ_p(E)): filtering then deduplicating equals
		// deduplicating then filtering.
		if _, err := NewSelect(p, n.Child); err != nil {
			return keep()
		}
		return NewDupElim(o.pushSelect(p, n.Child))
	case *Select:
		merged := AndOf(n.Pred, p)
		if _, err := NewSelect(merged, n.Child); err != nil {
			return keep()
		}
		return o.pushSelect(merged, n.Child)
	case *Project:
		if isBase(n) {
			return keep() // σ(ρ(R)): the form joinTerm peels into a join on R's live bag
		}
		// σ_p(Π_{cols→outs}(E)) ≡ Π(σ_{p'}(E)) with p' renamed through
		// the projection. Only safe when every referenced attribute maps
		// back unambiguously.
		ren, ok := renameThroughProject(p, n)
		if !ok {
			return keep()
		}
		if _, err := NewSelect(ren, n.Child); err != nil {
			return keep()
		}
		out, err := NewProject(n.Cols, n.OutNames, o.pushSelect(ren, n.Child))
		if err != nil {
			return keep()
		}
		return out
	case *Product:
		// Split a conjunction: conjuncts over one side alone commute
		// with ×; the rest (including equi-join pairs) stays above the
		// product so the evaluator's hash-join path still sees it.
		left, right, rest := splitConjuncts(p, n)
		if left == nil && right == nil {
			return keep()
		}
		l, r := n.L, n.R
		if left != nil {
			l = o.pushSelect(AndOf(left...), n.L)
		}
		if right != nil {
			r = o.pushSelect(AndOf(right...), n.R)
		}
		prod := NewProduct(l, r)
		residual := Predicate(AndOf(rest...))
		s, err := NewSelect(residual, prod)
		if err != nil {
			return keep()
		}
		return s
	default:
		return keep()
	}
}

// renameThroughProject rewrites p's attribute references from a
// projection's output names to its source column names. It fails (ok =
// false) when a reference does not resolve or a source mapping is
// ambiguous.
func renameThroughProject(p Predicate, proj *Project) (Predicate, bool) {
	mapping := map[string]string{}
	for i, out := range proj.OutNames {
		if _, dup := mapping[out]; dup {
			return nil, false
		}
		mapping[out] = proj.Cols[i]
	}
	resolve := func(name string) (string, bool) {
		if src, ok := mapping[name]; ok {
			return src, ok
		}
		// Unqualified reference to a qualified output ("custId" for
		// "c.custId") — resolve through the projection's own schema.
		pos, err := proj.Schema().Lookup(name)
		if err != nil {
			return "", false
		}
		return proj.Cols[pos], true
	}
	var scalar func(s Scalar) (Scalar, bool)
	scalar = func(s Scalar) (Scalar, bool) {
		switch x := s.(type) {
		case Attr:
			src, ok := resolve(x.Name)
			if !ok {
				return nil, false
			}
			return Attr{Name: src}, true
		case Const:
			return x, true
		case Arith:
			l, ok := scalar(x.L)
			if !ok {
				return nil, false
			}
			r, ok := scalar(x.R)
			if !ok {
				return nil, false
			}
			return Arith{Op: x.Op, L: l, R: r}, true
		}
		return nil, false
	}
	var pred func(p Predicate) (Predicate, bool)
	pred = func(p Predicate) (Predicate, bool) {
		switch x := p.(type) {
		case Cmp:
			l, ok := scalar(x.L)
			if !ok {
				return nil, false
			}
			r, ok := scalar(x.R)
			if !ok {
				return nil, false
			}
			return Cmp{Op: x.Op, L: l, R: r}, true
		case And:
			out := make([]Predicate, len(x.Preds))
			for i, sub := range x.Preds {
				q, ok := pred(sub)
				if !ok {
					return nil, false
				}
				out[i] = q
			}
			return And{Preds: out}, true
		case Or:
			out := make([]Predicate, len(x.Preds))
			for i, sub := range x.Preds {
				q, ok := pred(sub)
				if !ok {
					return nil, false
				}
				out[i] = q
			}
			return Or{Preds: out}, true
		case Not:
			q, ok := pred(x.Pred)
			if !ok {
				return nil, false
			}
			return Not{Pred: q}, true
		case BoolLit:
			return x, true
		}
		return nil, false
	}
	return pred(p)
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
