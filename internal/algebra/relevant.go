package algebra

import (
	"fmt"
	"slices"

	"dvm/internal/schema"
)

// RelevantFilters derives, from q's definition, the relevant-update
// filter of each base table q reads: a predicate f, bound against the
// table's own schema, such that q reads the table R only through
// σ_f(R). Then Q ≡ Q[σ_f(R)/R] on every state, and a change to R that f
// rejects cannot change Q — the relevant-update detection of [KR87] and
// [SP89], read off the definition instead of written by hand.
//
// The walk carries each σ's conjuncts down to the tables they guard:
// through σ, through × (a conjunct goes to the side whose columns it
// alone reads, as splitConjuncts decides), and through pure renamings ρ,
// below which it stays bound at the renaming's schema, whose positions
// are the table's. It carries nothing below Π, ⊎, ∸, ε or a literal. A
// table's filter is the OR over its occurrences of each occurrence's
// AND; a table with an unguarded occurrence has none and is absent from
// the map. The cost is O(|q|), never O(rows).
func RelevantFilters(q Expr) map[string]Predicate {
	occ := map[string][]Predicate{} // per table, each occurrence's AND; nil when unguarded
	var walk func(e Expr, gs []boundAt)
	walk = func(e Expr, gs []boundAt) {
		switch n := e.(type) {
		case *Base:
			var f Predicate // nil: this occurrence is unguarded
			if len(gs) > 0 {
				ps := make([]Predicate, len(gs))
				for i, g := range gs {
					ps[i] = g
				}
				f = AndOf(ps...)
			}
			occ[n.Name] = append(occ[n.Name], f)
		case *Select:
			for _, c := range flattenAnd(n.Pred) {
				if b, ok := c.(BoolLit); !ok || !b.Value {
					gs = append(gs, boundAt{p: c, sch: n.Schema()})
				}
			}
			walk(n.Child, gs)
		case *Project:
			if !n.rename {
				gs = nil
			}
			walk(n.Child, gs)
		case *Product:
			var l, r []boundAt
			nL := n.L.Schema().Len()
			for _, g := range gs {
				cols := g.sch.Columns()
				ls, rs := schema.NewSchema(cols[:nL:nL]...), schema.NewSchema(cols[nL:]...)
				switch left, right, _ := splitAt(g.p, g.sch, ls, rs); {
				case left != nil:
					l = append(l, boundAt{p: g.p, sch: ls})
				case right != nil:
					r = append(r, boundAt{p: g.p, sch: rs})
				}
			}
			walk(n.L, l)
			walk(n.R, r)
		case *DupElim:
			walk(n.Child, nil)
		case *UnionAll:
			walk(n.L, nil)
			walk(n.R, nil)
		case *Monus:
			walk(n.L, nil)
			walk(n.R, nil)
		}
	}
	walk(q, nil)
	out := map[string]Predicate{}
	for name, fs := range occ {
		switch {
		case slices.Contains(fs, nil):
		case len(fs) == 1:
			out[name] = fs[0]
		default:
			out[name] = OrOf(fs...)
		}
	}
	return out
}

// boundAt is the conjunct p read at sch, a schema with the positions of
// the node the walk has reached (sch's names may be a renaming's). It
// binds against any schema compatible with sch, by sch's names, so a
// filter derived through a renaming binds against the table it renames.
type boundAt struct {
	p   Predicate
	sch *schema.Schema
}

// Bind implements Predicate.
func (b boundAt) Bind(sch *schema.Schema) (func(schema.Tuple) bool, error) {
	if !sch.Compatible(b.sch) {
		return nil, fmt.Errorf("algebra: %s reads %s, not %s", b.p, b.sch, sch)
	}
	return b.p.Bind(b.sch)
}

func (b boundAt) String() string { return b.p.String() }
