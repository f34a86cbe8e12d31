package core

import (
	"fmt"

	"dvm/internal/algebra"
	"dvm/internal/bag"
	"dvm/internal/delta"
)

// PastExpr builds PAST(L, Q) for a view with logs: the view definition
// with every base table R replaced by (R ∸ ▲R) ⊎ ▼R (Section 2.5).
// Evaluating it in the current state yields Q's value in the state
// recorded by the log's start.
func (m *Manager) PastExpr(v *View) (algebra.Expr, error) {
	if v.logs == nil {
		return nil, fmt.Errorf("core: view %q has no log", v.Name)
	}
	cs, err := m.changeSet(v, nil)
	if err != nil {
		return nil, err
	}
	return delta.LogSubst(cs).Apply(v.Def)
}

// CheckInvariant verifies the view's database invariant (Figure 1) plus
// the minimality invariants of Section 5.2, returning a descriptive
// error on the first violation. The invariant is one formula over the
// view's two bits: its left side is PAST(L,Q) when the view keeps logs
// and Q when it does not, its right side (MV ∸ ∇MV) ⊎ △MV when it keeps
// differential tables and MV when it does not. Intended for tests and
// debugging; it evaluates the view definition from scratch.
func (m *Manager) CheckInvariant(name string) error {
	v, err := m.View(name)
	if err != nil {
		return err
	}
	left := v.Def
	if v.logs != nil {
		if left, err = m.PastExpr(v); err != nil {
			return err
		}
	}
	lhs, err := algebra.Eval(left, m.db)
	if err != nil {
		return err
	}
	mv := v.mv.Data()
	rhs := mv
	if v.diff != nil {
		rhs = bag.UnionAll(bag.Monus(mv, v.diff.del.Data()), v.diff.add.Data())
	}
	if !lhs.Equal(rhs) {
		return fmt.Errorf("core: INV_%s violated for %q: %s, but the left side is %v and the right side %v", v.inv, name, v.InvariantString(), lhs, rhs)
	}
	return m.checkMinimality(v, mv)
}

// checkMinimality verifies the Section 5.2 minimality invariants:
// ▲R ⊑ R for every logged table, and ∇MV ⊑ MV for differential tables.
// With StrongMinimal set, additionally ∇MV min △MV ≡ ∅.
func (m *Manager) checkMinimality(v *View, mv *bag.Bag) error {
	for _, b := range v.bases {
		p, ok := v.logs[b]
		if !ok {
			continue
		}
		base, err := m.db.Bag(b)
		if err != nil {
			return err
		}
		if !p.add.Data().SubBagOf(base) {
			return fmt.Errorf("core: minimality violated for %q: ▲%s ⋢ %s", v.Name, b, b)
		}
	}
	if v.diff != nil {
		dd, da := v.diff.del.Data(), v.diff.add.Data()
		if !dd.SubBagOf(mv) {
			return fmt.Errorf("core: minimality violated for %q: ∇MV ⋢ MV", v.Name)
		}
		if v.StrongMinimal && !bag.Min(dd, da).Empty() {
			return fmt.Errorf("core: strong minimality violated for %q: ∇MV min △MV ≠ ∅", v.Name)
		}
	}
	return nil
}

// CheckConsistent verifies Q ≡ MV — the postcondition of every refresh_*.
func (m *Manager) CheckConsistent(name string) error {
	v, err := m.View(name)
	if err != nil {
		return err
	}
	q, err := algebra.Eval(v.Def, m.db)
	if err != nil {
		return err
	}
	mv := v.mv.Data()
	if !q.Equal(mv) {
		return fmt.Errorf("core: view %q inconsistent after refresh: Q=%v MV=%v", name, q, mv)
	}
	return nil
}
