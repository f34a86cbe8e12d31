package core

import (
	"fmt"

	"dvm/internal/algebra"
	"dvm/internal/bag"
	"dvm/internal/delta"
)

// PastExpr builds PAST(L, Q) for a BaseLogs/Combined view: the view
// definition with every base table R replaced by (R ∸ ▲R) ⊎ ▼R
// (Section 2.5). Evaluating it in the current state yields Q's value in
// the state recorded by the log's start.
func (m *Manager) PastExpr(v *View) (algebra.Expr, error) {
	if v.Scenario != BaseLogs && v.Scenario != Combined {
		return nil, fmt.Errorf("core: view %q has no log", v.Name)
	}
	// In shared-log mode the private log tables the expression reads are
	// materialized on demand; refresh them (without consuming) so the
	// expression evaluates against the true log window.
	if m.shared != nil {
		if err := m.materializeWindow(v); err != nil {
			return nil, err
		}
	}
	return delta.LogSubst(m.logChangeSet(v)).Apply(v.Def)
}

// CheckInvariant verifies the scenario's database invariant (Figure 1)
// plus the minimality invariants of Section 5.2 for one view, returning
// a descriptive error on the first violation. Intended for tests and
// debugging; it evaluates the view definition from scratch.
func (m *Manager) CheckInvariant(name string) error {
	v, err := m.View(name)
	if err != nil {
		return err
	}
	// In shared-log mode the view's private log tables are only
	// materialized on demand; refresh the window (without consuming it)
	// so PAST(L,Q) and the minimality checks see the true log state.
	if m.shared != nil && (v.Scenario == BaseLogs || v.Scenario == Combined) {
		if err := m.materializeWindow(v); err != nil {
			return err
		}
	}
	mv, err := m.db.Bag(v.mvName)
	if err != nil {
		return err
	}

	switch v.Scenario {
	case Immediate:
		// INV_IM: Q ≡ MV.
		q, err := algebra.Eval(v.Def, m.db)
		if err != nil {
			return err
		}
		if !q.Equal(mv) {
			return fmt.Errorf("core: INV_IM violated for %q: Q=%v MV=%v", name, q, mv)
		}

	case BaseLogs:
		// INV_BL: PAST(L,Q) ≡ MV.
		past, err := m.PastExpr(v)
		if err != nil {
			return err
		}
		p, err := algebra.Eval(past, m.db)
		if err != nil {
			return err
		}
		if !p.Equal(mv) {
			return fmt.Errorf("core: INV_BL violated for %q: PAST(L,Q)=%v MV=%v", name, p, mv)
		}

	case DiffTables:
		// INV_DT: Q ≡ (MV ∸ ∇MV) ⊎ △MV.
		q, err := algebra.Eval(v.Def, m.db)
		if err != nil {
			return err
		}
		if got, err := m.diffApplied(v, mv); err != nil {
			return err
		} else if !q.Equal(got) {
			return fmt.Errorf("core: INV_DT violated for %q: Q=%v (MV∸∇MV)⊎△MV=%v", name, q, got)
		}

	case Combined:
		// INV_C: PAST(L,Q) ≡ (MV ∸ ∇MV) ⊎ △MV.
		past, err := m.PastExpr(v)
		if err != nil {
			return err
		}
		p, err := algebra.Eval(past, m.db)
		if err != nil {
			return err
		}
		if got, err := m.diffApplied(v, mv); err != nil {
			return err
		} else if !p.Equal(got) {
			return fmt.Errorf("core: INV_C violated for %q: PAST(L,Q)=%v (MV∸∇MV)⊎△MV=%v", name, p, got)
		}
	}

	return m.checkMinimality(v, mv)
}

// diffApplied evaluates (MV ∸ ∇MV) ⊎ △MV.
func (m *Manager) diffApplied(v *View, mv *bag.Bag) (*bag.Bag, error) {
	dd, da, err := m.diffBags(v)
	if err != nil {
		return nil, err
	}
	return bag.UnionAll(bag.Monus(mv, dd), da), nil
}

// diffBags returns the view's current ∇MV/△MV contents.
func (m *Manager) diffBags(v *View) (*bag.Bag, *bag.Bag, error) {
	dd, err := m.db.Bag(v.dtDel)
	if err != nil {
		return nil, nil, err
	}
	da, err := m.db.Bag(v.dtAdd)
	if err != nil {
		return nil, nil, err
	}
	return dd, da, nil
}

// checkMinimality verifies the Section 5.2 minimality invariants:
// ▲R ⊑ R for every logged table, and ∇MV ⊑ MV for differential tables.
// With StrongMinimal set, additionally ∇MV min △MV ≡ ∅.
func (m *Manager) checkMinimality(v *View, mv *bag.Bag) error {
	for _, b := range v.bases {
		insName, ok := v.logIns[b]
		if !ok {
			continue
		}
		ins, err := m.db.Bag(insName)
		if err != nil {
			return err
		}
		base, err := m.db.Bag(b)
		if err != nil {
			return err
		}
		if !ins.SubBagOf(base) {
			return fmt.Errorf("core: minimality violated for %q: ▲%s ⋢ %s", v.Name, b, b)
		}
	}
	if v.dtDel != "" {
		dd, da, err := m.diffBags(v)
		if err != nil {
			return err
		}
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
	mv, err := m.db.Bag(v.mvName)
	if err != nil {
		return err
	}
	if !q.Equal(mv) {
		return fmt.Errorf("core: view %q inconsistent after refresh: Q=%v MV=%v", name, q, mv)
	}
	return nil
}
