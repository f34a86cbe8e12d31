package core

import (
	"fmt"

	"dvm/internal/algebra"
	"dvm/internal/bag"
)

// QueryFresh answers a (optionally σ_pred-restricted) query over the
// view's CURRENT value without refreshing it — one answer to the
// paper's Section 7 question "are there algorithms to refresh only
// those parts of a view needed by a given query?". The answer is the
// slice of the stale MV the query asks for, brought up to date with the
// same slice of the pending differential, by the Figure 3 equations:
//
//	IM:  σ(Q) = σ(MV)
//	DT:  σ(Q) = (σ(MV) ∸ σ(∇MV)) ⊎ σ(△MV)
//	C:   propagate_C's body first (log folded into ∇MV/△MV), then as DT
//	BL:  σ(Q) = (σ(MV) ∸ σ(▼(L,Q))) ⊎ σ(▲(L,Q)), evaluated, not installed
//
// so a read costs one pass over MV plus work proportional to the
// differential. pred (which must bind against the view's output schema)
// restricts the answer; pass nil for the whole view. MV is never
// touched — stale readers keep their frozen analysis view (the [AL80]
// use case) and no MV write lock is taken. The one side effect is on a
// Combined view: its log moves into its differential tables, exactly as
// Propagate would move it (INV_C holds before and after), so later
// fresh reads and the next refresh do not pay for that fold again.
// Like every operation that touches auxiliary state, QueryFresh follows
// the manager's single-writer discipline.
func (m *Manager) QueryFresh(name string, pred algebra.Predicate) (*bag.Bag, error) {
	v, err := m.View(name)
	if err != nil {
		return nil, err
	}
	// slice is σ_pred; the identity (no copy) for a whole-view read.
	slice := func(b *bag.Bag) *bag.Bag { return b }
	if pred != nil {
		fn, err := pred.Bind(v.Def.Schema())
		if err != nil {
			return nil, fmt.Errorf("core: fresh query on %q: %w", name, err)
		}
		slice = func(b *bag.Bag) *bag.Bag { return bag.Select(b, fn) }
	}

	// The pending differential (del, add) that MV is behind by.
	var del, add *bag.Bag
	switch v.Scenario {
	case BaseLogs:
		if err = m.materializeIfShared(v); err == nil {
			del, add, err = m.evalDeltaPair(v, nil)
		}
	case Combined:
		if err = m.propagateBody(v, nil, nil); err != nil {
			return nil, err
		}
		m.updateSizeGauges(v)
		fallthrough
	case DiffTables:
		del, add, err = m.diffBags(v)
	}
	if err != nil {
		return nil, err
	}

	var out *bag.Bag
	err = m.locks.WithRead([]string{v.mvName}, func() error {
		mv, err := m.db.Bag(v.mvName)
		if err != nil {
			return err
		}
		if pred == nil {
			out = mv.Clone() // the caller owns the answer; MV stays as it is
		} else {
			out = slice(mv)
		}
		if del != nil {
			out.ApplyDelta(slice(del), slice(add))
		}
		return nil
	})
	return out, err
}
