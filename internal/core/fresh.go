package core

import (
	"fmt"

	"dvm/internal/algebra"
	"dvm/internal/bag"
	"dvm/internal/schema"
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
// so a sliced read costs one pass over MV plus work proportional to the
// differential, and a whole-view read the differential (below). pred
// (which must bind against the view's output schema) restricts the
// answer; pass nil for the whole view. MV is never
// touched — stale readers keep their frozen analysis view (the [AL80]
// use case) and no MV write lock is taken. The one side effect is on a
// Combined view: its log moves into its differential tables, exactly as
// Propagate would move it (INV_C holds before and after), so later
// fresh reads and the next refresh do not pay for that fold again.
// Like every operation that touches auxiliary state, QueryFresh follows
// the manager's single-writer discipline.
//
// QueryFresh is ReadFresh collected into a bag the caller owns
// (bag.Applied). A whole-view answer is a Clone of MV with the pending
// differential applied to it: it shares MV's contents and costs the
// differential (and MV's overlay, if it has one), not the view. It marks
// MV shared, as a Query does, and that costs the next refresh no copy of
// MV: the writer prepares MV by bag.Prepare's rent rule. A sliced answer
// is collected from MV, which it only reads.
func (m *Manager) QueryFresh(name string, pred algebra.Predicate) (*bag.Bag, error) {
	var out *bag.Bag
	err := m.readFresh(name, pred, func(mv, del, add *bag.Bag, keep func(schema.Tuple) bool) {
		out = bag.Applied(mv, del, add, keep)
	})
	return out, err
}

// ReadFresh enumerates QueryFresh's answer to f without building it:
// MV's tuples in σ_pred, each count reduced by one lookup in ∇MV (for a
// BaseLogs view, in the evaluated ▼(L,Q)), then △MV's (▲(L,Q)'s). A
// tuple may come twice, once from each half; its multiplicity is the
// sum. Nothing is copied. f runs under MV's shared lock, as Read's
// function does: it may keep the tuples (they are immutable) but must be
// brief and must not call back into the Manager. The side effect on a
// Combined view, and the single-writer discipline, are QueryFresh's.
func (m *Manager) ReadFresh(name string, pred algebra.Predicate, f func(t schema.Tuple, n int)) error {
	return m.readFresh(name, pred, func(mv, del, add *bag.Bag, keep func(schema.Tuple) bool) {
		mv.EachApplied(del, add, keep, f)
	})
}

// readFresh brings the view's pending differential (del, add) up to now
// — a Combined view's log folded, a BaseLogs view's pair evaluated; nil
// for an Immediate view — and runs read over MV, the pair and σ_pred's
// bound predicate (nil for the whole view) under MV's shared lock.
func (m *Manager) readFresh(name string, pred algebra.Predicate, read func(mv, del, add *bag.Bag, keep func(schema.Tuple) bool)) error {
	v, err := m.View(name)
	if err != nil {
		return err
	}
	var keep func(schema.Tuple) bool
	if pred != nil {
		if keep, err = pred.Bind(v.Def.Schema()); err != nil {
			return fmt.Errorf("core: fresh query on %q: %w", name, err)
		}
	}

	// The pending differential (del, add) that MV is behind by: the
	// log's pair, folded into ∇MV/△MV when the view keeps them (as
	// Propagate folds it), and evaluated, not installed, when it does not.
	var del, add *bag.Bag
	if v.logs != nil {
		if v.diff != nil {
			err = m.propagate(v, nil, nil)
			m.updateSizeGauges(v)
		} else {
			del, add, _, err = m.evalLog(v, nil, nil)
		}
		if err != nil {
			return err
		}
	}
	if v.diff != nil {
		del, add = v.diff.del.Data(), v.diff.add.Data()
	}

	return m.locks.WithRead([]string{v.mv.Name()}, func() error {
		read(v.mv.Data(), del, add, keep)
		return nil
	})
}
