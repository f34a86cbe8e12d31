package core

import (
	"fmt"

	"dvm/internal/bag"
	"dvm/internal/obs"
	"dvm/internal/obs/trace"
	"dvm/internal/storage"
	"dvm/internal/txn"
)

// Refresh brings the view table up to date ({INV_*} refresh_* {Q ≡ MV},
// Figure 3), in one path over the view's two bits. Under MV's write
// lock it folds the log, if the view keeps one, into ∇MV/△MV if it
// keeps them (propagate_C) and otherwise into MV (refresh_BL, which
// evaluates the log's pair under the lock: that is BL's downtime); then
// it applies ∇MV/△MV, if it keeps them (refresh_DT, and refresh_C as
// propagate_C followed by partial_refresh_C: Policy 1's downtime covers
// the final propagate). A view with neither is already fresh (INV_IM
// implies Q ≡ MV): its refresh takes no lock.
func (m *Manager) Refresh(name string) error {
	v, err := m.View(name)
	if err != nil {
		return err
	}
	s := m.begin(v, obs.PhaseRefresh, trace.Str("scenario", v.inv))
	defer s.end()
	if v.logs == nil && v.diff == nil {
		return nil
	}
	return m.refresh(v, s.sp, true)
}

// refresh is every refresh_* and partial_refresh_C: under MV's write
// lock, the log folded first when fold is set and the view keeps one,
// then MV := (MV ∸ ∇MV) ⊎ △MV when it keeps differential tables, and
// ∇MV := ∅; △MV := ∅ once the lock is released. The differential
// tables are the single writer's own state — no reader of MV sees them
// — so emptying them is not downtime, and readers wait only for the
// log fold and the O(|∇MV|+|△MV|) in-place apply.
func (m *Manager) refresh(v *View, parent *trace.Span, fold bool) error {
	fold = fold && v.logs != nil
	pending := v.diffVolume()
	if fold {
		pending += m.logDebt(v)
	}
	w := m.unshareMVs(func(*View) int { return pending }, v)
	err := m.locks.WithWriteSpan(w.tables, parent, func(h txn.Held) error {
		w.adoptLocked(h)
		x := exclusive(h, v)
		defer x.end()
		asp := x.span()
		if fold {
			if err := m.foldLogLocked(h, v, asp); err != nil {
				return err
			}
		}
		if v.diff != nil {
			asp.SetAttrs(trace.Int("diff_tuples", int64(v.diffVolume())))
			m.applyDiffTablesLocked(h, v)
		}
		return nil
	})
	if err != nil {
		return err
	}
	if v.diff != nil {
		m.clearDiffTables(v)
	}
	return nil
}

// applyToMVLocked installs MV := (MV ∸ del) ⊎ add in place, in
// O(|del|+|add|): the one way a maintenance transaction changes a view
// table (makesafe_IM, refresh_BL, refresh_DT, partial_refresh_C), so
// the exclusive lock is held for work proportional
// to the differential, never to the view. del and add are only read.
// The txn.Held is the caller's MV write lock.
func (m *Manager) applyToMVLocked(_ txn.Held, v *View, del, add *bag.Bag) {
	v.mv.Data().ApplyDelta(del, add)
}

// mvWrite is one write's MV lock set, with the MVs it changes that a
// Query left shared, each prepared for the write: unshareMVs prepares
// them before the write locks, adoptLocked installs them under the locks.
type mvWrite struct {
	tables   []string
	mvs, own []*bag.Bag
}

// unshareMVs is the first step of every in-place write to view tables:
// makesafe_IM, refresh_BL, refresh_DT, partial_refresh_C and refresh_C.
// (RefreshRecompute installs a new bag and owes nothing.) A Query's
// answer is a copy-on-write Clone of MV, so an MV that a reader has
// taken since its last write must not be written where the reader's
// answer would see it. pending(v) is the volume of what the write may
// install into v's MV, zero if it leaves MV alone. When it is not zero,
// bag.Prepare decides, here, before the exclusive locks are requested,
// what MV owes: nothing, an O(1) switch to a frozen base under a private
// overlay, a copy of the overlay, or a fold into one map — by its rent
// rule, so the bytes follow the changes rather than MV. Readers only
// read MV, and the writer is MV's only mutator. Under the locks
// adoptLocked only swaps the result in, in O(1) per view, so the hold
// stays O(|∇MV|+|△MV|). However many readers took a Query, the writer
// pays once. The write locks w.tables, the views' MVs.
func (m *Manager) unshareMVs(pending func(*View) int, views ...*View) mvWrite {
	w := mvWrite{tables: make([]string, len(views))}
	for i, v := range views {
		w.tables[i] = v.mv.Name()
		n := pending(v)
		if n == 0 {
			continue
		}
		mv := v.mv.Data()
		if p := mv.Prepare(n); p != nil {
			w.mvs, w.own = append(w.mvs, mv), append(w.own, p)
		}
	}
	return w
}

// adoptLocked installs what unshareMVs prepared, under the MV write
// locks the txn.Held proves.
func (w mvWrite) adoptLocked(txn.Held) {
	for i, mv := range w.mvs {
		mv.Adopt(w.own[i])
	}
}

// mergeDelta installs a (del, add) pair into an auxiliary table pair by
// the composition lemma (Lemma 3), in place and in O(|del|+|add|):
//
//	Del := Del ⊎ (del ∸ Add);  Add := (Add ∸ del) ⊎ add
//
// with del ∸ Add taken against the pre-state, as the simultaneous
// assignment demands: Del is updated first, and del ∸ Add is never
// built (Bag.AddMonus). Next to applyToMVLocked it is the only other way
// a maintenance transaction installs a pair: every log extension
// (makesafe_BL/makesafe_C on (▼R, ▲R)) and every differential fold
// (makesafe_DT and propagate_C on (∇MV, △MV)) is this function, so
// each costs the size of its delta,
// never of the table it updates. strong additionally keeps the pair
// disjoint — the strongly minimal analog of Lemma 3 the paper sketches
// in Section 5.3: a tuple in both ∇MV and △MV cancels, which preserves
// (MV ∸ ∇MV) ⊎ △MV because ∇MV ⊑ MV. The tables were disjoint before,
// so only del's and add's tuples can collide, and the cancellation
// looks at no others. del and add are only read. The caller holds
// whatever locks guard the two tables.
func mergeDelta(delT, addT *storage.Table, del, add *bag.Bag, strong bool) {
	delT.Data().AddMonus(del, addT.Data()) // del ∸ Add, against Add's pre-state
	addT.Data().ApplyDelta(del, add)
	if !strong {
		return
	}
	if cancel := bag.MinWithin(delT.Data(), addT.Data(), del, add); !cancel.Empty() {
		delT.Data().ApplyDelta(cancel, nil)
		addT.Data().ApplyDelta(cancel, nil)
	}
}

// mergeDiff is mergeDelta into the view's differential tables:
// makesafe_DT's and propagate_C's install step.
func (m *Manager) mergeDiff(v *View, del, add *bag.Bag) {
	mergeDelta(v.diff.del, v.diff.add, del, add, v.StrongMinimal)
}

// evalLog loads the view's pending log — under shared logs, its window
// of the shared log — records its volume as sp's log_tuples, and
// evaluates the post-update pair (▼(L,Q), ▲(L,Q)) over it, returning
// the pair and the log's volume n. Every term of the pair carries a log
// factor, so an empty log's pair is (∅, ∅): it is not evaluated, and
// comes back nil. parent anchors the evaluation's span.
func (m *Manager) evalLog(v *View, sp, parent *trace.Span) (del, add *bag.Bag, n int, err error) {
	if m.shared != nil {
		if err := m.materializeWindow(v); err != nil {
			return nil, nil, 0, err
		}
	}
	n = v.logVolume()
	sp.SetAttrs(trace.Int("log_tuples", int64(n)))
	if n == 0 {
		return nil, nil, 0, nil
	}
	del, add, err = m.evalDeltaPair(siteLog, v, m.db, parent)
	return del, add, n, err
}

// foldLogLocked is the log step of refresh_BL and refresh_C: the log's
// pair installed into ∇MV/△MV when the view keeps them (propagate_C),
// into MV when it does not, and the log emptied, under the MV write lock
// h proves.
func (m *Manager) foldLogLocked(h txn.Held, v *View, sp *trace.Span) error {
	if err := m.failAt(siteFold); err != nil {
		return err
	}
	if v.diff != nil {
		return m.propagate(v, sp, sp)
	}
	del, add, n, err := m.evalLog(v, sp, sp)
	if err != nil {
		return err
	}
	v.met.refreshTuples.Add(int64(n))
	if n > 0 {
		m.applyToMVLocked(h, v, del, add)
	}
	m.clearLogs(v, n)
	return nil
}

// clearLogs is L := ∅, run once the log's pair has been installed: the
// view's log tables emptied (when they hold the n > 0 tuples just
// folded) and, under shared logs, its cursors moved past the window.
func (m *Manager) clearLogs(v *View, n int) {
	if n > 0 {
		for _, b := range v.bases {
			v.logs[b].del.Clear()
			v.logs[b].add.Clear()
		}
	}
	if m.shared != nil {
		m.advanceCursors(v)
	}
}

// applyDiffTablesLocked installs MV := (MV ∸ ∇MV) ⊎ △MV, in place, so
// the work under the lock is O(|∇MV|+|△MV|); the caller empties the
// differential tables afterwards (clearDiffTables). h is the MV write
// lock.
func (m *Manager) applyDiffTablesLocked(h txn.Held, v *View) {
	v.met.refreshTuples.Add(int64(v.diffVolume()))
	m.applyToMVLocked(h, v, v.diff.del.Data(), v.diff.add.Data())
}

// clearDiffTables is ∇MV := ∅; △MV := ∅: the second half of
// refresh_DT / partial_refresh_C, and of a recompute.
func (m *Manager) clearDiffTables(v *View) {
	v.diff.del.Clear()
	v.diff.add.Clear()
}

// Propagate implements propagate_C: fold the log's post-update
// incremental queries into the differential tables and empty the log,
// without touching MV (so no view downtime):
//
//	∇MV := ∇MV ⊎ (▼(L,Q) ∸ △MV)
//	△MV := (△MV ∸ ▼(L,Q)) ⊎ ▲(L,Q)
//	L := ∅
func (m *Manager) Propagate(name string) error {
	v, err := m.View(name)
	if err != nil {
		return err
	}
	if v.logs == nil || v.diff == nil {
		return fmt.Errorf("core: propagate is only defined for the Combined scenario (view %q is %s)", name, v.inv)
	}
	s := m.begin(v, obs.PhasePropagate)
	defer s.end()
	return m.propagate(v, s.sp, s.sp)
}

// propagate is propagate_C without its instrumentation, shared by
// Propagate, refresh_C and QueryFresh: the log's pair merged into the
// differential tables, and the log emptied. It never touches MV and
// needs no MV lock, only the manager's single-writer discipline. sp
// receives the log_tuples attribute; parent anchors the evaluation's
// span.
func (m *Manager) propagate(v *View, sp, parent *trace.Span) error {
	del, add, n, err := m.evalLog(v, sp, parent)
	if err != nil {
		return err
	}
	if n > 0 {
		v.met.propagateTuples.Add(int64(n))
		m.mergeDiff(v, del, add)
	}
	m.clearLogs(v, n)
	return nil
}

// PartialRefresh implements partial_refresh_C: apply the precomputed
// differential tables to MV ({INV_C} partial_refresh_C {PAST(L,Q) ≡ MV}).
// This is Policy 2's refresh step and has the minimal possible downtime.
func (m *Manager) PartialRefresh(name string) error {
	v, err := m.View(name)
	if err != nil {
		return err
	}
	if v.diff == nil {
		return fmt.Errorf("core: partial refresh needs differential tables (view %q is %s)", name, v.inv)
	}
	s := m.begin(v, obs.PhasePartialRefresh)
	defer s.end()
	return m.refresh(v, s.sp, false)
}

// RefreshRecompute is the non-incremental baseline: recompute Q from
// scratch under the MV write lock and discard all auxiliary state. E8
// (TestE8RefreshCostsTheLogRecomputeTheTables) compares it with Refresh.
func (m *Manager) RefreshRecompute(name string) error {
	v, err := m.View(name)
	if err != nil {
		return err
	}
	s := m.begin(v, obs.PhaseRecompute)
	defer s.end()
	return m.locks.WithWriteSpan([]string{v.mv.Name()}, s.sp, func(h txn.Held) error {
		x := exclusive(h, v)
		defer x.end()
		mv, err := m.evalDef(v, x.span())
		if err != nil {
			return err
		}
		v.mv.Replace(mv)
		// A recompute reflects the current state: the log, and any
		// pending shared window, are consumed too.
		if v.logs != nil {
			m.clearLogs(v, v.logVolume())
		}
		if v.diff != nil {
			m.clearDiffTables(v)
		}
		return nil
	})
}

// Read runs f over the view's materialized table under a shared lock
// and a core.query trace: the read primitive, which copies nothing. The
// bag is MV itself, lent to f: f must not mutate it, must not keep it —
// or anything that aliases its map — past its own return (tuples are
// immutable and may be kept), and must not call back into the Manager,
// whose refresh is waiting for this very lock. Reads block while a
// refresh holds the exclusive lock — the downtime a user experiences —
// and a refresh waits while f runs, so f should be brief; a caller that
// needs to own the answer uses Query, whose copy costs a pointer.
func (m *Manager) Read(name string, f func(mv *bag.Bag) error) error {
	v, err := m.View(name)
	if err != nil {
		return err
	}
	// Readers run concurrently with the writer, so Read starts its own
	// root trace directly rather than parenting under the writer-owned
	// statement span (begin reads m.cur, which is single-writer
	// state).
	qsp := m.tracer.StartTrace(trace.SpanQuery, trace.Str("view", v.Name))
	defer qsp.End()
	return m.locks.WithReadSpan([]string{v.mv.Name()}, qsp, func(*trace.Span) error {
		return f(v.mv.Data())
	})
}

// Query reads the view's materialized table, returning a copy the
// caller owns: Read plus Clone, which is copy-on-write. The answer is a
// handle on MV's map (or maps) as of the read, in O(1) under the read
// lock; it stays that value whatever refreshes follow, and the caller
// may mutate it freely (its first mutation copies what it writes). What
// the handle defers is paid once per refresh, not per Query, and in
// proportion to what changed: the writer prepares MV before its next
// in-place write, outside the lock (unshareMVs).
func (m *Manager) Query(name string) (*bag.Bag, error) {
	var out *bag.Bag
	err := m.Read(name, func(mv *bag.Bag) error {
		out = mv.Clone()
		return nil
	})
	return out, err
}
