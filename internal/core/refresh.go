package core

import (
	"fmt"
	"time"

	"dvm/internal/bag"
	"dvm/internal/obs"
	"dvm/internal/obs/trace"
	"dvm/internal/storage"
)

// Refresh brings the view table up to date ({INV_*} refresh_* {Q ≡ MV},
// Figure 3):
//
//	IM — no-op (INV_IM already implies Q ≡ MV);
//	BL — MV := (MV ∸ ▼(L,Q)) ⊎ ▲(L,Q); L := ∅, holding the MV write
//	     lock for the whole incremental computation (that is the BL
//	     scenario's downtime);
//	DT — apply the differential tables (refresh_DT);
//	C  — propagate_C followed by partial_refresh_C, holding the MV lock
//	     across both (Policy 1's downtime covers the final propagate).
func (m *Manager) Refresh(name string) error {
	v, err := m.View(name)
	if err != nil {
		return err
	}
	start := time.Now()
	rsp := m.startEntrySpan(trace.SpanRefresh,
		trace.Str("view", v.Name), trace.Str("scenario", v.Scenario.String()))
	sp := obs.StartSpan(v.met.refreshNs)
	rg := obs.StartRegion(v.met.phaseAcct(obs.PhaseRefresh), v.Name, obs.PhaseRefresh)
	defer func() {
		rg.End()
		v.Stats.Refreshes++
		v.Stats.RefreshTime += time.Since(start)
		sp.End()
		rsp.End()
		m.updateSizeGauges(v)
	}()

	switch v.Scenario {
	case Immediate:
		return nil
	case BaseLogs:
		w, err := m.unshareMVs(m.logDebt, v)
		if err != nil {
			return err
		}
		return m.locks.WithWriteSpan(w.tables, rsp, func(hold *trace.Span) error {
			w.adoptLocked()
			asp, dsp := m.startDowntimeSpan(v, hold)
			defer func() { asp.EndExplicit(dsp.End()) }()
			if err := m.materializeIfShared(v); err != nil {
				return err
			}
			asp.SetAttrs(trace.Int("log_tuples", int64(m.logVolume(v))))
			if err := m.refreshFromLogLocked(v, asp); err != nil {
				return err
			}
			m.consumeWindowIfShared(v)
			return nil
		})
	case DiffTables:
		return m.refreshFromDiff(v, rsp, nil)
	case Combined:
		return m.refreshFromDiff(v, rsp, m.propagateBody)
	}
	return fmt.Errorf("core: refresh: unknown scenario %v", v.Scenario)
}

// startDowntimeSpan opens the MV-exclusive core.refresh.apply span
// under the lock-hold span together with the view_downtime_ns obs
// span. The caller must finish both with
//
//	defer func() { asp.EndExplicit(dsp.End()) }()
//
// so the trace span and the histogram record the IDENTICAL duration —
// that equality is what lets the E2E trace test reconcile a trace's
// exclusive spans against the downtime histogram exactly.
func (m *Manager) startDowntimeSpan(v *View, hold *trace.Span) (*trace.Span, obs.Span) {
	asp := hold.StartChild(trace.SpanRefreshApply, trace.Str("view", v.Name))
	asp.SetExclusive()
	return asp, obs.StartSpan(v.met.downtimeNs)
}

// applyToMVLocked installs MV := (MV ∸ del) ⊎ add in place, in
// O(|del|+|add|): the one way a maintenance transaction changes a view
// table (makesafe_IM, refresh_BL, refresh_DT, partial_refresh_C), so
// the exclusive lock is held for work proportional
// to the differential, never to the view. del and add are only read.
// The Locked suffix is a contract dvmlint enforces: the caller must
// hold the MV write lock.
func (m *Manager) applyToMVLocked(v *View, del, add *bag.Bag) error {
	mv, err := m.db.Table(v.mvName)
	if err != nil {
		return err
	}
	mv.Data().ApplyDelta(del, add)
	return nil
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
func (m *Manager) unshareMVs(pending func(*View) int, views ...*View) (mvWrite, error) {
	w := mvWrite{tables: make([]string, len(views))}
	for i, v := range views {
		w.tables[i] = v.mvName
		n := pending(v)
		if n == 0 {
			continue
		}
		mv, err := m.db.Bag(v.mvName)
		if err != nil {
			return w, err
		}
		if p := mv.Prepare(n); p != nil {
			w.mvs, w.own = append(w.mvs, mv), append(w.own, p)
		}
	}
	return w, nil
}

// adoptLocked installs what unshareMVs prepared. The Locked suffix is a
// contract dvmlint enforces: the caller must hold the MV write locks.
func (w mvWrite) adoptLocked() {
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
func (m *Manager) mergeDiff(v *View, del, add *bag.Bag) error {
	dd, err := m.db.Table(v.dtDel)
	if err != nil {
		return err
	}
	da, err := m.db.Table(v.dtAdd)
	if err != nil {
		return err
	}
	mergeDelta(dd, da, del, add, v.StrongMinimal)
	return nil
}

// refreshFromLogLocked implements refresh_BL: evaluate the post-update
// pair (▼(L,Q), ▲(L,Q)), apply it to MV in place, and empty the log.
// The Locked suffix is a contract dvmlint enforces: the caller must
// hold the MV write lock.
func (m *Manager) refreshFromLogLocked(v *View, parent *trace.Span) error {
	if v.met != nil {
		v.met.refreshTuples.Add(int64(m.logVolume(v)))
	}
	del, add, err := m.evalDeltaPair(v, parent)
	if err != nil {
		return err
	}
	if err := m.applyToMVLocked(v, del, add); err != nil {
		return err
	}
	return m.clearLogs(v)
}

// clearLogs empties the view's log tables — the L := ∅
// half of refresh_BL and propagate_C, run after the update has
// installed: clearing carries no right-hand side to stage.
func (m *Manager) clearLogs(v *View) error {
	for _, b := range v.bases {
		dl, err := m.db.Table(v.logDel[b])
		if err != nil {
			return err
		}
		il, err := m.db.Table(v.logIns[b])
		if err != nil {
			return err
		}
		dl.Clear()
		il.Clear()
	}
	return nil
}

// refreshFromDiff is refresh_DT / partial_refresh_C, and with first =
// propagateBody refresh_C (Policy 1: the downtime covers the final
// propagate): MV := (MV ∸ ∇MV) ⊎ △MV under the MV write lock, then
// ∇MV := ∅; △MV := ∅ once the lock is released. The differential
// tables are the single writer's own state — no reader of MV sees
// them — so emptying them is not downtime, and readers wait only for
// the O(|∇MV|+|△MV|) in-place apply.
func (m *Manager) refreshFromDiff(v *View, parent *trace.Span, first func(v *View, sp, parent *trace.Span) error) error {
	pending := m.diffVolume
	if first != nil { // refresh_C folds the log in under the lock first
		pending = func(v *View) int { return m.diffVolume(v) + m.logDebt(v) }
	}
	w, err := m.unshareMVs(pending, v)
	if err != nil {
		return err
	}
	err = m.locks.WithWriteSpan(w.tables, parent, func(hold *trace.Span) error {
		w.adoptLocked()
		asp, dsp := m.startDowntimeSpan(v, hold)
		defer func() { asp.EndExplicit(dsp.End()) }()
		if first != nil {
			if err := first(v, asp, hold); err != nil {
				return err
			}
		}
		asp.SetAttrs(trace.Int("diff_tuples", int64(m.diffVolume(v))))
		return m.applyDiffTablesLocked(v)
	})
	if err != nil {
		return err
	}
	return m.clearDiffTables(v)
}

// applyDiffTablesLocked installs MV := (MV ∸ ∇MV) ⊎ △MV, in place, so
// the work under the lock is O(|∇MV|+|△MV|); the caller empties the
// differential tables afterwards (clearDiffTables). The Locked suffix
// is a contract dvmlint enforces: the caller must hold the MV write
// lock.
func (m *Manager) applyDiffTablesLocked(v *View) error {
	if v.met != nil {
		v.met.refreshTuples.Add(int64(m.diffVolume(v)))
	}
	dd, err := m.db.Table(v.dtDel)
	if err != nil {
		return err
	}
	da, err := m.db.Table(v.dtAdd)
	if err != nil {
		return err
	}
	return m.applyToMVLocked(v, dd.Data(), da.Data())
}

// clearDiffTables is ∇MV := ∅; △MV := ∅: the second half of
// refresh_DT / partial_refresh_C, and of a recompute.
func (m *Manager) clearDiffTables(v *View) error {
	for _, name := range []string{v.dtDel, v.dtAdd} {
		tb, err := m.db.Table(name)
		if err != nil {
			return err
		}
		tb.Clear()
	}
	return nil
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
	if v.Scenario != Combined {
		return fmt.Errorf("core: propagate is only defined for the Combined scenario (view %q is %v)", name, v.Scenario)
	}
	start := time.Now()
	psp := m.startEntrySpan(trace.SpanPropagate, trace.Str("view", v.Name))
	sp := obs.StartSpan(v.met.propagateNs)
	rg := obs.StartRegion(v.met.phaseAcct(obs.PhasePropagate), v.Name, obs.PhasePropagate)
	defer func() {
		rg.End()
		v.Stats.Propagates++
		v.Stats.PropagateTime += time.Since(start)
		sp.End()
		psp.End()
		m.updateSizeGauges(v)
	}()
	return m.propagateBody(v, psp, psp)
}

// propagateBody is propagate_C without its instrumentation, shared by
// Propagate, refresh_C and QueryFresh: load the shared-log window (if
// any), fold the log into the differential tables, and consume the
// window. It never touches MV and needs no MV lock. sp receives the
// log_tuples attribute; parent anchors the fold's child spans.
func (m *Manager) propagateBody(v *View, sp, parent *trace.Span) error {
	if err := m.materializeIfShared(v); err != nil {
		return err
	}
	sp.SetAttrs(trace.Int("log_tuples", int64(m.logVolume(v))))
	if err := m.foldLog(v, parent); err != nil {
		return err
	}
	m.consumeWindowIfShared(v)
	return nil
}

// materializeIfShared loads the view's shared-log window into its
// private log tables; no-op in per-view-log mode.
func (m *Manager) materializeIfShared(v *View) error {
	if m.shared == nil {
		return nil
	}
	return m.materializeWindow(v)
}

// consumeWindowIfShared advances the view's shared-log cursors after a
// successful propagate/refresh and truncates consumed entries.
func (m *Manager) consumeWindowIfShared(v *View) {
	if m.shared == nil {
		return
	}
	m.advanceCursors(v)
}

// foldLog evaluates the log's post-update pair (▼(L,Q), ▲(L,Q)), merges
// it into the differential tables and empties the log (the body of
// propagate_C; the same pair refresh_BL applies to MV).
// It touches only logs and differential tables — never MV — so it
// needs no MV lock, only the manager's single-writer discipline.
// (It was once named propagateLocked; dvmlint's lock-discipline check
// flagged the unlocked call from Propagate, and the fix was renaming:
// the lock was never required.) parent anchors the compiled evaluation's
// span.
func (m *Manager) foldLog(v *View, parent *trace.Span) error {
	vol := m.logVolume(v)
	if vol == 0 {
		// Every ▼(L,Q)/▲(L,Q) term carries a log factor, so an empty log
		// folds to the identity: a refresh right after a propagate, or a
		// second fresh read, pays nothing here.
		return nil
	}
	if v.met != nil {
		v.met.propagateTuples.Add(int64(vol))
	}
	del, add, err := m.evalDeltaPair(v, parent)
	if err != nil {
		return err
	}
	if err := m.mergeDiff(v, del, add); err != nil {
		return err
	}
	return m.clearLogs(v)
}

// PartialRefresh implements partial_refresh_C: apply the precomputed
// differential tables to MV ({INV_C} partial_refresh_C {PAST(L,Q) ≡ MV}).
// This is Policy 2's refresh step and has the minimal possible downtime.
func (m *Manager) PartialRefresh(name string) error {
	v, err := m.View(name)
	if err != nil {
		return err
	}
	if v.Scenario != Combined && v.Scenario != DiffTables {
		return fmt.Errorf("core: partial refresh needs differential tables (view %q is %v)", name, v.Scenario)
	}
	start := time.Now()
	prsp := m.startEntrySpan(trace.SpanPartialRefresh, trace.Str("view", v.Name))
	sp := obs.StartSpan(v.met.partialNs)
	rg := obs.StartRegion(v.met.phaseAcct(obs.PhasePartialRefresh), v.Name, obs.PhasePartialRefresh)
	defer func() {
		rg.End()
		v.Stats.PartialCount++
		v.Stats.PartialTime += time.Since(start)
		sp.End()
		prsp.End()
		m.updateSizeGauges(v)
	}()
	return m.refreshFromDiff(v, prsp, nil)
}

// RefreshRecompute is the non-incremental baseline: recompute Q from
// scratch under the MV write lock and discard all auxiliary state. E8
// (TestE8RefreshCostsTheLogRecomputeTheTables) compares it with Refresh.
func (m *Manager) RefreshRecompute(name string) error {
	v, err := m.View(name)
	if err != nil {
		return err
	}
	start := time.Now()
	rcsp := m.startEntrySpan(trace.SpanRecompute, trace.Str("view", v.Name))
	sp := obs.StartSpan(v.met.recomputeNs)
	rg := obs.StartRegion(v.met.phaseAcct(obs.PhaseRecompute), v.Name, obs.PhaseRecompute)
	defer func() {
		rg.End()
		v.Stats.Recomputes++
		v.Stats.RecomputeTime += time.Since(start)
		sp.End()
		rcsp.End()
		m.updateSizeGauges(v)
	}()
	return m.locks.WithWriteSpan([]string{v.mvName}, rcsp, func(hold *trace.Span) error {
		asp, dsp := m.startDowntimeSpan(v, hold)
		defer func() { asp.EndExplicit(dsp.End()) }()
		evalStart := time.Now()
		outs, stats, err := v.def.Eval(nil, m.db)
		if err != nil {
			return err
		}
		m.observeCompiled(v, asp, time.Since(evalStart), stats)
		mv, _ := m.db.Table(v.mvName)
		mv.Replace(outs[0])
		// A recompute reflects the current state, so any pending shared
		// window is consumed too.
		if m.shared != nil && (v.Scenario == BaseLogs || v.Scenario == Combined) {
			m.advanceCursors(v)
		}
		if len(v.logDel) > 0 {
			if err := m.clearLogs(v); err != nil {
				return err
			}
		}
		if v.dtDel != "" {
			return m.clearDiffTables(v)
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
	// statement span (startEntrySpan reads m.cur, which is
	// single-writer state).
	qsp := m.tracer.StartTrace(trace.SpanQuery, trace.Str("view", v.Name))
	defer qsp.End()
	return m.locks.WithReadSpan([]string{v.mvName}, qsp, func(*trace.Span) error {
		b, err := m.db.Bag(v.mvName)
		if err != nil {
			return err
		}
		return f(b)
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
