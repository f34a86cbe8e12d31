package core

import (
	"fmt"
	"time"

	"dvm/internal/bag"
	"dvm/internal/obs"
	"dvm/internal/obs/trace"
	"dvm/internal/schema"
	"dvm/internal/txn"
)

// Execute runs a user transaction through makesafe: the transaction is
// normalized to weak minimality, extended with every view's Figure 3
// bookkeeping, and the whole bundle is applied with simultaneous (T1+T2)
// semantics so that no auxiliary update sees another's effect.
//
// BaseLogs/Combined views only extend their logs with the transaction's
// own ∇R/△R. Immediate and DiffTables views evaluate their pre-update
// pair (∇(T,Q), △(T,Q)) before the base tables change and install it —
// into MV (write-locked while the transaction installs) or into
// ∇MV/△MV.
//
// Execute only reads t's bags, and keeps none of them: the caller may
// reuse them once it returns. A warm transaction costs its rows and
// nothing else — it is normalized into the manager's own scratch, with
// the caller's bags handed on uncopied (txn.Txn.NormalizeInto).
func (m *Manager) Execute(t txn.Txn) error {
	if name, bad := t.TouchesInternal(m.db); bad {
		return fmt.Errorf("core: user transaction writes internal table %q", name)
	}
	x := &m.exec
	defer x.reset()
	nt := x.nt
	err := t.NormalizeInto(m.db, nt)
	if err != nil {
		return err
	}
	// Validate every inserted tuple before any bookkeeping mutates state,
	// so a rejected transaction leaves logs and scratch tables untouched.
	for name, u := range nt {
		tb, err := m.db.Table(name)
		if err != nil {
			return err
		}
		var verr error
		u.Insert.Each(func(tu schema.Tuple, _ int) {
			if verr == nil {
				verr = tb.Schema().Validate(tu)
			}
		})
		if verr != nil {
			return fmt.Errorf("core: transaction inserts into %s: %w", name, verr)
		}
	}

	start := time.Now()
	// The whole Execute body is one makesafe-phase profiling region. It
	// spans several views, so the pprof label carries no dvm_view; the
	// cost is distributed across the affected views' phase accounting
	// below, mirroring the makesafe_ns share.
	restoreLabels := obs.SetPhaseLabels("", obs.PhaseMakesafe)
	defer restoreLabels()
	alloc0 := obs.HeapAllocBytes()
	xsp := m.startEntrySpan(trace.SpanExecute, trace.Int("tables", int64(len(nt))))
	defer xsp.End()

	// Every view's makesafe bookkeeping. A log is extended here, from the
	// transaction's own deltas; a pre-update pair is evaluated in the
	// apply step below, BEFORE the user's base-table updates are applied
	// in place: every auxiliary right-hand side reads the pre-update
	// state, so evaluating them first and mutating the base tables last
	// realizes the simultaneous (T1+T2) semantics while keeping the base
	// update O(|change|) instead of O(|table|).
	for _, vn := range m.order {
		v := m.views[vn]
		if !m.viewAffected(v, nt) {
			continue
		}
		x.affected = append(x.affected, v)
		msp := xsp.StartChild(trace.SpanMakesafe,
			trace.Str("view", v.Name), trace.Str("scenario", v.Scenario.String()))
		switch {
		case v.Scenario == Immediate:
			x.imViews = append(x.imViews, v)
		case v.Scenario == DiffTables:
			x.dtViews = append(x.dtViews, v)
		case m.shared != nil:
			// Shared-log mode: the batch is appended once per TABLE
			// below, not once per view.
		default:
			var n int
			n, err = m.appendToLogs(v, nt)
			v.countLogged(n)
		}
		msp.End()
		if err != nil {
			return err
		}
	}

	if m.shared != nil {
		// One append per logged table, O(|change|), independent of the
		// number of views — the Section 7 property.
		m.appendShared(nt)
	}

	imViews, dtViews := x.imViews, x.dtViews // the views with a pre-update pair
	if len(imViews)+len(dtViews) > 0 {
		// Publish the transaction's ∇R/△R into the shared scratch tables
		// the pre-update pairs read. The bags are the caller's, and a
		// table keeps its bag — a join may index it — so each scratch
		// table gets a Clone (copy-on-write, O(1)), emptied when the
		// transaction ends, so a scratch table never pins a change (and is
		// empty for every base a later transaction leaves alone).
		scratch := func(publish bool) {
			for base, u := range nt {
				dn, ok := m.scratchDel[base]
				if !ok {
					continue // no view reads this table
				}
				sd, _ := m.db.Table(dn)
				si, _ := m.db.Table(m.scratchIns[base])
				if publish {
					sd.Replace(u.Delete.Clone())
					si.Replace(u.Insert.Clone())
				} else {
					sd.Clear()
					si.Clear()
				}
			}
		}
		scratch(true)
		defer scratch(false)
	}

	apply := func(parent *trace.Span) error {
		asp := parent.StartChild(trace.SpanApply, trace.Int("assigns", int64(len(dtViews))))
		defer asp.End()
		// makesafe_DT: ∇(T,Q)/△(T,Q) merged into ∇MV/△MV. It runs here,
		// before the base-table updates below, so the pair reads the
		// pre-update state. Per-view evaluate-then-install preserves the
		// simultaneous semantics without cross-view staging: no view's
		// pair reads another view's targets (auxiliary tables are
		// internal, and views may only reference external tables).
		for _, dv := range dtViews {
			del, add, err := m.evalDeltaPair(dv, asp)
			if err != nil {
				return err
			}
			if err := m.mergeDiff(dv, del, add); err != nil {
				return err
			}
		}
		// Base-table updates, in place: R := (R ∸ ∇R) ⊎ △R with the
		// effective (weakly minimal) deltas. NormalizeInto left no nil
		// bag, and none that is a live table's.
		for name, u := range nt {
			tb, err := m.db.Table(name)
			if err != nil {
				return err
			}
			tb.Data().ApplyDelta(u.Delete, u.Insert)
		}
		return nil
	}
	if len(imViews) > 0 {
		// Immediate views hold their MV write locks while the transaction
		// installs: readers of those MVs block for exactly this long, every
		// transaction — the overhead immediate maintenance imposes.
		var w mvWrite
		if w, err = m.unshareMVs(func(v *View) int { return v.txnVolume(nt) }, imViews...); err != nil {
			return err
		}
		lockStart := time.Now()
		err = m.locks.WithWriteSpan(w.tables, xsp, func(hold *trace.Span) error {
			w.adoptLocked()
			// makesafe_IM: the same pre-update pair, applied to MV itself.
			for _, iv := range imViews {
				del, add, err := m.evalDeltaPair(iv, hold)
				if err != nil {
					return err
				}
				if err := m.applyToMVLocked(iv, del, add); err != nil {
					return err
				}
			}
			return apply(hold)
		})
		held := int64(time.Since(lockStart))
		for _, v := range x.affected {
			if v.Scenario == Immediate && v.met != nil {
				v.met.downtimeNs.Observe(held)
			}
		}
	} else {
		err = apply(xsp)
	}
	if err != nil {
		return err
	}

	// Attribute the transaction's maintenance cost evenly across the
	// affected views; exact per-view separation is not observable since
	// the bundle applies as one transaction.
	elapsed := time.Since(start)
	m.txnExecNs.Observe(int64(elapsed))
	share := elapsed
	var allocShare int64
	if a := obs.HeapAllocBytes(); a > alloc0 {
		allocShare = int64(a - alloc0)
	}
	if n := len(x.affected); n > 1 {
		share = elapsed / time.Duration(n)
		allocShare /= int64(n)
	}
	for _, v := range x.affected {
		v.Stats.MakeSafeOps++
		v.Stats.MakeSafeTime += share
		if v.met != nil {
			v.met.makesafeNs.Observe(int64(share))
			v.met.phaseAcct(obs.PhaseMakesafe).Add(int64(share), allocShare)
		}
		switch v.Scenario {
		case BaseLogs, Combined:
			if m.shared != nil {
				// The one shared append is charged to every view reading it.
				v.countLogged(v.txnVolume(nt))
			}
		case DiffTables:
			dt, _ := m.db.Bag(v.dtDel)
			at, _ := m.db.Bag(v.dtAdd)
			v.Stats.DiffTuples = dt.Len() + at.Len()
		}
		m.updateSizeGauges(v)
	}
	return nil
}

// execScratch is Execute's per-transaction scratch, the single writer's
// own: the normalized transaction, the views it affects, and the pair of
// bags a filtered change is refilled into on its way to a log. A
// transaction refills what the last one emptied, so a warm one
// allocates none of it.
type execScratch struct {
	nt                         txn.Txn
	affected, imViews, dtViews []*View
	relDel, relIns             *bag.Bag
}

// reset empties the scratch when a transaction ends, so it pins neither
// the caller's bags, nor their rows, nor a dropped view.
func (x *execScratch) reset() {
	clear(x.nt)
	clear(x.affected)
	clear(x.imViews)
	clear(x.dtViews)
	x.affected, x.imViews, x.dtViews = x.affected[:0], x.imViews[:0], x.dtViews[:0]
	x.relDel.Clear()
	x.relIns.Clear()
}

// appendToLogs is makesafe_BL (= makesafe_C) for a view with its own
// log tables: each touched base's (▼R, ▲R) is extended with the
// relevant part of the transaction's (∇R, △R) by mergeDelta, in
// O(|∇R|+|△R|). It returns the tuples it merged.
func (m *Manager) appendToLogs(v *View, nt txn.Txn) (int, error) {
	n := 0
	for _, b := range v.bases {
		u, ok := nt[b]
		if !ok {
			continue
		}
		delLog, err := m.db.Table(v.logDel[b])
		if err != nil {
			return n, err
		}
		insLog, err := m.db.Table(v.logIns[b])
		if err != nil {
			return n, err
		}
		del, ins := m.exec.relevant(v, b, u)
		mergeDelta(delLog, insLog, del, ins, false)
		n += del.Len() + ins.Len()
	}
	return n, nil
}

// countLogged adds n log tuples to the view's LogTuples and
// log_append_tuples.
func (v *View) countLogged(n int) {
	v.Stats.LogTuples += n
	if v.met != nil {
		v.met.logAppendTuples.Add(int64(n))
	}
}

// relevant returns the part of one base table's change that reaches the
// view's log: all of it, or σ_f of it when the view's definition guards
// the table with f (relevant-update detection, algebra.RelevantFilters),
// refilled into the scratch pair and lent until the next call. u is
// normalized: no nil bag.
func (x *execScratch) relevant(v *View, b string, u txn.Update) (del, ins *bag.Bag) {
	keep, ok := v.filters[b]
	if !ok {
		return u.Delete, u.Insert
	}
	return x.relDel.Refill(u.Delete, keep), x.relIns.Refill(u.Insert, keep)
}

// txnVolume is the tuple volume of the normalized transaction t on the
// view's base tables.
func (v *View) txnVolume(t txn.Txn) int {
	n := 0
	for _, b := range v.bases {
		if u, ok := t[b]; ok {
			n += u.Delete.Len() + u.Insert.Len()
		}
	}
	return n
}

// viewAffected reports whether the transaction touches any base table of
// the view; unaffected views need no bookkeeping (their ∇R/△R are ∅ and
// every Figure 3 assignment is the identity).
func (m *Manager) viewAffected(v *View, t txn.Txn) bool {
	for _, b := range v.bases {
		if u, ok := t[b]; ok && !(u.Delete.Empty() && u.Insert.Empty()) {
			return true // t is normalized: no nil bag
		}
	}
	return false
}
