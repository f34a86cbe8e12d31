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
// Immediate views have their MV table updated inside the transaction (and
// write-locked while it installs); BaseLogs/Combined views only append to
// their logs; DiffTables views fold the pre-update incremental queries
// into their differential tables.
func (m *Manager) Execute(t txn.Txn) error {
	if name, bad := t.TouchesInternal(m.db); bad {
		return fmt.Errorf("core: user transaction writes internal table %q", name)
	}
	nt, err := t.Normalize(m.db)
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
	restoreLabels := obs.SetPhaseLabels("", "", obs.PhaseMakesafe)
	defer restoreLabels()
	alloc0 := obs.HeapAllocBytes()
	xsp := m.startEntrySpan(trace.SpanExecute, trace.Int("tables", int64(len(nt))))
	defer xsp.End()

	// Publish the transaction's ∇R/△R into the shared scratch tables so
	// precompiled incremental queries can read them.
	for base, dn := range m.scratchDel {
		sd, _ := m.db.Table(dn)
		si, _ := m.db.Table(m.scratchIns[base])
		if u, ok := nt[base]; ok {
			sd.Replace(u.Delete.Clone())
			si.Replace(u.Insert.Clone())
		} else {
			sd.Clear()
			si.Clear()
		}
	}

	// Assemble the auxiliary assignments (every view's makesafe
	// bookkeeping). The user's own base-table updates are applied in
	// place AFTER these evaluate: every auxiliary right-hand side reads
	// the pre-update state, so evaluating them first and mutating the
	// base tables last realizes the simultaneous (T1+T2) semantics while
	// keeping the base update O(|change|) instead of O(|table|).
	var assigns []txn.Assignment // grown on demand: the in-place log append adds none
	var compiledViews []*View
	var imViews []*View
	var lockMVs []string
	affected := make([]*View, 0, len(m.order))
	for _, vn := range m.order {
		v := m.views[vn]
		if !m.viewAffected(v, nt) {
			continue
		}
		affected = append(affected, v)
		msp := xsp.StartChild(trace.SpanMakesafe,
			trace.Str("view", v.Name), trace.Str("scenario", v.Scenario.String()))
		if (v.Scenario == BaseLogs || v.Scenario == Combined) && m.shared != nil {
			// Shared-log mode: the batch is appended once per TABLE
			// below, not once per view.
			msp.End()
			continue
		}
		if v.sh != nil {
			// Sharded Combined view: route ∇R/△R by shard key and merge
			// shard-locally under per-shard locks (makesafe_C with a
			// partitioned log; see shard.go). The in-place merge is the
			// only form — slowLogAppend has no algebraic twin here.
			err := m.appendToLogsSharded(v, nt)
			msp.End()
			if err != nil {
				return err
			}
			continue
		}
		if (v.Scenario == BaseLogs || v.Scenario == Combined) && !m.slowLogAppend {
			// Fast path: the weakly minimal log merge
			//   ▼R := ▼R ⊎ (∇R ∸ ▲R);  ▲R := (▲R ∸ ∇R) ⊎ △R
			// reads only the transaction's own deltas and touches only
			// the delta's tuples, so it can run in place in
			// O(|∇R|+|△R|) rather than rebuilding the log tables.
			err := m.appendToLogs(v, nt)
			msp.End()
			if err != nil {
				return err
			}
			continue
		}
		switch {
		case v.Scenario == Immediate:
			// makesafe_IM has no assignment form: the (∇(T,Q), △(T,Q))
			// pair is evaluated and applied to MV in place under the MV
			// write lock, below.
			imViews = append(imViews, v)
			lockMVs = append(lockMVs, v.mvName)
		case v.cd != nil && v.cd.safe != nil:
			// Compiled makesafe: the program evaluates and installs
			// inside the apply closure, alongside the assignment bundle.
			compiledViews = append(compiledViews, v)
		default:
			assigns = append(assigns, v.safeAssigns...)
		}
		msp.End()
	}

	if m.shared != nil {
		// One append per logged table, O(|change|), independent of the
		// number of views — the Section 7 property.
		m.appendShared(nt)
	}

	// Immediate views hold their MV write locks while the transaction
	// installs — that blocking is exactly the per-transaction overhead
	// immediate maintenance imposes.
	apply := func(parent *trace.Span) error {
		asp := parent.StartChild(trace.SpanApply,
			trace.Int("assigns", int64(len(assigns)+len(compiledViews))))
		defer asp.End()
		if err := txn.ApplyAssignments(m.db, assigns); err != nil {
			return err
		}
		// Compiled makesafe programs run here, before the base-table
		// updates below, so their right-hand sides read the pre-update
		// state exactly like the assignment bundle. Cross-view staging is
		// unnecessary — no view's right-hand sides read another view's
		// targets (auxiliary tables are internal, and views may only
		// reference external tables) — so per-view evaluate-then-install
		// preserves the simultaneous (T1+T2) semantics.
		for _, cv := range compiledViews {
			if err := m.runCompiledAssigns(cv, cv.cd.safe, asp); err != nil {
				return err
			}
		}
		// Base-table updates, in place: R := (R ∸ ∇R) ⊎ △R with the
		// effective (weakly minimal) deltas. Normalize left no nil bag.
		for name, u := range nt {
			tb, err := m.db.Table(name)
			if err != nil {
				return err
			}
			tb.Data().ApplyDelta(u.Delete, u.Insert)
		}
		// Co-partitioned base mirrors (sharded views) receive the same
		// effective deltas, routed per shard, so each mirror group stays
		// exactly its base's hash slice.
		m.updateMirrors(nt)
		return nil
	}
	if len(lockMVs) > 0 {
		// The locked install is the Immediate views' downtime: readers of
		// those MVs block for exactly this long, every transaction.
		lockStart := time.Now()
		err = m.locks.WithWriteSpan(lockMVs, xsp, func(hold *trace.Span) error {
			// makesafe_IM: MV := (MV ∸ ∇(T,Q)) ⊎ △(T,Q), in place. The pair
			// reads the pre-update state: apply changes the base tables.
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
		for _, v := range affected {
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
	if len(affected) > 1 {
		share = elapsed / time.Duration(len(affected))
		allocShare /= int64(len(affected))
	}
	for _, v := range affected {
		v.Stats.MakeSafeOps++
		v.Stats.MakeSafeTime += share
		if v.met != nil {
			v.met.makesafeNs.Observe(int64(share))
			v.met.phaseAcct(obs.PhaseMakesafe).Add(int64(share), allocShare)
		}
		switch v.Scenario {
		case BaseLogs, Combined:
			for _, b := range v.bases {
				if u, ok := nt[b]; ok {
					n := u.Delete.Len() + u.Insert.Len()
					v.Stats.LogTuples += n
					if v.met != nil {
						v.met.logAppendTuples.Add(int64(n))
					}
				}
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

// appendToLogs performs the Figure 3 log extension in place. It is
// observationally identical to the algebraic assignments of
// View.safeAssigns (see TestFastLogAppendMatchesAlgebraic): for each
// table, the bag x = ∇R ∸ ▲R is computed against the PRE-state ▲R
// before ▲R is mutated, matching simultaneous-assignment semantics.
func (m *Manager) appendToLogs(v *View, nt txn.Txn) error {
	for _, b := range v.bases {
		u, ok := nt[b]
		if !ok {
			continue
		}
		delLog, err := m.db.Table(v.logDel[b])
		if err != nil {
			return err
		}
		insLog, err := m.db.Table(v.logIns[b])
		if err != nil {
			return err
		}
		del, ins := u.Delete, u.Insert // never nil: nt is normalized
		if fn, ok := v.logFilterFn[b]; ok {
			// Relevant-update detection (WithLogFilter): only σ_p of the
			// change reaches this view's log.
			del = bag.Select(del, fn)
			ins = bag.Select(ins, fn)
		}
		x := bag.Monus(del, insLog.Data()) // ∇R ∸ ▲R, against pre-state ▲R
		insLog.Data().ApplyDelta(del, ins) // ▲R := (▲R ∸ ∇R) ⊎ △R
		delLog.Data().AddBag(x)            // ▼R ⊎= x
	}
	return nil
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
