package core

import (
	"fmt"

	"dvm/internal/bag"
	"dvm/internal/obs"
	"dvm/internal/obs/trace"
	"dvm/internal/schema"
	"dvm/internal/storage"
	"dvm/internal/txn"
)

// Execute runs a user transaction through makesafe: the transaction is
// normalized to weak minimality, extended with every view's Figure 3
// bookkeeping, and the whole bundle is applied with simultaneous (T1+T2)
// semantics so that no auxiliary update sees another's effect.
//
// A view with logs only extends them with the transaction's own ∇R/△R.
// A view without logs evaluates its pre-update pair (∇(T,Q), △(T,Q))
// before the base tables change and installs it into ∇MV/△MV, or, when
// it has no differential tables either, into MV (write-locked while the
// transaction installs).
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
	// so a rejected transaction leaves every table untouched.
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

	// The rest is one makesafe step. It spans several views, so its
	// pprof label carries no dvm_view, and its end shares its one
	// duration evenly across the affected views' makesafe_ns; it ends
	// before the deferred reset empties x.affected.
	s := m.begin(nil, obs.PhaseMakesafe, trace.Int("tables", int64(len(nt))))
	defer s.end()
	xsp := s.sp

	// Every view's makesafe bookkeeping, in two phases. First every view
	// without logs evaluates its pre-update pair, against the pre-update
	// state: nothing is written until every pair is. Then the installs,
	// none of which can fail: each pair into ∇MV/△MV or into MV, the
	// base tables in place, and each log extended from the transaction's
	// own deltas. Every right-hand side reads the pre-update state, which
	// realizes the simultaneous (T1+T2) semantics while keeping the base
	// update O(|change|) instead of O(|table|). No view's pair reads
	// another view's targets (auxiliary tables are internal, and views
	// may only reference external tables), so nothing is staged.
	for _, vn := range m.order {
		v := m.views[vn]
		if !m.viewAffected(v, nt) {
			continue
		}
		x.affected = append(x.affected, v)
		if v.logs == nil && v.diff == nil {
			x.mvViews = append(x.mvViews, v)
		} else if v.logs == nil {
			x.diffViews = append(x.diffViews, v)
		}
	}
	x.src.bind(x.diffViews)
	x.src.bind(x.mvViews)
	if err := m.evalPairs(x.diffViews, xsp); err != nil {
		return err
	}

	apply := func(parent *trace.Span) {
		asp := parent.StartChild(trace.SpanApply, trace.Int("assigns", int64(len(x.diffViews))))
		defer asp.End()
		for i, v := range x.diffViews {
			m.mergeDiff(v, x.pairs[i][0], x.pairs[i][1])
		}
		// Base-table updates, in place: R := (R ∸ ∇R) ⊎ △R with the
		// effective (weakly minimal) deltas. NormalizeInto left no nil
		// bag, and none that is a live table's.
		for name, u := range nt {
			tb, _ := m.db.Table(name) // validated above
			tb.Data().ApplyDelta(u.Delete, u.Insert)
		}
	}
	if len(x.mvViews) == 0 {
		apply(xsp)
	} else {
		// A view that installs into MV holds MV's write lock while the
		// transaction installs: readers of those MVs block for exactly
		// this long, every transaction — the overhead immediate
		// maintenance imposes.
		w := m.unshareMVs(func(v *View) int { return v.txnVolume(nt) }, x.mvViews...)
		err = m.locks.WithWriteSpan(w.tables, xsp, func(h txn.Held) error {
			w.adoptLocked(h)
			ex := exclusive(h, x.mvViews...)
			defer ex.end()
			if err := m.evalPairs(x.mvViews, xsp); err != nil {
				return err
			}
			for i, v := range x.mvViews {
				p := x.pairs[len(x.diffViews)+i]
				m.applyToMVLocked(h, v, p[0], p[1])
			}
			apply(h.Span())
			return nil
		})
		if err != nil {
			return err
		}
	}

	// The logs: each view's extended by the relevant part of the
	// transaction's own ∇R/△R.
	for _, v := range x.affected {
		if v.logs == nil {
			continue
		}
		msp := xsp.StartChild(trace.SpanMakesafe, trace.Str("view", v.Name), trace.Str("scenario", v.inv))
		v.met.logAppendTuples.Add(int64(m.appendToLogs(v, nt)))
		msp.End()
	}
	return nil
}

// evalPairs evaluates, in order, the pre-update pair of every view in
// views over txSource, each under its own core.makesafe span, and
// appends each pair to the scratch's pairs: lent until that view's next
// evaluation.
func (m *Manager) evalPairs(views []*View, parent *trace.Span) error {
	x := &m.exec
	for _, v := range views {
		msp := parent.StartChild(trace.SpanMakesafe, trace.Str("view", v.Name), trace.Str("scenario", v.inv))
		x.src.v = v
		del, add, err := m.evalDeltaPair(sitePair, v, &x.src, msp)
		msp.End()
		if err != nil {
			return err
		}
		x.pairs = append(x.pairs, [2]*bag.Bag{del, add})
	}
	return nil
}

// txParam is what a pre-update pair's parameter stands for: base
// table R's ∇R, or with ins its △R.
type txParam struct {
	base string
	ins  bool
}

// txSource is the state a pre-update pair is evaluated in: the
// database, with the evaluated view's parameters __tx_del_R and
// __tx_ins_R bound to the transaction's ∇R and △R, and an untouched
// base's to ∅.
type txSource struct {
	db    *storage.Database
	nt    txn.Txn
	v     *View
	bound map[txParam]*bag.Bag
	empty *bag.Bag
}

// bind binds every parameter of views' pairs not bound yet: to a Clone
// of the transaction's ∇R or △R — copy-on-write, O(1) — that every view
// reading it shares, so a join that indexes it indexes a bag of its
// own, never the caller's; or, for an untouched base, to ∅. It runs
// before any pair is evaluated, and before any MV lock is requested: a
// small bag's Clone is a copy.
func (s *txSource) bind(views []*View) {
	for _, v := range views {
		for _, p := range v.params {
			if _, ok := s.bound[p]; ok {
				continue
			}
			b := s.empty
			if u, touched := s.nt[p.base]; touched {
				b = u.Delete
				if p.ins {
					b = u.Insert
				}
				b = b.Clone()
			}
			s.bound[p] = b
		}
	}
}

// Bag implements algebra.Source.
func (s *txSource) Bag(name string) (*bag.Bag, error) {
	p, ok := s.v.params[name]
	if !ok {
		return s.db.Bag(name)
	}
	return s.bound[p], nil
}

// execScratch is Execute's per-transaction scratch, the single writer's
// own: the normalized transaction, the views it
// affects, the evaluated pre-update pairs, the source they are evaluated
// over, and the pair of bags a filtered change is refilled into on its
// way to a log. A transaction refills what the last one emptied, so a
// warm one allocates none of it.
type execScratch struct {
	nt                           txn.Txn
	affected, mvViews, diffViews []*View
	pairs                        [][2]*bag.Bag
	src                          txSource
	relDel, relIns               *bag.Bag
}

func newExecScratch(db *storage.Database) execScratch {
	nt := txn.Txn{}
	return execScratch{
		nt:     nt,
		src:    txSource{db: db, nt: nt, bound: map[txParam]*bag.Bag{}, empty: bag.New()},
		relDel: bag.New(),
		relIns: bag.New(),
	}
}

// reset empties the scratch when a transaction ends, so it pins neither
// the caller's bags, nor their rows, nor a dropped view.
func (x *execScratch) reset() {
	clear(x.nt)
	clear(x.affected)
	clear(x.mvViews)
	clear(x.diffViews)
	clear(x.pairs)
	x.affected, x.mvViews, x.diffViews = x.affected[:0], x.mvViews[:0], x.diffViews[:0]
	x.pairs = x.pairs[:0]
	clear(x.src.bound)
	x.src.v = nil
	x.relDel.Clear()
	x.relIns.Clear()
}

// appendToLogs is makesafe_BL (= makesafe_C) for a view with its own
// log tables: each touched base's (▼R, ▲R) is extended with the
// relevant part of the transaction's (∇R, △R) by mergeDelta, in
// O(|∇R|+|△R|). It returns the tuples it merged.
func (m *Manager) appendToLogs(v *View, nt txn.Txn) int {
	n := 0
	for _, b := range v.bases {
		u, ok := nt[b]
		if !ok {
			continue
		}
		del, ins := m.exec.relevant(v, b, u)
		mergeDelta(v.logs[b].del, v.logs[b].add, del, ins, false)
		n += del.Len() + ins.Len()
	}
	return n
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
