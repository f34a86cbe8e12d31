package core

import (
	"time"

	"dvm/internal/algebra"
	"dvm/internal/bag"
	"dvm/internal/obs/trace"
)

// Compiled delta programs: a view's incremental pair is fixed at
// DefineView time, so instead of re-interpreting the algebra DAG per
// transaction, the manager lowers it ONCE through algebra.Compile into
// fused closures with pre-resolved columns, slot-cached DAG nodes, and
// hash joins that probe the base tables' own journal-synced indexes
// (see internal/algebra/compile.go). A program only computes the pair;
// installing it — into MV, or into ∇MV/△MV — is one of two in-place
// primitives (applyToMVLocked, mergeDelta). The tree-walking
// interpreter (algebra.Eval) is not an engine here: it is the reference
// CheckInvariant and the tests check the compiled pipeline against.
//
// A program's State (View.pairSt) is its reusable evaluation scratch:
// the slot cache, and the bags its joins and unions build, which every
// evaluation clears and refills. Evaluating with a state is what lets a
// join use — and on first use create — a base table's own index, so it
// happens only under the manager's single-writer discipline, never on a
// read path.

// site is a failpoint: a boundary of the evaluate phase, where an
// evaluation may fail before anything is installed. A failure there must
// leave every table as it was (Theorem 5 assumes atomic transactions);
// tests fail each site in turn through Manager.fail.
type site uint8

const (
	sitePair   site = iota // a view's pre-update pair (evalPairs)
	siteFold               // a refresh's log fold (foldLogLocked)
	siteLog                // a log's post-update pair (evalLog)
	siteDef                // RefreshRecompute's evaluation of Def (evalDef)
	siteDefine             // a view's materialization (DefineView)
)

// failAt is the failpoint at s: nil unless a test set m.fail.
func (m *Manager) failAt(s site) error {
	if m.fail == nil {
		return nil
	}
	return m.fail(s)
}

// observeCompiled records one compiled evaluation's metrics and span.
func (m *Manager) observeCompiled(v *View, parent *trace.Span, dur time.Duration, stats algebra.Stats) {
	v.met.compiledEvalNs.Observe(int64(dur))
	v.met.indexProbeTuples.Add(stats.IndexProbeTuples)
	v.met.indexBuildTuples.Add(stats.IndexBuildTuples)
	sp := parent.StartChild(trace.SpanEvalCompiled,
		trace.Str("view", v.Name), trace.Int("index_probe_tuples", stats.IndexProbeTuples))
	sp.EndExplicit(dur)
}

// evalDef evaluates the view's definition one-shot over the live
// database — RefreshRecompute's evaluation — recording it like
// evalDeltaPair does, and returns the answer, which the caller owns.
func (m *Manager) evalDef(v *View, parent *trace.Span) (*bag.Bag, error) {
	if err := m.failAt(siteDef); err != nil {
		return nil, err
	}
	start := time.Now()
	outs, stats, err := v.def.Eval(nil, m.db)
	if err != nil {
		return nil, err
	}
	m.observeCompiled(v, parent, time.Since(start), stats)
	return outs[0], nil
}

// evalDeltaPair evaluates the view's incremental (del, add) pair in src
// — the live database, or for a pre-update pair txSource over it —
// through its compiled program, recording
// compiled_eval_ns / index_probe_tuples and the core.eval.compiled span
// under parent; at is the failpoint it asks first. The pair is borrowed
// (EvalBorrowed): bags of the view's State, or bags of src, lent until
// the view's next evaluation or the next write to those bags. The caller only reads it — installs it with
// applyToMVLocked or mergeDiff, or reads it fresh — and keeps none of
// it.
//
// Its joins hold MV, and △MV when the view keeps it (algebra.State's
// Hold): a row of the pair that the view already holds is stored as the
// view's own tuple, not made again. By Figure 1 every DEL row is one:
// ∇MV ⊑ MV, and ▼(L,Q) ⊑ PAST(L,Q) = (MV ∸ ∇MV) ⊎ △MV (an Immediate
// view's pre-update DEL ⊑ Q = MV). So a deletion costs no tuple, an
// insertion only one the view lacks, and ∇MV and △MV share MV's tuples.
func (m *Manager) evalDeltaPair(at site, v *View, src algebra.Source, parent *trace.Span) (del, add *bag.Bag, err error) {
	if err := m.failAt(at); err != nil {
		return nil, nil, err
	}
	start := time.Now()
	if v.diff != nil {
		v.pairSt.Hold(v.mv.Data(), v.diff.add.Data())
	} else {
		v.pairSt.Hold(v.mv.Data())
	}
	outs, stats, err := v.pair.EvalBorrowed(v.pairSt, src)
	if err != nil {
		return nil, nil, err
	}
	m.observeCompiled(v, parent, time.Since(start), stats)
	return outs[0], outs[1], nil
}
