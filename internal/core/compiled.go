package core

import (
	"fmt"
	"time"

	"dvm/internal/algebra"
	"dvm/internal/bag"
	"dvm/internal/obs/trace"
	"dvm/internal/txn"
)

// Compiled delta programs: every maintenance expression a view needs is
// fixed at DefineView time, so instead of re-interpreting the algebra
// DAG per transaction, the manager lowers each one ONCE through
// algebra.Compile into fused closures with pre-resolved columns,
// slot-cached DAG nodes, and hash joins that probe the base tables' own
// journal-synced indexes (see internal/algebra/compile.go). The
// tree-walking interpreter stays available — WithInterpretedDeltas
// switches every delta path back to it — and serves as the differential-
// testing oracle the compiled engine is checked against.

// compiledAssign is one compiled simultaneous-assignment bundle: the
// program's roots are the assignment right-hand sides, tables the
// install targets in root order, and state the reusable evaluation
// scratch (the slot cache). Evaluating with a state is what lets a join
// use — and on first use create — a base table's own index, so it
// happens only under the manager's single-writer discipline, never on
// a read path and never concurrently.
type compiledAssign struct {
	prog   *algebra.Program
	state  *algebra.State
	tables []string
}

// compiledDelta holds every program compiled for one view. Fields are
// nil when the scenario has no such path.
type compiledDelta struct {
	// safe is the makesafe program Execute installs per transaction:
	// the compiled twin of View.safeAssigns (DT's differential fold,
	// BL/C's algebraic log merge for the slow-append mode).
	safe *compiledAssign
	// pair is the view's incremental (del, add) pair as the program's
	// two roots, installed into MV by applyToMVLocked: (∇(T,Q), △(T,Q))
	// for makesafe_IM, (▼(L,Q), ▲(L,Q)) for refresh_BL. It has no
	// install targets.
	pair *compiledAssign
	// fold is propagate_C's fold of ▼(L,Q)/▲(L,Q) into ∇MV/△MV
	// (non-sharded Combined views).
	fold *compiledAssign
	// shard is the per-shard [DEL, ADD] pair of a sharded Combined
	// view, with one state per shard (each shard is evaluated by at
	// most one worker at a time; the join indexes live on the shard's
	// mirror bags, which only that worker touches while it holds the
	// shard's locks) plus one for the merged-fallback plan.
	shard    *algebra.Program
	shardSt  []*algebra.State
	mergedSt *algebra.State
}

// WithInterpretedDeltas makes the manager evaluate every delta
// expression with the tree-walking interpreter instead of compiled
// delta programs. The two engines are differentially tested to agree;
// the flag exists for that cross-check, for ablation benchmarks (E16),
// and as an escape hatch. The view's definition itself (View.def) is
// not a delta: materializing and recomputing a view run compiled,
// one-shot, either way.
func WithInterpretedDeltas() ManagerOption {
	return func(m *Manager) { m.interpretDeltas = true }
}

// SetInterpretedDeltas reconfigures the evaluation engine; it fails
// once views exist (their programs are compiled at definition time).
// The sql engine's WithInterpretedDeltas option routes through here.
func (m *Manager) SetInterpretedDeltas(on bool) error {
	if len(m.views) > 0 {
		return fmt.Errorf("core: cannot change delta engine with %d views defined", len(m.views))
	}
	m.interpretDeltas = on
	return nil
}

// compilePrograms lowers the view's precompiled incremental queries
// into compiled delta programs (no-op under WithInterpretedDeltas).
// Must run after compile(v) and the auxiliary tables exist; the time
// spent is recorded in delta_compile_ns.
func (m *Manager) compilePrograms(v *View) error {
	if m.interpretDeltas {
		return nil
	}
	start := time.Now()
	cd := &compiledDelta{}

	if len(v.safeAssigns) > 0 {
		ca, err := m.compileAssigns(v.safeAssigns)
		if err != nil {
			return err
		}
		cd.safe = ca
	}

	var err error
	switch v.Scenario {
	case Immediate, BaseLogs:
		del, add := v.IncrementalQueries()
		if cd.pair, err = m.compileExprs(nil, del, add); err != nil {
			return err
		}
	case Combined:
		if v.sh == nil {
			fold, err := m.foldAssigns(v, v.blDel, v.blAdd)
			if err != nil {
				return err
			}
			if cd.fold, err = m.compileAssigns(fold); err != nil {
				return err
			}
		} else {
			prog, err := algebra.Compile(v.shDel, v.shAdd)
			if err != nil {
				return err
			}
			cd.shard = prog
			cd.shardSt = make([]*algebra.State, v.sh.n)
			for i := range cd.shardSt {
				cd.shardSt[i] = prog.NewState()
			}
			cd.mergedSt = prog.NewState()
		}
	}

	v.cd = cd
	if v.met != nil {
		v.met.deltaCompileNs.Observe(int64(time.Since(start)))
	}
	return nil
}

// compileAssigns compiles the right-hand sides of a simultaneous
// assignment bundle as one DAG (they share subexpressions the same way
// the interpreter's shared memo exploits).
func (m *Manager) compileAssigns(assigns []txn.Assignment) (*compiledAssign, error) {
	tables := make([]string, len(assigns))
	exprs := make([]algebra.Expr, len(assigns))
	for i, a := range assigns {
		tables[i] = a.Table
		exprs[i] = a.Expr
	}
	return m.compileExprs(tables, exprs...)
}

// compileExprs compiles roots into a program whose i-th root installs
// into tables[i].
func (m *Manager) compileExprs(tables []string, roots ...algebra.Expr) (*compiledAssign, error) {
	prog, err := algebra.Compile(roots...)
	if err != nil {
		return nil, err
	}
	return &compiledAssign{prog: prog, state: prog.NewState(), tables: tables}, nil
}

// evalCompiled runs one compiled program against the live database,
// recording compiled_eval_ns / index_probe_tuples and emitting the
// core.eval.compiled span under parent with its explicit duration.
func (m *Manager) evalCompiled(v *View, ca *compiledAssign, parent *trace.Span) ([]*bag.Bag, error) {
	start := time.Now()
	outs, stats, err := ca.prog.Eval(ca.state, m.db)
	dur := time.Since(start)
	if err != nil {
		return nil, err
	}
	m.observeCompiled(v, parent, dur, stats)
	return outs, nil
}

// observeCompiled records one compiled evaluation's metrics and span.
// Shard workers do not call this; their coordinator does, post-hoc,
// with the worker-measured duration (obs writes stay single-threaded
// per family and workers never touch the tracer).
func (m *Manager) observeCompiled(v *View, parent *trace.Span, dur time.Duration, stats algebra.Stats) {
	v.Stats.IndexProbeTuples += stats.IndexProbeTuples
	v.Stats.IndexBuildTuples += stats.IndexBuildTuples
	if v.met != nil {
		v.met.compiledEvalNs.Observe(int64(dur))
		v.met.indexProbeTuples.Add(stats.IndexProbeTuples)
	}
	sp := parent.StartChild(trace.SpanEvalCompiled,
		trace.Str("view", v.Name), trace.Int("index_probe_tuples", stats.IndexProbeTuples))
	sp.EndExplicit(dur)
}

// runCompiledAssigns evaluates a compiled assignment bundle and
// installs each root into its target table. Simultaneous semantics
// hold because Program.Eval computes every root against the pre-state
// before anything is installed.
func (m *Manager) runCompiledAssigns(v *View, ca *compiledAssign, parent *trace.Span) error {
	outs, err := m.evalCompiled(v, ca, parent)
	if err != nil {
		return err
	}
	for i, name := range ca.tables {
		tb, err := m.db.Table(name)
		if err != nil {
			return err
		}
		tb.Replace(outs[i])
	}
	return nil
}

// evalDeltaPair evaluates the view's incremental (del, add) pair —
// (∇(T,Q), △(T,Q)) for an Immediate view, (▼(L,Q), ▲(L,Q)) for a
// BaseLogs one — against the live database, through the compiled
// program when the view has one and the interpreter otherwise (one
// Evaluator, so the two queries share their common subexpressions).
// The caller owns the returned bags.
func (m *Manager) evalDeltaPair(v *View, parent *trace.Span) (del, add *bag.Bag, err error) {
	if v.cd != nil && v.cd.pair != nil {
		outs, err := m.evalCompiled(v, v.cd.pair, parent)
		if err != nil {
			return nil, nil, err
		}
		return outs[0], outs[1], nil
	}
	dq, aq := v.IncrementalQueries()
	ev := algebra.NewEvaluator(m.db)
	if del, err = ev.Eval(dq); err != nil {
		return nil, nil, err
	}
	add, err = ev.Eval(aq)
	return del, add, err
}
