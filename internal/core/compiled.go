package core

import (
	"fmt"
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
// installing it — into MV, or into ∇MV/△MV — is the same two in-place
// primitives whatever evaluated it (applyToMVLocked, mergeDelta). The
// tree-walking interpreter stays available — WithInterpretedDeltas
// switches every delta path back to it — and serves as the differential-
// testing oracle the compiled engine is checked against.

// compiledDelta holds what is compiled for one view: the pair program
// of an unsharded view, or the shard program of a sharded one. A
// program's State is its reusable evaluation scratch (the slot cache);
// evaluating with a state is what lets a join use — and on first use
// create — a base table's own index, so it happens only under the
// manager's single-writer discipline (or a shard worker's locks), never
// on a read path.
type compiledDelta struct {
	// pair is the view's incremental (del, add) pair as the program's
	// two roots — (∇(T,Q), △(T,Q)) for IM/DT, (▼(L,Q), ▲(L,Q)) for BL/C —
	// evaluated by evalDeltaPair.
	pair   *algebra.Program
	pairSt *algebra.State
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

// compilePrograms lowers the view's incremental pair (or per-shard
// pair) into its compiled program (no-op under WithInterpretedDeltas).
// Must run after compile(v); the time spent is recorded in
// delta_compile_ns.
func (m *Manager) compilePrograms(v *View) error {
	if m.interpretDeltas {
		return nil
	}
	start := time.Now()
	cd := &compiledDelta{}
	var err error
	if v.sh == nil {
		if cd.pair, err = algebra.Compile(v.del, v.add); err != nil {
			return err
		}
		cd.pairSt = cd.pair.NewState()
	} else {
		if cd.shard, err = algebra.Compile(v.shDel, v.shAdd); err != nil {
			return err
		}
		cd.shardSt = make([]*algebra.State, v.sh.n)
		for i := range cd.shardSt {
			cd.shardSt[i] = cd.shard.NewState()
		}
		cd.mergedSt = cd.shard.NewState()
	}
	v.cd = cd
	if v.met != nil {
		v.met.deltaCompileNs.Observe(int64(time.Since(start)))
	}
	return nil
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

// evalDeltaPair evaluates the view's incremental (del, add) pair against
// the live database: through the compiled program when the view has one
// (recording compiled_eval_ns / index_probe_tuples and the
// core.eval.compiled span under parent), through the interpreter
// otherwise (one Evaluator, so the two queries share their common
// subexpressions). The caller owns the returned bags and installs them
// with applyToMVLocked or mergeDelta.
func (m *Manager) evalDeltaPair(v *View, parent *trace.Span) (del, add *bag.Bag, err error) {
	if cd := v.cd; cd != nil && cd.pair != nil {
		start := time.Now()
		outs, stats, err := cd.pair.Eval(cd.pairSt, m.db)
		if err != nil {
			return nil, nil, err
		}
		m.observeCompiled(v, parent, time.Since(start), stats)
		return outs[0], outs[1], nil
	}
	ev := algebra.NewEvaluator(m.db)
	if del, err = ev.Eval(v.del); err != nil {
		return nil, nil, err
	}
	add, err = ev.Eval(v.add)
	return del, add, err
}
