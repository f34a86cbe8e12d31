package core

import "dvm/internal/obs"

// viewMetrics caches one view's obs instruments so hot paths never take
// the registry lock. Families and their paper quantities are documented
// in docs/observability.md (a test enforces the docs stay complete).
type viewMetrics struct {
	makesafeNs       *obs.Histogram // per-transaction overhead of makesafe_*
	logAppendTuples  *obs.Counter   // tuples appended to logs
	logSizeTuples    *obs.Gauge     // current log size (▼R ⊎ ▲R over bases)
	diffSizeTuples   *obs.Gauge     // current differential size (∇MV ⊎ △MV)
	propagateTuples  *obs.Counter   // log tuples folded by propagate_C
	refreshTuples    *obs.Counter   // tuples consumed by refresh_*
	downtimeNs       *obs.Histogram // exclusive MV-lock hold (view downtime)
	deltaCompileNs   *obs.Histogram // one-time delta-program compile cost
	compiledEvalNs   *obs.Histogram // per-evaluation compiled-program wall time
	indexProbeTuples *obs.Counter   // candidate pairs probed by indexed joins
	indexBuildTuples *obs.Counter   // tuples put into join indexes
	// steps maps each phase of the view's own steps (all but makesafe,
	// whose step is a transaction's) to its latency family
	// (propagate_ns, refresh_ns, ...) and its phase_alloc_bytes pair,
	// created eagerly so the families exist before any maintenance runs.
	steps map[string]viewStep
}

// viewStep is one phase's instruments for one view's steps.
type viewStep struct {
	ns   *obs.Histogram
	acct *obs.PhaseAcct
}

func newViewMetrics(r *obs.Registry, view string) *viewMetrics {
	steps := make(map[string]viewStep, 4)
	for _, p := range obs.Phases() {
		if p != obs.PhaseMakesafe {
			steps[p] = viewStep{r.Histogram(entrySteps[p].family, view), obs.NewPhaseAcct(r, view, p)}
		}
	}
	return &viewMetrics{
		steps:            steps,
		makesafeNs:       r.Histogram("makesafe_ns", view),
		logAppendTuples:  r.Counter("log_append_tuples", view),
		logSizeTuples:    r.Gauge("log_size_tuples", view),
		diffSizeTuples:   r.Gauge("diff_size_tuples", view),
		propagateTuples:  r.Counter("propagate_tuples", view),
		refreshTuples:    r.Counter("refresh_tuples", view),
		downtimeNs:       r.Histogram("view_downtime_ns", view),
		deltaCompileNs:   r.Histogram("delta_compile_ns", view),
		compiledEvalNs:   r.Histogram("compiled_eval_ns", view),
		indexProbeTuples: r.Counter("index_probe_tuples", view),
		indexBuildTuples: r.Counter("index_build_tuples", view),
	}
}

// logVolume returns the tuple volume of the view's private log tables.
// In shared-log mode these hold the last materialized window — a merged
// copy of (part of) the pending shared window, which is what
// updateSizeGauges reports there instead, so nothing is counted twice.
func (v *View) logVolume() int {
	n := 0
	for _, p := range v.logs {
		n += p.volume()
	}
	return n
}

// diffVolume returns the tuple volume of the view's differential tables
// (∇MV ⊎ △MV), 0 when it keeps none.
func (v *View) diffVolume() int {
	if v.diff == nil {
		return 0
	}
	return v.diff.volume()
}

// logDebt returns the tuple volume of the view's pending log: its
// private log tables, or in shared-log mode its unconsumed window.
func (m *Manager) logDebt(v *View) int {
	if m.shared != nil {
		return m.pendingShared(v)
	}
	return v.logVolume()
}

// updateSizeGauges refreshes the view's log/differential size gauges
// from the live tables. Called after every operation that grows or
// empties them, so \stats always reflects current staleness debt.
func (m *Manager) updateSizeGauges(v *View) {
	if v.logs != nil {
		v.met.logSizeTuples.Set(int64(m.logDebt(v)))
	}
	if v.diff != nil {
		v.met.diffSizeTuples.Set(int64(v.diffVolume()))
	}
}
