// Package pproflabel is a dvmlint fixture for the pprof-label
// analyzer: a function that opens a maintenance entry span
// (startEntrySpan) must also install the profiling labels via
// obs.StartRegion or obs.SetPhaseLabels, so CPU samples attribute to a
// view/phase.
package pproflabel

import (
	"dvm/internal/obs"
	"dvm/internal/obs/trace"
)

// Manager mimics the core manager: entry points open spans through its
// startEntrySpan marker method.
type Manager struct {
	tracer *trace.Tracer
	acct   *obs.PhaseAcct
}

// startEntrySpan is the entry-point marker the analyzer keys on.
func (m *Manager) startEntrySpan(name string) *trace.Span {
	tr := m.tracer.StartTrace(name)
	if tr == nil {
		return nil
	}
	return tr
}

// PropagateUnlabeled opens the entry span but never installs labels:
// its CPU samples are unattributable.
func (m *Manager) PropagateUnlabeled() {
	sp := m.startEntrySpan("core.propagate") // want: unlabeled
	defer sp.End()
}

// RefreshLabeled is the canonical shape: span plus labeled region.
func (m *Manager) RefreshLabeled() {
	sp := m.startEntrySpan("core.refresh")
	defer sp.End()
	rg := obs.StartRegion(m.acct, "hv", obs.PhaseRefresh)
	defer rg.End()
}

// ExecuteRawLabels uses the lower-level label call; that is fine too.
func (m *Manager) ExecuteRawLabels() {
	sp := m.startEntrySpan("core.execute")
	defer sp.End()
	restore := obs.SetPhaseLabels("", obs.PhaseMakesafe)
	defer restore()
}

// helperNoSpan never opens an entry span, so no labels are required.
func (m *Manager) helperNoSpan() {
	rg := obs.StartRegion(nil, "hv", obs.PhasePropagate)
	rg.End()
}
