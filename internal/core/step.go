package core

import (
	"time"

	"dvm/internal/obs"
	"dvm/internal/obs/trace"
	"dvm/internal/txn"
)

// The instrumentation seam. Every Figure-3 entry point is one step,
//
//	s := m.begin(v, phase, attrs...)
//	defer s.end()
//
// and every MV-exclusive section inside one is one section
// (exclusive). Each reads the clock once at its end and writes that one
// duration everywhere it is wanted — the latency histogram, the trace
// span, the downtime histogram — so a trace and the registry never
// disagree about the same quantity. A SQL statement is a step of its
// own (BeginStatement).

// Tracer exposes the manager's structured tracer. It is created with
// every Manager (disabled by default); enable capture with SampleAll,
// SampleRate, or SampleThreshold and read completed trees with Last.
// See docs/observability.md ("Tracing").
func (m *Manager) Tracer() *trace.Tracer { return m.tracer }

// CurrentSpan returns the active statement span, if any (nil when
// tracing is off or no statement is in flight).
func (m *Manager) CurrentSpan() *trace.Span { return m.cur }

// entrySteps names each phase's entry span and latency family.
var entrySteps = map[string]struct{ span, family string }{
	obs.PhaseMakesafe:       {trace.SpanExecute, "txn_exec_ns"},
	obs.PhasePropagate:      {trace.SpanPropagate, "propagate_ns"},
	obs.PhaseRefresh:        {trace.SpanRefresh, "refresh_ns"},
	obs.PhasePartialRefresh: {trace.SpanPartialRefresh, "partial_refresh_ns"},
	obs.PhaseRecompute:      {trace.SpanRecompute, "recompute_ns"},
}

// step is one open maintenance step (see begin).
type step struct {
	m  *Manager
	v  *View          // the view the step maintains; nil for Execute's
	h  *obs.Histogram // the phase's latency family
	sp *trace.Span    // the entry span
	rg obs.Region     // labels and the start (and allocation) readings
}

// begin opens one maintenance step of v in phase — of a transaction,
// which spans several views, when v is nil: its entry span, a child of
// the active statement span when one is installed and otherwise a new
// root trace, carrying the view and attrs; the (view, phase) pprof
// labels; and the start reading, with the allocation reading of the
// view's phase_alloc_bytes pair.
func (m *Manager) begin(v *View, phase string, attrs ...trace.Attr) step {
	name := entrySteps[phase].span
	s := step{m: m, v: v, h: m.txnExecNs}
	if m.cur != nil {
		s.sp = m.cur.StartChild(name)
	} else {
		s.sp = m.tracer.StartTrace(name)
	}
	if v == nil {
		s.sp.SetAttrs(attrs...)
		s.rg = obs.StartRegion(nil, "", phase)
		return s
	}
	ps := v.met.steps[phase]
	s.h = ps.ns
	s.sp.SetAttrs(trace.Str("view", v.Name))
	s.sp.SetAttrs(attrs...)
	s.rg = obs.StartRegion(ps.acct, v.Name, phase)
	return s
}

// end closes the step: one clock reading, written into the phase's
// latency histogram and the entry span, and the size gauges refreshed.
// A transaction's reading is also split evenly across the makesafe_ns
// of the views it affected (m.exec.affected, which Execute empties only
// after its step has ended).
func (s step) end() {
	d := s.rg.End()
	s.h.Observe(int64(d))
	s.sp.EndExplicit(d)
	if s.v != nil {
		s.m.updateSizeGauges(s.v)
		return
	}
	views := s.m.exec.affected
	share := int64(d) / int64(max(len(views), 1))
	for _, v := range views {
		v.met.makesafeNs.Observe(share)
		s.m.updateSizeGauges(v)
	}
}

// section is one open MV-exclusive section (see exclusive).
type section struct {
	views []*View
	sps   []*trace.Span // each view's exclusive span; nil untraced
	start time.Time
}

// exclusive opens the MV-exclusive section of views: called under the
// write locks on their MVs that h proves, once adoptLocked has run.
// Readers of the MVs wait it out — it is the views' downtime. Each view
// gets an exclusive core.refresh.apply span under h's lock-hold span,
// and end writes one reading into every view's view_downtime_ns and
// every span, so a trace's exclusive time is the histogram's, exactly.
func exclusive(h txn.Held, views ...*View) section {
	x := section{views: views}
	if hold := h.Span(); hold != nil {
		x.sps = make([]*trace.Span, len(views))
		for i, v := range views {
			x.sps[i] = hold.StartChild(trace.SpanRefreshApply, trace.Str("view", v.Name))
			x.sps[i].SetExclusive()
		}
	}
	x.start = time.Now()
	return x
}

// span is the first view's exclusive span, the parent of the section's
// own work (nil untraced).
func (x section) span() *trace.Span {
	if x.sps == nil {
		return nil
	}
	return x.sps[0]
}

// end closes the section with one clock reading.
func (x section) end() {
	d := time.Since(x.start)
	for i, v := range x.views {
		v.met.downtimeNs.Observe(int64(d))
		if x.sps != nil {
			x.sps[i].EndExplicit(d)
		}
	}
}

// Statement is one open SQL statement step (see BeginStatement).
type Statement struct {
	m        *Manager
	h        *obs.Histogram
	sp, prev *trace.Span
	start    time.Time
}

// BeginStatement opens one SQL statement's step: a root sql.stmt span,
// installed as the parent the maintenance steps the statement runs
// nest under — one statement, one causally complete tree — and its
// sql_stmt_ns{kind} latency. Its End closes it with one clock reading,
// written into both, and restores the previous parent; call it exactly
// once (defer). Like all Manager writes it follows the single-writer
// discipline — concurrent readers must not call it.
func (m *Manager) BeginStatement(kind string) Statement {
	s := Statement{m: m, h: m.obs.Histogram("sql_stmt_ns", kind), prev: m.cur, start: time.Now()}
	s.sp = m.tracer.StartTraceAt(trace.SpanSQLStmt, s.start, trace.Str("kind", kind))
	m.cur = s.sp
	return s
}

// End closes the statement step.
func (s Statement) End() {
	d := time.Since(s.start)
	s.h.Observe(int64(d))
	s.sp.EndExplicit(d)
	s.m.cur = s.prev
}
