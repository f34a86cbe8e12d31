// Package spanend is a dvmlint fixture for resource-lifecycle's span
// row: every *trace.Span produced by a Start* call must be ended on all
// paths or escape to a new owner; a call argument only borrows it.
package spanend

import "dvm/internal/obs/trace"

// Discarded drops the span on the floor: the trace never finishes.
func Discarded(t *trace.Tracer) {
	t.StartTrace("root") // want: discarded
}

// Blank assigns the span to _, which is the same thing in disguise.
func Blank(t *trace.Tracer) {
	_ = t.StartTrace("root") // want: blank
}

// NeverEnded binds the span but no path ever ends it.
func NeverEnded(t *trace.Tracer) {
	sp := t.StartTrace("root") // want: never ended
	sp.SetAttrs(trace.Str("view", "hv"))
}

// EarlyReturn ends the span on the fall-through path only; the error
// path returns with the span still open.
func EarlyReturn(t *trace.Tracer, fail bool) error {
	sp := t.StartTrace("root")
	if fail {
		return errFail // want: return before End
	}
	sp.End()
	return nil
}

// DeferEnd is the canonical shape: the span ends on every path.
func DeferEnd(t *trace.Tracer, fail bool) error {
	sp := t.StartTrace("root")
	defer sp.End()
	if fail {
		return errFail
	}
	return nil
}

// DeferLit ends the span inside a deferred function literal
// (the refresh transactions' EndExplicit pattern).
func DeferLit(t *trace.Tracer) {
	sp := t.StartTrace("root")
	defer func() { sp.EndExplicit(42) }()
}

// Linear ends the span before any return.
func Linear(t *trace.Tracer) error {
	sp := t.StartTrace("root")
	sp.SetExclusive()
	sp.End()
	return nil
}

// Returned hands the span to the caller, who inherits the obligation.
func Returned(t *trace.Tracer) *trace.Span {
	return t.StartTrace("root")
}

// Escapes passes the span to another function, which only borrows it.
func Escapes(t *trace.Tracer) {
	sp := t.StartTrace("root")
	finish(sp)
}

// MultiValue calls a lower-case start helper returning a span among
// other results, a shape the span row tracks at the span's index. The
// bound span is never ended.
func MultiValue(t *trace.Tracer) int {
	sp, n := startPair(t) // want: never ended
	sp.SetAttrs(trace.Int("n", int64(n)))
	return n
}

// MultiValueOK ends the span from the same multi-value shape.
func MultiValueOK(t *trace.Tracer) int {
	sp, n := startPair(t)
	defer sp.End()
	return n
}

// startPair is a multi-result start helper (span at index 0).
func startPair(t *trace.Tracer) (*trace.Span, int) {
	return t.StartTrace("pair"), 7
}

func finish(sp *trace.Span) { sp.End() }

var errFail = errorString("fail")

type errorString string

func (e errorString) Error() string { return string(e) }

// SampledOut returns early when the sampler skipped the trace: a nil
// span owes no End, so this is clean.
func SampledOut(t *trace.Tracer) {
	sp := t.StartTrace("root")
	if sp == nil {
		return
	}
	defer sp.End()
}
