// Package trace is the engine's structured-tracing layer: one trace
// tree per maintenance transaction, built from hierarchical spans with
// typed attributes, collected into a fixed-size lock-free ring buffer.
//
// Where internal/obs answers "how much downtime in aggregate" with
// histograms, this package answers the per-transaction question of
// Section 5.3: which single propagate_C or makesafe_C blew the
// downtime budget, and where inside it the time went (lock wait vs
// hold, log scan vs diff install). Every entry point of Figure 3 —
// execute, makesafe, propagate, refresh, partial refresh, recompute —
// opens a span; internal/txn contributes lock wait/hold child spans;
// internal/sql and internal/storage contribute statement and snapshot
// spans. Span names are registered in names.go and documented in
// docs/observability.md; a root test enforces the 1:1 mapping.
//
// The hot-path contract mirrors obs: a disabled tracer costs one
// atomic load per transaction, and every Span method is safe on a nil
// receiver, so call sites never branch on "is tracing on".
package trace

import (
	"fmt"
	"sync/atomic"
	"time"
)

// Attr is one typed key/value attribute on a span: either a string or
// an int64, never both.
type Attr struct {
	// Key names the attribute (e.g. "view", "tuples").
	Key string `json:"key"`
	// S is the string value when the attribute is a string.
	S string `json:"s,omitempty"`
	// I is the integer value when the attribute is an integer.
	I int64 `json:"i,omitempty"`
	// IsInt reports which of S and I is meaningful.
	IsInt bool `json:"is_int,omitempty"`
}

// Str returns a string-valued attribute.
func Str(key, value string) Attr { return Attr{Key: key, S: value} }

// Int returns an integer-valued attribute.
func Int(key string, value int64) Attr { return Attr{Key: key, I: value, IsInt: true} }

// Value renders the attribute's value as a string.
func (a Attr) Value() string {
	if a.IsInt {
		return fmt.Sprintf("%d", a.I)
	}
	return a.S
}

// Span is one timed node in a trace tree. Spans are produced by
// Tracer.StartTrace (roots) and Span.StartChild, and finished by End
// or EndExplicit. All methods are safe on a nil receiver — a nil span
// is how a disabled tracer propagates "off" through call sites — and
// a span's subtree is owned by one goroutine at a time (the engine's
// single-writer discipline), so no locking is needed.
type Span struct {
	// Name is the registered span name (see names.go).
	Name string `json:"name"`
	// Start is the wall-clock start time.
	Start time.Time `json:"start"`
	// Dur is the span's duration, set by End or EndExplicit.
	Dur time.Duration `json:"dur_ns"`
	// Exclusive marks a span whose whole duration is MV-exclusive
	// time: readers of the view were blocked for all of it. The sum
	// of a trace's exclusive spans is its contribution to the
	// view_downtime_ns histogram.
	Exclusive bool `json:"exclusive,omitempty"`
	// Attrs are the span's typed attributes.
	Attrs []Attr `json:"attrs,omitempty"`
	// Children are the span's child spans in start order.
	Children []*Span `json:"children,omitempty"`

	parent *Span
	tr     *Trace
	ended  bool
}

// StartChild opens a child span under s. Returns nil when s is nil.
func (s *Span) StartChild(name string, attrs ...Attr) *Span {
	if s == nil {
		return nil
	}
	// attrs is copied, not kept: a caller's variadic slice then stays on
	// its stack, so building a span's attributes costs nothing when s is
	// nil (no tracer attached).
	c := &Span{Name: name, Start: time.Now(), Attrs: append([]Attr(nil), attrs...), parent: s, tr: s.tr}
	s.Children = append(s.Children, c)
	return c
}

// SetAttrs appends attributes to the span (no-op on nil).
func (s *Span) SetAttrs(attrs ...Attr) {
	if s == nil {
		return
	}
	s.Attrs = append(s.Attrs, attrs...)
}

// SetExclusive marks the span as MV-exclusive time (no-op on nil).
func (s *Span) SetExclusive() {
	if s == nil {
		return
	}
	s.Exclusive = true
}

// End finishes the span with the elapsed wall-clock duration and
// returns it. Ending a root span completes its trace and offers it to
// the tracer's ring buffer. End is idempotent; on a nil span it
// returns 0.
func (s *Span) End() time.Duration {
	if s == nil {
		return 0
	}
	d := time.Since(s.Start)
	s.finish(d)
	return d
}

// EndExplicit finishes the span with an externally measured duration.
// Call sites that already time a section for a histogram (e.g. the
// exclusive refresh apply) use this so the span and the histogram
// record the identical value.
func (s *Span) EndExplicit(d time.Duration) {
	if s == nil {
		return
	}
	s.finish(d)
}

func (s *Span) finish(d time.Duration) {
	if s.ended {
		return
	}
	s.ended = true
	s.Dur = d
	if s.parent == nil && s.tr != nil {
		s.tr.finish()
	}
}

// Trace is one completed (or in-flight) span tree with a process-wide
// unique ID.
type Trace struct {
	// ID is the tracer-assigned sequence number; higher is newer.
	ID uint64 `json:"id"`
	// Root is the tree's root span.
	Root *Span `json:"root"`
	// Spans is the total span count, computed when the trace completes.
	Spans int `json:"spans"`
	// ExclusiveNs is the summed duration of exclusive spans in the
	// tree, computed when the trace completes — this trace's view
	// downtime contribution.
	ExclusiveNs int64 `json:"exclusive_ns"`

	tracer *Tracer
}

func (tr *Trace) finish() {
	tr.Spans, tr.ExclusiveNs = tally(tr.Root)
	t := tr.tracer
	if t == nil {
		return
	}
	if Mode(t.mode.Load()) == ModeThreshold && tr.ExclusiveNs < t.thresholdNs.Load() {
		return
	}
	i := t.head.Add(1) - 1
	t.ring[i%uint64(len(t.ring))].Store(tr)
}

func tally(s *Span) (spans int, exclusiveNs int64) {
	if s == nil {
		return 0, 0
	}
	spans = 1
	if s.Exclusive {
		exclusiveNs = int64(s.Dur)
	}
	for _, c := range s.Children {
		n, e := tally(c)
		spans += n
		exclusiveNs += e
	}
	return spans, exclusiveNs
}

// Mode selects which traces a Tracer keeps.
type Mode uint32

// Sampling modes.
const (
	// ModeOff captures nothing; StartTrace returns nil.
	ModeOff Mode = iota
	// ModeAll captures every trace.
	ModeAll
	// ModeRate captures every Nth trace.
	ModeRate
	// ModeThreshold captures every trace but keeps only those whose
	// MV-exclusive total meets the configured threshold.
	ModeThreshold
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case ModeOff:
		return "off"
	case ModeAll:
		return "all"
	case ModeRate:
		return "rate"
	case ModeThreshold:
		return "threshold"
	}
	return fmt.Sprintf("Mode(%d)", uint32(m))
}

// Tracer assigns trace IDs, applies the sampling policy, and retains
// the most recent completed traces in a fixed-size lock-free ring.
// The zero-value-like disabled state (ModeOff) costs one atomic load
// per StartTrace; a nil *Tracer is also fully inert.
type Tracer struct {
	mode        atomic.Uint32
	rateN       atomic.Int64
	thresholdNs atomic.Int64
	seq         atomic.Uint64
	rateSeq     atomic.Uint64
	head        atomic.Uint64
	ring        []atomic.Pointer[Trace]
}

// DefaultCapacity is the ring size used when NewTracer is given a
// non-positive capacity.
const DefaultCapacity = 256

// NewTracer returns a tracer retaining up to capacity completed
// traces, initially in ModeOff.
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Tracer{ring: make([]atomic.Pointer[Trace], capacity)}
}

// Disable stops capture: subsequent StartTrace calls return nil.
func (t *Tracer) Disable() {
	if t == nil {
		return
	}
	t.mode.Store(uint32(ModeOff))
}

// SampleAll captures every trace.
func (t *Tracer) SampleAll() {
	if t == nil {
		return
	}
	t.mode.Store(uint32(ModeAll))
}

// SampleRate captures one trace in every n (n <= 1 means all).
func (t *Tracer) SampleRate(n int64) {
	if t == nil {
		return
	}
	t.rateN.Store(n)
	t.mode.Store(uint32(ModeRate))
}

// SampleThreshold captures every trace but keeps only those whose
// summed MV-exclusive span time is at least d — "keep any trace whose
// exclusive section exceeds 1ms".
func (t *Tracer) SampleThreshold(d time.Duration) {
	if t == nil {
		return
	}
	t.thresholdNs.Store(int64(d))
	t.mode.Store(uint32(ModeThreshold))
}

// Mode returns the current sampling mode.
func (t *Tracer) Mode() Mode {
	if t == nil {
		return ModeOff
	}
	return Mode(t.mode.Load())
}

// StartTrace begins a new trace and returns its root span, or nil
// when the sampling policy skips this transaction. The returned span
// must be finished with End, on every path: a trace whose span never
// ended finishes with that span's Dur at 0.
func (t *Tracer) StartTrace(name string, attrs ...Attr) *Span {
	return t.StartTraceAt(name, time.Now(), attrs...)
}

// StartTraceAt is StartTrace with an explicit start time, for call
// sites that can only open the span after the work began (e.g. the
// snapshot load span, whose tracer does not exist until the snapshot
// is parsed).
func (t *Tracer) StartTraceAt(name string, start time.Time, attrs ...Attr) *Span {
	if t == nil {
		return nil
	}
	switch Mode(t.mode.Load()) {
	case ModeOff:
		return nil
	case ModeRate:
		if n := t.rateN.Load(); n > 1 && t.rateSeq.Add(1)%uint64(n) != 0 {
			return nil
		}
	}
	tr := &Trace{ID: t.seq.Add(1), tracer: t}
	sp := &Span{Name: name, Start: start, Attrs: append([]Attr(nil), attrs...), tr: tr}
	tr.Root = sp
	return sp
}

// Last returns up to n completed traces, newest first.
func (t *Tracer) Last(n int) []*Trace {
	all := t.captured()
	if n > 0 && len(all) > n {
		all = all[:n]
	}
	return all
}

// Get returns the completed trace with the given ID, if retained.
func (t *Tracer) Get(id uint64) *Trace {
	for _, tr := range t.captured() {
		if tr.ID == id {
			return tr
		}
	}
	return nil
}

// Len returns the number of traces currently retained.
func (t *Tracer) Len() int { return len(t.captured()) }

// captured snapshots the ring, newest first (by ID, descending).
func (t *Tracer) captured() []*Trace {
	if t == nil {
		return nil
	}
	out := make([]*Trace, 0, len(t.ring))
	for i := range t.ring {
		if tr := t.ring[i].Load(); tr != nil {
			out = append(out, tr)
		}
	}
	// Insertion sort by ID descending: the ring is small and nearly
	// ordered, and this keeps the package free of non-stdlib deps.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].ID > out[j-1].ID; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// Configure applies a textual sampling spec to the tracer: "off",
// "all", "rate=N", or "threshold=DUR" (DUR in time.ParseDuration
// syntax, e.g. "1ms"). Used by the cmd flag parsing.
func Configure(t *Tracer, spec string) error {
	switch {
	case spec == "off":
		t.Disable()
	case spec == "all":
		t.SampleAll()
	case len(spec) > 5 && spec[:5] == "rate=":
		var n int64
		if _, err := fmt.Sscanf(spec[5:], "%d", &n); err != nil || n < 1 {
			return fmt.Errorf("trace: bad rate %q", spec)
		}
		t.SampleRate(n)
	case len(spec) > 10 && spec[:10] == "threshold=":
		d, err := time.ParseDuration(spec[10:])
		if err != nil {
			return fmt.Errorf("trace: bad threshold %q: %v", spec, err)
		}
		t.SampleThreshold(d)
	default:
		return fmt.Errorf("trace: unknown sampling spec %q (want off|all|rate=N|threshold=DUR)", spec)
	}
	return nil
}
