package obs

import (
	"context"
	"runtime/metrics"
	"runtime/pprof"
	"sync"
	"time"
)

// Profiler label keys. Every maintenance execution region installs
// these as runtime/pprof goroutine labels, so CPU (and labeled heap)
// profiles slice by view and Figure-2/3 phase — `go tool pprof
// -tags` on a `make profile` capture answers "which view/phase is burning
// the cycles" directly. docs/observability.md ("Profiling &
// attribution") documents the vocabulary.
const (
	// LabelView carries the view name a region maintains.
	LabelView = "dvm_view"
	// LabelPhase carries the Figure-2/3 phase name (one of Phases).
	LabelPhase = "dvm_phase"
)

// Maintenance phase names used as the LabelPhase value and as the
// phase half of the "view/phase" label on the phase_* families.
const (
	// PhaseMakesafe is the per-transaction bookkeeping of Execute.
	PhaseMakesafe = "makesafe"
	// PhasePropagate is propagate_C (fold logs into diff tables).
	PhasePropagate = "propagate"
	// PhaseRefresh is refresh_* (bring MV up to date).
	PhaseRefresh = "refresh"
	// PhasePartialRefresh is partial_refresh_C (apply diff tables).
	PhasePartialRefresh = "partial_refresh"
	// PhaseRecompute is the naive recompute-from-scratch baseline.
	PhaseRecompute = "recompute"
)

// Phases returns every maintenance phase name, in Figure-3 order.
// Per-(view,phase) accounting families are created eagerly for each of
// these at view definition, so the families exist (at zero) before any
// maintenance runs.
func Phases() []string {
	return []string{PhaseMakesafe, PhasePropagate, PhaseRefresh, PhasePartialRefresh, PhaseRecompute}
}

// labelSet builds the (view, phase) pprof label set, empty values
// omitted, as the context pprof.SetGoroutineLabels reads it from.
// Building one allocates; installing a built one does not, so a label
// set that is installed again and again is built once: a PhaseAcct
// holds its own, and viewless holds the sets without a view.
func labelSet(view, phase string) context.Context {
	kv := make([]string, 0, 4)
	if view != "" {
		kv = append(kv, LabelView, view)
	}
	if phase != "" {
		kv = append(kv, LabelPhase, phase)
	}
	return pprof.WithLabels(context.Background(), pprof.Labels(kv...))
}

// viewless maps each phase to its label set with no view: the label of
// a region that spans several views, as Execute's makesafe region does.
// It is fixed by Phases, so it does not grow with the views.
var viewless = func() map[string]context.Context {
	m := make(map[string]context.Context)
	for _, p := range Phases() {
		m[p] = labelSet("", p)
	}
	return m
}()

// labelsFor returns the (view, phase) label set: acct's own when acct
// is the pair's, a viewless one when view is empty, else a new one.
func labelsFor(acct *PhaseAcct, view, phase string) context.Context {
	if acct != nil && acct.labels != nil && acct.view == view && acct.phase == phase {
		return acct.labels
	}
	if view == "" {
		if ctx, ok := viewless[phase]; ok {
			return ctx
		}
	}
	return labelSet(view, phase)
}

// SetPhaseLabels installs the dvm_view/dvm_phase pprof labels on the
// calling goroutine (empty values are omitted) and returns a func that
// restores the unlabeled state. Maintenance entry points own their
// goroutine and never nest regions, so restoring to the background
// label set is exact. A viewless label set is built once, so labeling
// a region that spans several views allocates nothing; a region of one
// view should be a StartRegion on that view's PhaseAcct, which holds
// the view's set.
func SetPhaseLabels(view, phase string) func() {
	pprof.SetGoroutineLabels(labelsFor(nil, view, phase))
	return clearLabels
}

// clearLabels restores the goroutine's unlabeled state.
func clearLabels() { pprof.SetGoroutineLabels(context.Background()) }

// heapAllocsMetric is the runtime/metrics cumulative allocation
// counter Region deltas for phase_alloc_bytes.
const heapAllocsMetric = "/gc/heap/allocs:bytes"

// heapSample is the one sample HeapAllocBytes reads into, allocated
// once. metrics.Read must not be given one sample from two goroutines
// at once, so the mutex serializes the readers (the runtime serializes
// metrics reads anyway). A sync.Pool would allocate a sample again
// whenever the collector had emptied it.
var heapSample = struct {
	sync.Mutex
	s [1]metrics.Sample
}{s: [1]metrics.Sample{{Name: heapAllocsMetric}}}

// HeapAllocBytes returns the process's cumulative heap allocation in
// bytes (monotone; from runtime/metrics). Regions delta it around a
// phase to attribute allocation — exact under the manager's
// single-writer discipline, an upper bound when concurrent readers
// allocate. It allocates nothing.
func HeapAllocBytes() uint64 {
	heapSample.Lock()
	defer heapSample.Unlock()
	s := heapSample.s[:]
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindUint64 {
		return s[0].Value.Uint64()
	}
	return 0
}

// PhaseAcct accumulates one (view, phase) pair's resource attribution:
// on-goroutine wall time into phase_cpu_ns and heap allocation deltas
// into phase_alloc_bytes, both labeled "view/phase". It also holds the
// pair's pprof label set, so a region on it labels the goroutine
// without allocating. A nil PhaseAcct is inert.
type PhaseAcct struct {
	// CPU is the phase_cpu_ns counter (on-goroutine wall nanoseconds).
	CPU *Counter
	// Alloc is the phase_alloc_bytes counter (heap bytes allocated).
	Alloc *Counter

	view, phase string
	labels      context.Context
}

// NewPhaseAcct returns the accounting pair for (view, phase), creating
// the counters in r under the label "view/phase", and builds the pair's
// pprof label set.
func NewPhaseAcct(r *Registry, view, phase string) *PhaseAcct {
	l := view + "/" + phase
	return &PhaseAcct{
		CPU:    r.Counter("phase_cpu_ns", l),
		Alloc:  r.Counter("phase_alloc_bytes", l),
		view:   view,
		phase:  phase,
		labels: labelSet(view, phase),
	}
}

// Add folds an externally measured cost into the pair (Execute uses
// this to distribute one region's cost across the affected views).
// Non-positive increments are dropped.
func (a *PhaseAcct) Add(cpuNs, allocBytes int64) {
	if a == nil {
		return
	}
	if cpuNs > 0 {
		a.CPU.Add(cpuNs)
	}
	if allocBytes > 0 {
		a.Alloc.Add(allocBytes)
	}
}

// Region is one open attribution region: pprof labels installed on the
// goroutine plus baseline wall-clock and allocation readings. End
// restores the labels and folds the deltas into the PhaseAcct. The
// zero Region is inert.
type Region struct {
	acct    *PhaseAcct
	start   time.Time
	alloc0  uint64
	labeled bool
}

// StartRegion installs the (view, phase) pprof labels and opens
// accounting into acct (a nil acct labels without accounting). It
// allocates nothing when acct is the (view, phase) pair's own, or when
// view is empty. The idiomatic use is
//
//	defer obs.StartRegion(acct, view, obs.PhasePropagate).End()
func StartRegion(acct *PhaseAcct, view, phase string) Region {
	pprof.SetGoroutineLabels(labelsFor(acct, view, phase))
	rg := Region{acct: acct, labeled: true}
	if acct != nil {
		rg.start = time.Now()
		rg.alloc0 = HeapAllocBytes()
	}
	return rg
}

// End restores the goroutine's labels and records the region's wall
// time and allocation delta into its PhaseAcct.
func (rg Region) End() {
	if rg.labeled {
		clearLabels()
	}
	if rg.acct == nil {
		return
	}
	var alloc int64
	if a := HeapAllocBytes(); a > rg.alloc0 {
		alloc = int64(a - rg.alloc0)
	}
	rg.acct.Add(int64(time.Since(rg.start)), alloc)
}
