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
// phase half of phase_alloc_bytes' "view/phase" label.
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

// Phases returns every maintenance phase name, in Figure-3 order. A
// view's accounting pairs are created eagerly at view definition for
// each phase but makesafe (a transaction's region spans several
// views), so the family exists (at zero) before any maintenance runs.
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

// PhaseAcct is one (view, phase) pair's allocation attribution: heap
// allocation deltas of its regions go into phase_alloc_bytes, labeled
// "view/phase". It also holds the pair's pprof label set, so a region
// on it labels the goroutine without allocating. A nil PhaseAcct is
// inert.
type PhaseAcct struct {
	// Alloc is the phase_alloc_bytes counter (heap bytes allocated).
	Alloc *Counter

	view, phase string
	labels      context.Context
}

// NewPhaseAcct returns the accounting pair for (view, phase), creating
// its counter in r under the label "view/phase", and builds the pair's
// pprof label set.
func NewPhaseAcct(r *Registry, view, phase string) *PhaseAcct {
	return &PhaseAcct{
		Alloc:  r.Counter("phase_alloc_bytes", view+"/"+phase),
		view:   view,
		phase:  phase,
		labels: labelSet(view, phase),
	}
}

// Region is one open attribution region: pprof labels installed on the
// goroutine plus the baseline wall-clock reading and, with a PhaseAcct,
// the allocation reading. End restores the labels, folds the
// allocation delta into the PhaseAcct and returns the region's one
// duration.
type Region struct {
	acct   *PhaseAcct
	start  time.Time
	alloc0 uint64
}

// StartRegion installs the (view, phase) pprof labels and opens the
// region's readings (a nil acct labels and times without accounting
// allocation). It allocates nothing when acct is the (view, phase)
// pair's own, or when view is empty.
func StartRegion(acct *PhaseAcct, view, phase string) Region {
	pprof.SetGoroutineLabels(labelsFor(acct, view, phase))
	rg := Region{acct: acct, start: time.Now()}
	if acct != nil {
		rg.alloc0 = HeapAllocBytes()
	}
	return rg
}

// End restores the goroutine's labels, records the allocation delta
// into the region's PhaseAcct and returns the wall time since
// StartRegion: the one clock reading the region's caller writes into
// every place that wants its duration.
func (rg Region) End() time.Duration {
	d := time.Since(rg.start)
	clearLabels()
	if rg.acct != nil {
		if a := HeapAllocBytes(); a > rg.alloc0 {
			rg.acct.Alloc.Add(int64(a - rg.alloc0))
		}
	}
	return d
}
