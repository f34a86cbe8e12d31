package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"syscall"
	"time"
)

// span is one record of the benchmark's own in-memory trace: the
// driver's view of a call into a layer. Spans are recorded around calls,
// never inside the engine.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the recorder's epoch
	Dur    int64  `json:"dur_ns"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // span id; -1 = root
	Cycle  int    `json:"cycle"`  // measured cycle index; -1 = outside any cycle
}

// recorder times every call the driver makes. Each measured cycle gets a
// per-class Σ wall and count (for cycle medians) and every call keeps its
// own duration (for medians over calls). On traced cycles it additionally
// records spans.
type recorder struct {
	epoch time.Time

	calls    [nClass][]int64 // per-call ns over the measured cycles
	cycSum   [nClass][]int64 // per-cycle Σ ns
	cycCnt   [nClass][]int64
	cycNs    []int64 // per-cycle wall
	cycCPUNs []int64 // per-cycle process CPU
	traced   []bool  // per cycle: were spans recorded

	attempted, failed int
	auxPeak           int64
	logPeak, diffPeak int64

	// state of the cycle in flight
	measuring bool
	tracing   bool
	cycle     int
	cycStart  time.Time
	cycCPU    int64 // process CPU at the start of the cycle
	sum, cnt  [nClass]int64
	cycSpan   int // span ids of the open cycle and tick
	tickSpan  int

	spans []span
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), cycle: -1, cycSpan: -1, tickSpan: -1}
}

// reserve sizes the per-call lists for cycles cycles shaped like ops, so
// that timed regions never grow them.
func (r *recorder) reserve(ops []op, cycles int) {
	var n [nClass]int
	for _, o := range ops {
		if o.cls < nClass {
			n[o.cls]++
		}
		if o.fresh {
			n[clsFreshPair]++
		}
	}
	for c := range r.calls {
		r.calls[c] = make([]int64, 0, n[c]*cycles)
	}
}

func (r *recorder) open(name string, at time.Time, parent int) int {
	id := len(r.spans)
	r.spans = append(r.spans, span{Name: name, Start: int64(at.Sub(r.epoch)), ID: id, Parent: parent, Cycle: r.cycle})
	return id
}

func (r *recorder) close(id int, at time.Time) {
	r.spans[id].Dur = int64(at.Sub(r.epoch)) - r.spans[id].Start
}

// processCPU is the process's user+system CPU time in ns.
func processCPU() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// beginCycle starts a cycle. Warm-up cycles pass measured = false and
// leave no trace in the recorder.
func (r *recorder) beginCycle(measured, traced bool) {
	r.measuring, r.tracing = measured, measured && traced
	r.sum, r.cnt = [nClass]int64{}, [nClass]int64{}
	if measured {
		r.cycle = len(r.cycNs)
		r.cycCPU = processCPU()
	}
	r.cycStart = time.Now()
	if r.tracing {
		r.cycSpan = r.open("cycle", r.cycStart, -1)
		r.tickSpan = r.open("tick", r.cycStart, r.cycSpan)
	}
}

// endCycle closes the cycle.
func (r *recorder) endCycle() {
	now := time.Now()
	if !r.measuring {
		return
	}
	r.cycCPUNs = append(r.cycCPUNs, processCPU()-r.cycCPU)
	if r.tracing {
		if r.tickSpan == len(r.spans)-1 {
			// Every op list ends with a tick mark, so the tick span the
			// final endTick opened is empty: drop it.
			r.spans = r.spans[:r.tickSpan]
		} else {
			r.close(r.tickSpan, now)
		}
		r.close(r.cycSpan, now)
	}
	r.cycNs = append(r.cycNs, int64(now.Sub(r.cycStart)))
	r.traced = append(r.traced, r.tracing)
	for c := range r.sum {
		r.cycSum[c] = append(r.cycSum[c], r.sum[c])
		r.cycCnt[c] = append(r.cycCnt[c], r.cnt[c])
	}
	r.measuring, r.tracing, r.cycle = false, false, -1
}

// endTick closes the tick span and folds the sampled log/diff volumes
// into the peaks.
func (r *recorder) endTick(logTuples, diffTuples int64) {
	if r.measuring {
		r.logPeak = max(r.logPeak, logTuples)
		r.diffPeak = max(r.diffPeak, diffTuples)
		r.auxPeak = max(r.auxPeak, logTuples+diffTuples)
	}
	if r.tracing {
		now := time.Now()
		r.close(r.tickSpan, now)
		r.tickSpan = r.open("tick", now, r.cycSpan)
	}
}

// done records one call of class c that began at t0; ok is whether it
// returned no error and the expected row count.
func (r *recorder) done(c class, t0 time.Time, ok bool) {
	d := int64(time.Since(t0))
	if !r.measuring {
		return
	}
	r.attempted++
	if !ok {
		r.failed++
	}
	r.sample(c, d)
	if r.tracing {
		r.spans = append(r.spans, span{Name: spanName[c], Start: int64(t0.Sub(r.epoch)), Dur: d,
			ID: len(r.spans), Parent: r.tickSpan, Cycle: r.cycle})
	}
}

// sample adds one duration to class c's cycle sum and per-call list.
func (r *recorder) sample(c class, d int64) {
	r.sum[c] += d
	r.cnt[c]++
	r.calls[c] = append(r.calls[c], d)
}

// probe runs f as a span under the probe root and returns its wall ns.
func (r *recorder) probe(root int, name string, f func()) int64 {
	t0 := time.Now()
	id := r.open("probe."+name, t0, root)
	f()
	r.close(id, time.Now())
	return r.spans[id].Dur
}

// --- statistics ---

// quantile returns the q-quantile of xs by linear interpolation; 0 when
// xs is empty.
func quantile[T int64 | float64](xs []T, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]T(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return float64(s[len(s)-1])
	}
	return float64(s[i]) + (pos-float64(i))*float64(s[i+1]-s[i])
}

func median[T int64 | float64](xs []T) float64 { return quantile(xs, 0.5) }

func sum(xs []int64) (t int64) {
	for _, x := range xs {
		t += x
	}
	return t
}

// perCycle returns, for each measured cycle, Σ wall of the classes
// divided by per(cycle) — the cycle-median input of the timing metrics.
func (r *recorder) perCycle(classes []class, per func(cycle int) float64) []float64 {
	out := make([]float64, 0, len(r.cycNs))
	for i := range r.cycNs {
		var s int64
		for _, c := range classes {
			s += r.cycSum[c][i]
		}
		if d := per(i); d > 0 {
			out = append(out, float64(s)/d)
		}
	}
	return out
}

func (r *recorder) count(i int, classes ...class) (n int64) {
	for _, c := range classes {
		n += r.cycCnt[c][i]
	}
	return n
}

func (r *recorder) allCalls(classes ...class) []int64 {
	var out []int64
	for _, c := range classes {
		out = append(out, r.calls[c]...)
	}
	return out
}

// --- budget ---

// budgetRow is one span name's self time as a share of the traced
// cycles' wall time.
type budgetRow struct {
	Name  string  `json:"name"`
	Calls int     `json:"calls"`
	SelfM float64 `json:"self_ms"`
	Share float64 `json:"share_of_day"`
}

// budget computes each span name's self time (duration minus the part
// its children cover) over the traced cycles. The cycle and tick rows
// are the driver's own loop — bench.untimed_share.
func (r *recorder) budget() (rows []budgetRow, untimedShare float64) {
	self := make([]int64, len(r.spans))
	for i, s := range r.spans {
		self[i] += s.Dur
		if s.Parent >= 0 {
			self[s.Parent] -= s.Dur
		}
	}
	byName := map[string]*budgetRow{}
	var total int64
	for i, s := range r.spans {
		if s.Cycle < 0 {
			continue
		}
		b := byName[s.Name]
		if b == nil {
			b = &budgetRow{Name: s.Name}
			byName[s.Name] = b
		}
		b.Calls++
		b.SelfM += float64(self[i]) / 1e6
		if s.Name == "cycle" {
			total += s.Dur
		}
	}
	for _, b := range byName {
		b.Share = b.SelfM * 1e6 / float64(total)
		if b.Name == "cycle" || b.Name == "tick" {
			untimedShare += b.Share
		}
		rows = append(rows, *b)
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].SelfM != rows[j].SelfM {
			return rows[i].SelfM > rows[j].SelfM
		}
		return rows[i].Name < rows[j].Name
	})
	return rows, untimedShare
}

func writeBudget(w io.Writer, workload string, dayMs float64, rows []budgetRow) {
	fmt.Fprintf(w, "budget of day_ms on %s (traced cycles; day_ms %.3f ms)\n", workload, dayMs)
	fmt.Fprintf(w, "  %-28s %9s %12s %8s\n", "span", "calls", "self ms", "share")
	total := 0.0
	for _, b := range rows {
		fmt.Fprintf(w, "  %-28s %9d %12.3f %7.2f%%\n", b.Name, b.Calls, b.SelfM, 100*b.Share)
		total += b.Share
	}
	fmt.Fprintf(w, "  %-28s %9s %12s %7.2f%%\n", "sum", "", "", 100*total)
}

// traceFile is what -trace 1 writes to out/<workload>.trace.json.
type traceFile struct {
	Workload string      `json:"workload"`
	Seed     int64       `json:"seed"`
	Note     string      `json:"note"`
	Budget   []budgetRow `json:"budget"`
	Spans    []span      `json:"spans"`
}

// traceCyclesKept caps the spans written to the trace file: the first
// traced cycles in full plus every probe. The budget covers all of them.
const traceCyclesKept = 2

func (r *recorder) writeTrace(w io.Writer, workload string, seed int64, rows []budgetRow) error {
	first, kept := -1, 0
	var out []span
	for _, s := range r.spans {
		if s.Name == "cycle" {
			if first < 0 {
				first = s.Cycle
			}
			kept++
		}
		if s.Cycle < 0 || kept <= traceCyclesKept {
			out = append(out, s)
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(traceFile{
		Workload: workload, Seed: seed,
		Note:   fmt.Sprintf("spans of the first %d traced cycles (from measured cycle %d) and of every probe; budget covers all traced cycles", traceCyclesKept, first),
		Budget: rows, Spans: out,
	})
}
