package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"dvm/internal/obs"
)

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run's outcome; its exported part is the JSON line the
// command prints last.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`

	opHash uint64      // hash of every op generated (same seed ⇒ same hash)
	budget []budgetRow // traced runs
	err    error       // why Correct is false
}

// config is one run's input.
type config struct {
	sp     spec
	seed   int64
	cycles int
	builds int // set-ups: one cold, the rest warm; setup_s is the warm median
	trace  bool
	outDir string    // traced runs write <workload>.trace.json and .budget.txt here; "" = don't
	log    io.Writer // progress and the budget table
}

var (
	writeClasses = []class{clsExecute, clsSQLInsert, clsSQLDelete}
	maintClasses = []class{clsPropagate, clsPartial, clsRefresh, clsSQLPropagate, clsSQLPartial, clsSQLRefresh}
)

// run executes one workload: set-up ×6, warm-up, the measured cycles,
// verification, and on a traced run the layer probes.
func run(cfg config) *result {
	sp := cfg.sp
	g := newGen(sp, cfg.seed)
	r := newRecorder()
	d := newDriver(sp, g, r)
	res := &result{Metrics: map[string]value{}}
	fail := func(err error) *result {
		res.err = err
		res.Correct = false
		res.Attempted = max(r.attempted, 1)
		res.Failed = max(r.failed, 1)
		return res
	}

	// Set-up: one cold and five warm builds; the last one is used.
	var builds []float64
	for i := 0; i < cfg.builds; i++ {
		d.db, d.m, d.eng = nil, nil, nil
		runtime.GC()
		t0 := time.Now()
		if err := d.build(); err != nil {
			return fail(fmt.Errorf("set-up: %w", err))
		}
		builds = append(builds, time.Since(t0).Seconds())
	}
	fmt.Fprintf(cfg.log, "%s: set-up cold %.3fs, warm median %.3fs\n", sp.name, builds[0], median(builds[1:]))

	// Warm-up and measured cycles are one loop; measurement (counters,
	// memory, CPU) starts when the warm-up is over.
	var (
		s0     obs.Snapshot
		m0, m1 runtime.MemStats
		wall0  time.Time
		genNs  int64
	)
	for i := -warmupCycles; i < cfg.cycles; i++ {
		measured := i >= 0
		if i == 0 {
			r.reserve(g.ops, cfg.cycles)
			s0 = d.m.Obs().Snapshot()
			runtime.GC()
			runtime.ReadMemStats(&m0)
			wall0 = time.Now()
		}
		t0 := time.Now()
		ops := g.cycle(i + warmupCycles)
		if measured {
			genNs += int64(time.Since(t0))
		}
		// A traced run records spans on cycles 1, 2 of every four (U T T U):
		// both halves see the same heap, the same neighbours, and the same
		// share of odd and even cycles (GC cycles per day can alternate).
		r.beginCycle(measured, cfg.trace && (i%4 == 1 || i%4 == 2))
		d.run(ops)
		r.endCycle()
		if err := d.stationary(); err != nil {
			return fail(fmt.Errorf("cycle %d: %w", i, err))
		}
	}
	wall := time.Since(wall0)
	runtime.GC()
	runtime.ReadMemStats(&m1)
	s1 := d.m.Obs().Snapshot()

	checkNs, err := d.verify()
	if err != nil {
		return fail(fmt.Errorf("verification: %w", err))
	}
	res.Correct = r.failed == 0
	if !res.Correct {
		res.err = fmt.Errorf("%d of %d ops failed", r.failed, r.attempted)
	}
	res.Attempted, res.Failed, res.opHash = r.attempted, r.failed, g.h.Sum64()

	// The twelve metrics of the day. Per-transaction and maintenance times
	// are cycle medians: per cycle Σ wall of the op class / its calls (or /
	// kilo-writes), then the median over cycles. The millisecond-sized
	// calls (refresh, read, fresh read) report the median over all their
	// calls in the run. An untraced run reports the end-to-end ones; the
	// time metrics that were demoted (spec.go) are reported per-layer.
	ops := float64(r.attempted)
	fresh := clsFreshSlice
	if sp.sql {
		fresh = clsFreshPair
	}
	writes := func(i int) float64 { return float64(r.count(i, writeClasses...)) }
	day := map[string]float64{
		"setup_s":  median(builds[1:]),
		"day_ms":   median(r.cycNs) / 1e6,
		"write_us": median(r.perCycle(writeClasses, writes)) / 1e3,
		"maint_ms_per_kwrite": median(r.perCycle(maintClasses, func(i int) float64 {
			return writes(i) / 1000
		})) / 1e6,
		"downtime_ms":     median(r.calls[sp.downtime]) / 1e6,
		"read_ms":         median(r.allCalls(clsQuery, clsSQLPoint)) / 1e6,
		"fresh_read_ms":   median(r.calls[fresh]) / 1e6,
		"cpu_ms_per_kop":  float64(sum(r.cycCPUNs)) / 1e6 / ops * 1000,
		"alloc_kb_per_op": float64(m1.TotalAlloc-m0.TotalAlloc) / 1024 / ops,
		"allocs_per_op":   float64(m1.Mallocs-m0.Mallocs) / ops,
		"heap_live_mb":    float64(m1.HeapAlloc) / (1 << 20),
		"aux_tuples_peak": float64(r.auxPeak),
	}
	cycleIQR := 100 * (quantile(r.cycNs, 0.75) - quantile(r.cycNs, 0.25)) / median(r.cycNs)
	fmt.Fprintf(cfg.log, "%s: %d cycles in %.1fs (cycle IQR %.1f %%), %d ops, %d failed, verification passed\n",
		sp.name, cfg.cycles, wall.Seconds(), cycleIQR, r.attempted, r.failed)

	if !cfg.trace {
		for _, md := range endToEnd {
			res.Metrics[md.name] = value{day[md.name], md.unit}
		}
		for _, md := range perLayer[:demoted] {
			fmt.Fprintf(cfg.log, "  %-40s %16.6g %s (per-layer: in the result line of a traced run)\n", md.name, day[md.name], md.unit)
		}
		return res
	}

	// Traced run: the day's metrics, D and C metrics from this run's calls
	// and counters, then the P probes on the workload's own data.
	pl := day
	d.layerMetrics(pl, s0, s1, checkNs)
	root := r.open("probe", time.Now(), -1)
	probeParse, err := d.probes(pl, root)
	if err != nil {
		return fail(fmt.Errorf("layer probes: %w", err))
	}
	r.close(root, time.Now())
	pl["sql.parse_share"] = d.parseShare(probeParse)

	var tr, un []int64
	for i, ns := range r.cycNs {
		if r.traced[i] {
			tr = append(tr, ns)
		} else {
			un = append(un, ns)
		}
	}
	rows, untimed := r.budget()
	res.budget = rows
	pl["bench.gen_ms_per_cycle"] = float64(genNs) / 1e6 / float64(cfg.cycles)
	pl["bench.timer_ns"] = timerNs()
	pl["bench.untimed_share"] = untimed
	pl["bench.trace_overhead_pct"] = 100 * (median(tr) - median(un)) / median(un)
	pl["bench.cycle_iqr_pct"] = cycleIQR
	for _, md := range perLayer {
		res.Metrics[md.name] = value{pl[md.name], md.unit}
	}

	writeBudget(cfg.log, sp.name, median(tr)/1e6, rows)
	if cfg.outDir != "" {
		if err := d.writeOut(cfg, rows, median(tr)/1e6); err != nil {
			return fail(err)
		}
	}
	return res
}

// writeOut stores a traced run's budget table and trace under cfg.outDir.
func (d *driver) writeOut(cfg config, rows []budgetRow, dayMs float64) error {
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return err
	}
	var buf bytes.Buffer
	writeBudget(&buf, d.sp.name, dayMs, rows)
	if err := os.WriteFile(filepath.Join(cfg.outDir, d.sp.name+".budget.txt"), buf.Bytes(), 0o644); err != nil {
		return err
	}
	buf.Reset()
	if err := d.r.writeTrace(&buf, d.sp.name, cfg.seed, rows); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(cfg.outDir, d.sp.name+".trace.json"), buf.Bytes(), 0o644)
}

// timerNs is the cost of one time.Now/time.Since pair — what the
// recorder adds to every timed call.
func timerNs() float64 {
	const n = 200000
	var sink time.Duration
	t0 := time.Now()
	for i := 0; i < n; i++ {
		sink += time.Since(time.Now())
	}
	_ = sink
	return float64(time.Since(t0)) / n
}

// histDelta returns Σ and count a histogram family gained between two
// snapshots, summed over its labels.
func histDelta(s0, s1 obs.Snapshot, family string) (sum, count int64) {
	for _, m := range s1.Family(family) {
		sum += m.Sum
		count += m.Count
	}
	for _, m := range s0.Family(family) {
		sum -= m.Sum
		count -= m.Count
	}
	return
}

func counterDelta(s0, s1 obs.Snapshot, family string) (n int64) {
	for _, m := range s1.Family(family) {
		n += m.Value
	}
	for _, m := range s0.Family(family) {
		n -= m.Value
	}
	return
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// layerMetrics fills the D and C per-layer metrics. On sql_day the core
// calls arrive through sql.Engine, so their time is read from the
// engine's own histograms (C) instead of the driver's clock.
func (d *driver) layerMetrics(pl map[string]float64, s0, s1 obs.Snapshot, checkNs int64) {
	r := d.r
	mean := func(family string) float64 { return ratio(histDelta(s0, s1, family)) }
	dOrC := func(c class, family string) float64 {
		if d.sp.sql {
			return mean(family)
		}
		return ratio(sum(r.calls[c]), int64(len(r.calls[c])))
	}

	pl["core.execute_us"] = dOrC(clsExecute, "txn_exec_ns") / 1e3
	pl["core.execute_p99_us"] = quantile(r.calls[clsExecute], 0.99) / 1e3
	mk, _ := histDelta(s0, s1, "makesafe_ns")
	tx, _ := histDelta(s0, s1, "txn_exec_ns")
	// makesafe_ns records each view's even share of the transaction, so Σ
	// over views / Σ txn_exec_ns is the share of Execute spent inside the
	// instrumented region of an affected transaction.
	pl["core.makesafe_share"] = ratio(mk, tx)
	pl["core.propagate_ms"] = dOrC(clsPropagate, "propagate_ns") / 1e6
	_, props := histDelta(s0, s1, "propagate_ns")
	pl["core.propagate_calls"] = float64(props)
	pl["core.index_probe_tuples_per_propagate"] = ratio(counterDelta(s0, s1, "index_probe_tuples"), props)
	pl["core.partial_refresh_ms"] = dOrC(clsPartial, "partial_refresh_ns") / 1e6
	pl["core.partial_refresh_p90_ms"] = quantile(r.calls[clsPartial], 0.90) / 1e6
	pl["core.refresh_ms"] = dOrC(clsRefresh, "refresh_ns") / 1e6
	hold, holds := histDelta(s0, s1, "view_downtime_ns")
	pl["core.downtime_hold_ms"] = ratio(hold, holds) / 1e6
	pl["core.hold_share"] = ratio(hold, sum(r.allCalls(clsPartial, clsRefresh, clsSQLPartial, clsSQLRefresh)))
	pl["core.query_ms"] = ratio(sum(r.calls[clsQuery]), int64(len(r.calls[clsQuery]))) / 1e6
	pl["core.query_p95_ms"] = quantile(r.calls[clsQuery], 0.95) / 1e6
	pl["core.query_fresh_slice_ms"] = median(r.calls[clsFreshSlice]) / 1e6
	pl["core.query_fresh_whole_ms"] = median(r.calls[clsFreshWhole]) / 1e6
	pl["core.define_view_ms"] = ratio(sum(d.defineNs), int64(len(d.defineNs))) / 1e6
	pl["core.check_invariant_ms"] = float64(checkNs) / 1e6
	pl["core.log_tuples_peak"] = float64(r.logPeak)
	pl["core.diff_tuples_peak"] = float64(r.diffPeak)

	var wait time.Duration
	for _, v := range d.m.Views() {
		wait += d.m.Locks().Stats(v.MVTable()).ReadWaitTime
	}
	pl["txn.lock_wait_ms"] = float64(wait) / 1e6 // whole run: expected 0 with one client

	for _, x := range []struct {
		name string
		c    class
		div  float64
	}{
		{"sql.exec_insert_us", clsSQLInsert, 1e3},
		{"sql.exec_delete_ms", clsSQLDelete, 1e6},
		{"sql.exec_select_point_ms", clsSQLPoint, 1e6},
		{"sql.exec_select_agg_ms", clsSQLAgg, 1e6},
		{"sql.exec_propagate_ms", clsSQLPropagate, 1e6},
		{"sql.exec_partial_refresh_ms", clsSQLPartial, 1e6},
		{"sql.exec_refresh_ms", clsSQLRefresh, 1e6},
	} {
		pl[x.name] = median(r.calls[x.c]) / x.div
	}
	if d.sp.sql {
		pl["storage.save_ms"] = median(r.calls[clsSave]) / 1e6
		pl["storage.load_ms"] = median(r.calls[clsLoad]) / 1e6
		pl["storage.snapshot_kib"] = float64(d.snap.Len()) / 1024
	}
}
