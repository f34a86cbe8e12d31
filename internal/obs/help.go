package obs

import "sort"

// familyHelp is the one-line help string per metric family, emitted as
// the `# HELP` line of the Prometheus exposition (prom.go). The root
// obsdocs test enforces that this map and the families table in
// docs/observability.md cover exactly the same set, both ways — the
// 1:1 doc contract is what powers `# HELP`.
var familyHelp = map[string]string{
	"txn_exec_ns":         "Latency of one user transaction through Execute, including makesafe bookkeeping (ns).",
	"makesafe_ns":         "Per-view share of Execute: the Figure-3 makesafe bookkeeping added to each transaction (ns).",
	"log_append_tuples":   "Tuples appended to the view's base-table logs by makesafe (the relevant ones, inside the filter derived from the view's definition).",
	"log_size_tuples":     "Current unconsumed log volume for the view - the staleness backlog a refresh must process.",
	"diff_size_tuples":    "Current size of the view's differential tables (del MV + add MV).",
	"propagate_ns":        "Duration of propagate_C: folding logs into the differential tables, without the MV lock (ns).",
	"propagate_tuples":    "Log tuples consumed by each propagate_C.",
	"refresh_ns":          "End-to-end duration of Refresh (refresh_BL/refresh_DT/refresh_C) (ns).",
	"refresh_tuples":      "Tuples consumed by refresh: log tuples for BL/C, differential tuples for DT/partial.",
	"partial_refresh_ns":  "Duration of partial_refresh_C, Policy 2's minimal-downtime refresh (ns).",
	"recompute_ns":        "Duration of the naive baseline: recompute the view from scratch and swap (ns).",
	"view_downtime_ns":    "Time the view's exclusive MV lock is held per maintenance operation - the paper's view downtime (ns).",
	"lock_write_hold_ns":  "Exclusive-lock hold time per table - the writer-side view of downtime (ns).",
	"lock_read_wait_ns":   "Time readers waited to acquire a shared lock - the reader-observed cost of downtime (ns).",
	"snapshot_save_bytes": "Bytes written by database snapshots.",
	"snapshot_load_bytes": "Bytes read restoring an engine snapshot.",
	"sql_stmt_ns":         "SQL statement latency by statement class (ns).",
	"delta_compile_ns":    "One-time cost of compiling the view's maintenance expressions into delta programs (ns).",
	"compiled_eval_ns":    "Wall time of one compiled delta-program evaluation (ns).",
	"index_probe_tuples":  "Candidate pairs examined by indexed hash joins in compiled evaluations.",
	"index_build_tuples":  "Tuples put into join indexes by compiled evaluations: a first build, or a journal sync.",
	"phase_alloc_bytes":   "Heap bytes allocated during the (view, phase) maintenance region.",
	"go_goroutines":       "Current number of live goroutines (runtime/metrics).",
	"go_heap_live_bytes":  "Bytes of live heap objects after the last GC mark phase (runtime/metrics).",
	"go_gc_cycles":        "Completed GC cycles since process start (runtime/metrics).",
	"go_gc_pause_ns":      "Distribution of GC stop-the-world pause latencies (runtime/metrics, ns).",
	"go_sched_latency_ns": "Distribution of goroutine scheduling latencies: time runnable before running (runtime/metrics, ns).",
}

// HelpFor returns the one-line exposition help for a family ("" when
// the family is unknown — the exposition writer falls back to a
// generic line so output stays valid even for undocumented families).
func HelpFor(family string) string { return familyHelp[family] }

// HelpFamilies returns every family with a registered help string,
// sorted. The obsdocs contract test compares this against the
// documented table.
func HelpFamilies() []string {
	out := make([]string, 0, len(familyHelp))
	for f := range familyHelp {
		out = append(out, f)
	}
	sort.Strings(out)
	return out
}
