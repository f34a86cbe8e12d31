package main

// This file is the benchmark's contract in code: the workload sizes and
// the metric names, units, directions and bounds. BENCHMARK.json mirrors
// it 1:1 (perf_test.go enforces that); later issues cite these names,
// so sizes and names are frozen — change them only in a PR that claims
// no gain and re-measures the baseline.

// metricDef names one reported metric.
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: allowed worsening, share of the parent's median
}

// endToEnd is what the tooling holds a later PR to, the same five on
// every workload, all lower-is-better. Issue 14 names twelve; it also
// rules that a timing metric whose two sets of runs do not agree within
// a 0.10 bound is demoted to per-layer and never gets a wider bound. On
// the shared 2-core box every wall- and CPU-time metric misses that rule
// (NOISE.md: two sets 25 minutes apart differ by 5–14 %), so the seven
// timing metrics of the day head the per-layer list below, names
// unchanged. setup_s is the one time metric the benchmark contract
// requires here; it cannot be demoted, so it carries the contract's
// widest bound instead of the issue's 0.10 (README, "Bounds").
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"alloc_kb_per_op", "KiB", "lower", 0.02},
	{"allocs_per_op", "1", "lower", 0.02},
	{"heap_live_mb", "MiB", "lower", 0.05},
	{"aux_tuples_peak", "tuples", "lower", 0.01},
}

// demoted is how many metrics at the head of perLayer are the day's
// timing metrics: computed in every run like the end-to-end ones, shown
// by the noise report, bounded by nothing.
const (
	demoted      = 7
	demotedBound = 0.10 // the bound a demoted metric would need to meet
)

// perLayer is reported by the traced run (-trace 1). Source D = timed by
// the driver around its own calls, P = layer probe on the workload's own
// tuples after the last cycle, C = engine counter (obs registry,
// LockManager.Stats). README.md holds the glossary.
var perLayer = []metricDef{
	// the day — D, demoted from end-to-end (see endToEnd).
	{name: "day_ms", unit: "ms", better: "lower"},
	{name: "write_us", unit: "us", better: "lower"},
	{name: "maint_ms_per_kwrite", unit: "ms", better: "lower"},
	{name: "downtime_ms", unit: "ms", better: "lower"},
	{name: "read_ms", unit: "ms", better: "lower"},
	{name: "fresh_read_ms", unit: "ms", better: "lower"},
	{name: "cpu_ms_per_kop", unit: "ms", better: "lower"},
	// core — D around Manager calls (C from the obs histograms on sql_day,
	// where the calls arrive through sql.Engine).
	{name: "core.execute_us", unit: "us", better: "lower"},
	{name: "core.execute_p99_us", unit: "us", better: "lower"},
	{name: "core.makesafe_share", unit: "1", better: "lower"},
	{name: "core.propagate_ms", unit: "ms", better: "lower"},
	{name: "core.propagate_calls", unit: "count", better: "lower"},
	{name: "core.index_probe_tuples_per_propagate", unit: "tuples", better: "lower"},
	{name: "core.partial_refresh_ms", unit: "ms", better: "lower"},
	{name: "core.partial_refresh_p90_ms", unit: "ms", better: "lower"},
	{name: "core.refresh_ms", unit: "ms", better: "lower"},
	{name: "core.downtime_hold_ms", unit: "ms", better: "lower"},
	{name: "core.hold_share", unit: "1", better: "lower"},
	{name: "core.query_ms", unit: "ms", better: "lower"},
	{name: "core.query_p95_ms", unit: "ms", better: "lower"},
	{name: "core.query_fresh_slice_ms", unit: "ms", better: "lower"},
	{name: "core.query_fresh_whole_ms", unit: "ms", better: "lower"},
	{name: "core.define_view_ms", unit: "ms", better: "lower"},
	{name: "core.check_invariant_ms", unit: "ms", better: "lower"},
	{name: "core.log_tuples_peak", unit: "tuples", better: "lower"},
	{name: "core.diff_tuples_peak", unit: "tuples", better: "lower"},
	// txn
	{name: "txn.apply_us_per_txn", unit: "us", better: "lower"},
	{name: "txn.normalize_us_per_txn", unit: "us", better: "lower"},
	{name: "txn.lock_write_ns", unit: "ns", better: "lower"},
	{name: "txn.lock_read_ns", unit: "ns", better: "lower"},
	{name: "txn.lock_wait_ms", unit: "ms", better: "lower"},
	// bag
	{name: "bag.add_ns_per_tuple", unit: "ns", better: "lower"},
	{name: "bag.clone_ns_per_tuple", unit: "ns", better: "lower"},
	{name: "bag.index_build_ns_per_tuple", unit: "ns", better: "lower"},
	{name: "bag.index_sync_ns_per_change", unit: "ns", better: "lower"},
	{name: "bag.join_probe_ns_per_tuple", unit: "ns", better: "lower"},
	{name: "bag.monus_union_ns_per_tuple", unit: "ns", better: "lower"},
	{name: "bag.bytes_per_tuple", unit: "B", better: "lower"},
	// schema
	{name: "schema.key_ns_per_tuple", unit: "ns", better: "lower"},
	{name: "schema.key_bytes_per_tuple", unit: "B", better: "lower"},
	{name: "schema.validate_ns_per_tuple", unit: "ns", better: "lower"},
	// algebra
	{name: "algebra.compile_ms", unit: "ms", better: "lower"},
	{name: "algebra.eval_compiled_ms", unit: "ms", better: "lower"},
	{name: "algebra.eval_interp_ms", unit: "ms", better: "lower"},
	{name: "algebra.optimize_us", unit: "us", better: "lower"},
	// delta
	{name: "delta.post_update_us", unit: "us", better: "lower"},
	{name: "delta.expr_nodes", unit: "count", better: "lower"},
	// sql — P probes on statements rendered from the workload's own rows;
	// the exec_* classes are D and exist only on sql_day (0 elsewhere).
	{name: "sql.parse_us_insert", unit: "us", better: "lower"},
	{name: "sql.parse_us_delete", unit: "us", better: "lower"},
	{name: "sql.parse_us_select", unit: "us", better: "lower"},
	{name: "sql.parse_us_maint", unit: "us", better: "lower"},
	{name: "sql.compile_select_us", unit: "us", better: "lower"},
	{name: "sql.parse_share", unit: "1", better: "lower"},
	{name: "sql.exec_insert_us", unit: "us", better: "lower"},
	{name: "sql.exec_delete_ms", unit: "ms", better: "lower"},
	{name: "sql.exec_select_point_ms", unit: "ms", better: "lower"},
	{name: "sql.exec_select_agg_ms", unit: "ms", better: "lower"},
	{name: "sql.exec_propagate_ms", unit: "ms", better: "lower"},
	{name: "sql.exec_partial_refresh_ms", unit: "ms", better: "lower"},
	{name: "sql.exec_refresh_ms", unit: "ms", better: "lower"},
	// storage — D on sql_day (day-end SaveTo/LoadEngine), P elsewhere.
	{name: "storage.save_ms", unit: "ms", better: "lower"},
	{name: "storage.load_ms", unit: "ms", better: "lower"},
	{name: "storage.snapshot_kib", unit: "KiB", better: "lower"},
	{name: "storage.save_ns_per_tuple", unit: "ns", better: "lower"},
	{name: "storage.load_ns_per_tuple", unit: "ns", better: "lower"},
	// sharedlog — the reference for the per-view-vs-shared layout decision.
	{name: "sharedlog.append_ns_per_tuple", unit: "ns", better: "lower"},
	{name: "sharedlog.merge_ms", unit: "ms", better: "lower"},
	// obs
	{name: "obs.snapshot_us", unit: "us", better: "lower"},
	{name: "obs.families", unit: "count", better: "lower"},
	// harness — bound how far the other numbers can be trusted.
	{name: "bench.gen_ms_per_cycle", unit: "ms", better: "lower"},
	{name: "bench.timer_ns", unit: "ns", better: "lower"},
	{name: "bench.untimed_share", unit: "1", better: "lower"},
	{name: "bench.trace_overhead_pct", unit: "%", better: "lower"},
	{name: "bench.cycle_iqr_pct", unit: "%", better: "lower"},
}

// spec sizes one workload. Every size is fixed work: a run executes
// exactly cycles identical-shaped days, whatever the clock says.
type spec struct {
	name string
	why  string

	customers int // 20 % of them score "High" (the lowest ids)
	sales     int // rows in sales at set-up and at every cycle boundary
	basket    int // rows that share a customer and churn together (3 on sql_day: one INSERT/DELETE statement each)
	views     int // Combined views; >1 splits the item domain into ranges
	sql       bool

	cycles int // measured cycles at -seconds = defaultSeconds
	ticks  int // ticks per cycle
	txns   int // write transactions per tick
	rows   int // rows deleted and inserted per transaction

	day      func(g *gen, d int) // emits one cycle's op list (gen.go)
	downtime class               // the call whose wall time is downtime_ms
}

const (
	items          = 500  // item-number domain
	zipfS          = 1.2  // customer-choice skew of the set-up shape
	highFraction   = 0.2  // share of customers with score "High"
	defaultSeconds = 20   // -seconds at which a run has spec.cycles cycles
	minCycles      = 20   // sample floor: never fewer measured cycles
	warmupCycles   = 2    // untimed cycles before the first measured one
	setupBuilds    = 6    // 1 cold + 5 warm set-ups; setup_s is the warm median
	flipCustomers  = 24   // retail_policy2: customers whose score flips, round-robin
	flipEvery      = 4    // ... one on every 4th tick of the first half of the day
	flipUndoTicks  = 12   // ... and flips back this many ticks later
	sliceCustomers = 8    // distinct customers the one-customer reads cycle over
	sqlLoadRows    = 100  // rows per multi-row INSERT during sql_day set-up
	probeTuples    = 4096 // tuples a layer probe works on
)

var specs = []spec{
	{
		name:      "retail_policy2",
		why:       "Example 5.4 day, Policy 2 via core.Manager: compiled propagate and diff apply dominate, sql/storage idle. 64 txns x 24 ticks x 20 days (issue: 200 x 24 x 60): Propagate costs ~20x more after a flip",
		customers: 5000, sales: 100000, basket: 1, views: 1,
		cycles: 20, ticks: 24, txns: 64, rows: 3,
		day: (*gen).retailDay, downtime: clsPartial,
	},
	{
		name:      "multiview_writes",
		why:       "16 Combined views, per-view logs: makesafe appends, bag.Add, key encoding dominate, reads are small. 300 txns x 8 ticks x 30 days (issue: 400 x 12 x 100): 6 set-ups + verifying 16 views are half a run",
		customers: 5000, sales: 100000, basket: 1, views: 16,
		cycles: 30, ticks: 8, txns: 300, rows: 2,
		day: (*gen).multiviewDay, downtime: clsPartial,
	},
	{
		name:      "fresh_reads",
		why:       "QueryFresh over a log backlog: algebra.Optimize + the interpreter dominate, writers idle. 2 rounds of 600 txns + 2 slice reads (+1 whole), 20 cycles (issue: 8+2, 40): a slice read is ~3x Refresh+Query",
		customers: 5000, sales: 100000, basket: 1, views: 1,
		cycles: 20, ticks: 2, txns: 600, rows: 3,
		day: (*gen).freshCycle, downtime: clsRefresh,
	},
	{
		name:      "sql_day",
		why:       "The day as SQL text via sql.Engine.Exec, day-end SaveTo+LoadEngine: only here sql and storage work. 20 days (issue: 24); REFRESH+point SELECT on odd ticks. SQL PROPAGATE costs ~50x Manager.Propagate",
		customers: 2000, sales: 30000, basket: 3, views: 1, sql: true,
		cycles: 20, ticks: 4, txns: 20, rows: 3,
		day: (*gen).sqlDay, downtime: clsSQLPartial,
	},
}

func findSpec(name string) *spec {
	for i := range specs {
		if specs[i].name == name {
			return &specs[i]
		}
	}
	return nil
}

// scaled shrinks a spec for the smoke test and the self-check: table
// sizes and transactions per tick divided by div, the schedule's shape
// (ticks, op classes) unchanged.
func (s spec) scaled(div, cycles int) spec {
	if div > 1 {
		s.customers = max(s.customers/div, 200) // the flip and slice customers must exist and score High
		s.sales = max(s.sales/div/s.basket, 400) * s.basket
		s.txns = max(s.txns/div, 2)
	}
	s.cycles = cycles
	return s
}

// cyclesFor maps -seconds to a fixed cycle count: work is a function of
// the flag, never of the clock.
func (s spec) cyclesFor(seconds int) int {
	return max(s.cycles*seconds/defaultSeconds, minCycles)
}
