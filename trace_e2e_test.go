package dvm_test

import (
	"testing"

	"dvm"
	"dvm/internal/core"
	"dvm/internal/obs/trace"
)

// TestTracePolicy1RetailDay is the tracing subsystem's end-to-end
// acceptance: a Policy 1 retail day (hourly Execute + Propagate, one
// closing Refresh) run with sampling on must yield
//
//  1. exactly one trace tree per maintenance transaction, with the
//     makesafe/propagate/refresh spans parented the way
//     docs/observability.md's taxonomy says;
//  2. per-trace exclusive time that reconciles *exactly* with the
//     view_downtime_ns histogram — both take the same clock reading
//     (internal/core/step.go, exclusive), so the sums are equal, not
//     merely close;
//  3. a Chrome trace-event export that round-trips through the
//     in-repo parser.
func TestTracePolicy1RetailDay(t *testing.T) {
	const (
		hoursPerDay  = 24
		salesPerHour = 40
	)
	mgr, w := setupRetailDay(t)
	mgr.Tracer().SampleAll()

	for hour := 0; hour < hoursPerDay; hour++ {
		if err := mgr.Execute(w.SalesBatch(salesPerHour)); err != nil {
			t.Fatal(err)
		}
		if err := mgr.Propagate("hv"); err != nil {
			t.Fatal(err)
		}
	}
	if err := mgr.Refresh("hv"); err != nil {
		t.Fatal(err)
	}

	// (1) One trace per maintenance transaction.
	const wantTraces = 2*hoursPerDay + 1
	traces := mgr.Tracer().Last(wantTraces + 1)
	if len(traces) != wantTraces {
		t.Fatalf("captured %d traces, want %d (one per Execute/Propagate/Refresh)", len(traces), wantTraces)
	}
	byRoot := map[string]int{}
	for _, tr := range traces {
		byRoot[tr.Root.Name]++
	}
	if byRoot[trace.SpanExecute] != hoursPerDay ||
		byRoot[trace.SpanPropagate] != hoursPerDay ||
		byRoot[trace.SpanRefresh] != 1 {
		t.Fatalf("root span census %v, want %d %s, %d %s, 1 %s",
			byRoot, hoursPerDay, trace.SpanExecute, hoursPerDay, trace.SpanPropagate, trace.SpanRefresh)
	}

	// Parenting: every execute tree holds the view's makesafe span and
	// the apply span as direct children.
	for _, tr := range traces {
		if tr.Root.Name != trace.SpanExecute {
			continue
		}
		if childNamed(tr.Root, trace.SpanMakesafe) == nil {
			t.Fatalf("execute trace #%d has no %s child", tr.ID, trace.SpanMakesafe)
		}
		if childNamed(tr.Root, trace.SpanApply) == nil {
			t.Fatalf("execute trace #%d has no %s child", tr.ID, trace.SpanApply)
		}
	}
	// Parenting: the refresh tree nests lock wait/hold under the root
	// and the exclusive apply section under the hold.
	refresh := traceWithRoot(t, traces, trace.SpanRefresh)
	if childNamed(refresh.Root, trace.SpanLockWait) == nil {
		t.Fatalf("refresh trace has no %s child", trace.SpanLockWait)
	}
	hold := childNamed(refresh.Root, trace.SpanLockHold)
	if hold == nil {
		t.Fatalf("refresh trace has no %s child", trace.SpanLockHold)
	}
	apply := childNamed(hold, trace.SpanRefreshApply)
	if apply == nil {
		t.Fatalf("%s has no %s child — the downtime section is not nested under the lock hold", trace.SpanLockHold, trace.SpanRefreshApply)
	}
	if !apply.Exclusive {
		t.Fatalf("%s span is not marked exclusive", trace.SpanRefreshApply)
	}

	// (2) The traces' exclusive sections ARE the downtime histogram.
	var exclusive int64
	for _, tr := range traces {
		exclusive += tr.ExclusiveNs
	}
	m, ok := mgr.Obs().Snapshot().Get("view_downtime_ns", "hv")
	if !ok {
		t.Fatal("view_downtime_ns{hv} not recorded")
	}
	if exclusive != m.Sum {
		t.Fatalf("sum of exclusive spans %dns != view_downtime_ns sum %dns — trace and histogram disagree about downtime", exclusive, m.Sum)
	}
	if exclusive == 0 {
		t.Fatal("refresh recorded zero exclusive time; the downtime span never fired")
	}

	// (3) Chrome export round-trips through the in-repo parser.
	data, err := trace.ChromeJSON(traces)
	if err != nil {
		t.Fatal(err)
	}
	events, err := trace.ParseChrome(data)
	if err != nil {
		t.Fatalf("exported Chrome trace fails validation: %v", err)
	}
	lanes := map[int64]bool{}
	for _, ev := range events {
		lanes[ev.Tid] = true
	}
	if len(lanes) != wantTraces {
		t.Fatalf("Chrome export has %d tid lanes, want %d (one per transaction)", len(lanes), wantTraces)
	}
}

// TestTraceImmediateViewDowntime is TestTracePolicy1RetailDay's
// reconciliation for an Immediate view, whose downtime is the MV write
// lock every transaction takes to install the view's pair: each traced
// transaction holds one exclusive core.refresh.apply span under its
// lock-hold span, and the spans sum to view_downtime_ns{iv}, exactly.
func TestTraceImmediateViewDowntime(t *testing.T) {
	const hoursPerDay, salesPerHour = 24, 40
	mgr, w := setupRetailDay(t)
	def, err := w.ViewDef()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.DefineView("iv", def, core.Immediate); err != nil {
		t.Fatal(err)
	}
	mgr.Tracer().SampleAll()
	for hour := 0; hour < hoursPerDay; hour++ {
		if err := mgr.Execute(w.SalesBatch(salesPerHour)); err != nil {
			t.Fatal(err)
		}
	}

	traces := mgr.Tracer().Last(hoursPerDay + 1)
	if len(traces) != hoursPerDay {
		t.Fatalf("captured %d traces, want %d (one per Execute)", len(traces), hoursPerDay)
	}
	var exclusive int64
	for _, tr := range traces {
		hold := childNamed(tr.Root, trace.SpanLockHold)
		if hold == nil {
			t.Fatalf("execute trace #%d has no %s child", tr.ID, trace.SpanLockHold)
		}
		apply := childNamed(hold, trace.SpanRefreshApply)
		if apply == nil || !apply.Exclusive {
			t.Fatalf("execute trace #%d holds no exclusive %s under its lock hold", tr.ID, trace.SpanRefreshApply)
		}
		exclusive += tr.ExclusiveNs
	}
	m, ok := mgr.Obs().Snapshot().Get("view_downtime_ns", "iv")
	if !ok || m.Count != hoursPerDay {
		t.Fatalf("view_downtime_ns{iv} recorded %d sections, want %d", m.Count, hoursPerDay)
	}
	if exclusive != m.Sum {
		t.Fatalf("sum of exclusive spans %dns != view_downtime_ns{iv} sum %dns — trace and histogram disagree about downtime", exclusive, m.Sum)
	}
}

// entryFamilies maps each entry-point span to the latency family its
// step records.
var entryFamilies = map[string]string{
	trace.SpanSQLStmt:        "sql_stmt_ns",
	trace.SpanExecute:        "txn_exec_ns",
	trace.SpanPropagate:      "propagate_ns",
	trace.SpanRefresh:        "refresh_ns",
	trace.SpanPartialRefresh: "partial_refresh_ns",
	trace.SpanRecompute:      "recompute_ns",
}

// TestOneReadingPerStep: a step reads the clock once and writes that
// reading into both its latency histogram and its entry span, so for
// every entry point the spans' durations sum to the histogram's sum,
// exactly — over a traced Policy-1 day through the Go API (with one
// partial refresh and one recompute), where the entry spans are roots,
// and over a SQL script, where the sql.stmt spans are.
func TestOneReadingPerStep(t *testing.T) {
	reconcile := func(name string, mgr *core.Manager, roots ...string) {
		t.Helper()
		durs := map[string]int64{}
		for _, tr := range mgr.Tracer().Last(mgr.Tracer().Len()) {
			durs[tr.Root.Name] += int64(tr.Root.Dur)
		}
		snap := mgr.Obs().Snapshot()
		for _, root := range roots {
			var sum int64
			for _, m := range snap.Family(entryFamilies[root]) {
				sum += m.Sum
			}
			t.Logf("%s: Σ %s %dns, Σ %s %dns", name, root, durs[root], entryFamilies[root], sum)
			if durs[root] == 0 || durs[root] != sum {
				t.Errorf("%s: %s root spans last %dns in all, %s sums %dns — want equal and non-zero",
					name, root, durs[root], entryFamilies[root], sum)
			}
		}
	}

	mgr, w := setupRetailDay(t)
	mgr.Tracer().SampleAll()
	for hour := 0; hour < 24; hour++ {
		if err := mgr.Execute(w.SalesBatch(40)); err != nil {
			t.Fatal(err)
		}
		if err := mgr.Propagate("hv"); err != nil {
			t.Fatal(err)
		}
	}
	for _, f := range []func(string) error{mgr.Refresh, mgr.PartialRefresh, mgr.RefreshRecompute} {
		if err := f("hv"); err != nil {
			t.Fatal(err)
		}
	}
	reconcile("Policy-1 day", mgr, trace.SpanExecute, trace.SpanPropagate,
		trace.SpanRefresh, trace.SpanPartialRefresh, trace.SpanRecompute)

	eng := dvm.NewEngine(dvm.WithTraceSpec("all"))
	if err := eng.Err(); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.ExecScript(`
CREATE TABLE sales (custId INT, itemNo INT, quantity INT, salesPrice FLOAT);
CREATE MATERIALIZED VIEW hv REFRESH DEFERRED COMBINED AS
SELECT s.custId, s.itemNo FROM sales s WHERE s.quantity != 0;
INSERT INTO sales VALUES (1, 10, 2, 9.99);
PROPAGATE hv;
INSERT INTO sales VALUES (3, 12, 1, 7.50);
REFRESH hv;
SELECT * FROM hv;
`); err != nil {
		t.Fatal(err)
	}
	reconcile("SQL script", eng.Manager(), trace.SpanSQLStmt)
	if n := len(eng.Manager().Obs().Snapshot().Family("sql_stmt_ns")); n < 5 {
		t.Errorf("sql_stmt_ns has %d kinds, want create_table, create_view, insert, maint and select", n)
	}
}

// childNamed returns the first direct child of s with the given span
// name, or nil.
func childNamed(s *trace.Span, name string) *trace.Span {
	for _, c := range s.Children {
		if c.Name == name {
			return c
		}
	}
	return nil
}

// traceWithRoot returns the first trace whose root span has the given
// name, failing the test if none exists.
func traceWithRoot(t *testing.T, traces []*trace.Trace, name string) *trace.Trace {
	t.Helper()
	for _, tr := range traces {
		if tr.Root.Name == name {
			return tr
		}
	}
	t.Fatalf("no trace with root %s", name)
	return nil
}
