package trace

// Registered span names. Every span the engine emits uses one of
// these constants; docs/observability.md documents each, and the root
// tracedocs test enforces a 1:1 mapping between this table, the names
// observed at runtime in an E2E retail run, and the docs.
const (
	// SpanSQLStmt is the root span for one SQL statement; maintenance
	// entry points run by the statement nest under it.
	SpanSQLStmt = "sql.stmt"
	// SpanExecute covers core.Manager.Execute: one update transaction
	// including makesafe work and assignment install.
	SpanExecute = "core.execute"
	// SpanMakesafe covers computing one view's safe assignments (the
	// makesafe transactions of Figure 3).
	SpanMakesafe = "core.makesafe"
	// SpanApply covers installing a transaction's assignments and
	// base-table updates.
	SpanApply = "core.apply"
	// SpanRefresh covers core.Manager.Refresh for one view.
	SpanRefresh = "core.refresh"
	// SpanRefreshApply is the MV-exclusive section of a refresh,
	// partial refresh, or recompute: the span's duration is exactly
	// the value recorded into view_downtime_ns.
	SpanRefreshApply = "core.refresh.apply"
	// SpanPropagate covers core.Manager.Propagate (fold log into
	// diff tables; no MV lock).
	SpanPropagate = "core.propagate"
	// SpanEvalCompiled covers one compiled delta-program evaluation
	// (child of the maintenance span that ran it; emitted post-hoc with
	// an explicit duration).
	SpanEvalCompiled = "core.eval.compiled"
	// SpanPartialRefresh covers core.Manager.PartialRefresh.
	SpanPartialRefresh = "core.partial_refresh"
	// SpanRecompute covers core.Manager.RefreshRecompute.
	SpanRecompute = "core.recompute"
	// SpanQuery covers core.Manager.Query (reader path; its own root
	// trace, since readers run concurrently with the writer).
	SpanQuery = "core.query"
	// SpanLockWait covers blocking in lock acquisition.
	SpanLockWait = "txn.lock.wait"
	// SpanLockHold covers the critical section run under the locks.
	SpanLockHold = "txn.lock.hold"
	// SpanSnapshotSave covers storage.Database.Save.
	SpanSnapshotSave = "storage.snapshot.save"
	// SpanSnapshotLoad covers sql.LoadEngine replaying a snapshot.
	SpanSnapshotLoad = "storage.snapshot.load"
)

// Names returns every registered span name, sorted.
func Names() []string {
	return []string{
		SpanApply,
		SpanEvalCompiled,
		SpanExecute,
		SpanMakesafe,
		SpanPartialRefresh,
		SpanPropagate,
		SpanQuery,
		SpanRecompute,
		SpanRefresh,
		SpanRefreshApply,
		SpanSQLStmt,
		SpanSnapshotLoad,
		SpanSnapshotSave,
		SpanLockHold,
		SpanLockWait,
	}
}
