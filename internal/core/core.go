// Package core implements the paper's contribution: deferred view
// maintenance as invariant maintenance (Section 3) with the algorithms of
// Figure 3. It manages materialized views under four scenarios:
//
//	Immediate  — INV_IM:  Q ≡ MV
//	BaseLogs   — INV_BL:  PAST(L,Q) ≡ MV
//	DiffTables — INV_DT:  Q ≡ (MV ∸ ∇MV) ⊎ △MV
//	Combined   — INV_C:   PAST(L,Q) ≡ (MV ∸ ∇MV) ⊎ △MV
//
// User transactions are routed through Execute, which augments them with
// the makesafe_* bookkeeping for every registered view and applies the
// whole thing with simultaneous (T1 + T2) semantics. Refresh, Propagate,
// and PartialRefresh implement the corresponding Figure 3 transactions.
// View downtime (exclusive-lock hold during refresh) is measured through
// a txn.LockManager.
package core

import (
	"fmt"
	"time"

	"dvm/internal/algebra"
	"dvm/internal/bag"
	"dvm/internal/delta"
	"dvm/internal/obs"
	"dvm/internal/obs/runtimebridge"
	"dvm/internal/obs/trace"
	"dvm/internal/schema"
	"dvm/internal/storage"
	"dvm/internal/txn"
)

// Scenario selects a maintenance scenario (Figure 1).
type Scenario uint8

// The four scenarios of the paper.
const (
	Immediate  Scenario = iota // INV_IM
	BaseLogs                   // INV_BL
	DiffTables                 // INV_DT
	Combined                   // INV_C
)

// String names the scenario after its invariant.
func (s Scenario) String() string {
	switch s {
	case Immediate:
		return "IM"
	case BaseLogs:
		return "BL"
	case DiffTables:
		return "DT"
	case Combined:
		return "C"
	}
	return fmt.Sprintf("Scenario(%d)", uint8(s))
}

// View is a materialized view registered with a Manager.
type View struct {
	Name     string
	Def      algebra.Expr
	Scenario Scenario

	// StrongMinimal applies the Section 4.1 strong-minimality post-pass
	// to incremental queries, keeping ∇MV/△MV disjoint.
	StrongMinimal bool

	mvName string   // the MV table
	bases  []string // base tables referenced by Def

	// BaseLogs / Combined: per-base log tables (▼R, ▲R).
	logDel map[string]string
	logIns map[string]string

	// filters holds, for a logging scenario, each base table's
	// relevant-update filter derived from Def (algebra.RelevantFilters),
	// bound against the table's schema: only the changes it keeps enter
	// the view's logs. A table without one logs every change.
	filters map[string]func(schema.Tuple) bool

	// DiffTables / Combined: view differential tables (∇MV, △MV).
	dtDel string
	dtAdd string

	// The view's ONE incremental pair (see IncrementalQueries), built
	// and optimized at definition time: the pre-update (∇(T,Q), △(T,Q))
	// over the shared per-base scratch tables (∇R/△R of the current
	// transaction) for Immediate/DiffTables, the post-update
	// (▼(L,Q), ▲(L,Q)) over this view's log tables for BaseLogs/Combined.
	// What differs between scenarios is when it is evaluated and where it
	// is installed: MV (applyToMVLocked) or ∇MV/△MV (mergeDelta).
	del, add algebra.Expr

	// def is Def compiled. The definition itself is only ever evaluated
	// one-shot (DefineView, RefreshRecompute).
	def *algebra.Program
	// pair is (del, add) compiled into one two-root program, and pairSt
	// its reusable evaluation state (see compiled.go).
	pair   *algebra.Program
	pairSt *algebra.State

	// met caches this view's obs instruments (see metrics.go).
	met *viewMetrics

	Stats ViewStats
}

// MVTable returns the name of the view's materialized table.
func (v *View) MVTable() string { return v.mvName }

// IncrementalQueries exposes the view's incremental pair (EXPLAIN): for
// Immediate/DiffTables views the pre-update pair (∇(T,Q), △(T,Q)) over
// the transaction scratch tables; for BaseLogs/Combined views the
// post-update pair (▼(L,Q), ▲(L,Q)) over the view's log tables.
func (v *View) IncrementalQueries() (del, add algebra.Expr) { return v.del, v.add }

// InvariantString renders the scenario's Figure 1 invariant with the
// view's own table names.
func (v *View) InvariantString() string {
	switch v.Scenario {
	case Immediate:
		return fmt.Sprintf("Q ≡ %s", v.mvName)
	case BaseLogs:
		return fmt.Sprintf("PAST(L,Q) ≡ %s", v.mvName)
	case DiffTables:
		return fmt.Sprintf("Q ≡ (%s ∸ %s) ⊎ %s", v.mvName, v.dtDel, v.dtAdd)
	case Combined:
		return fmt.Sprintf("PAST(L,Q) ≡ (%s ∸ %s) ⊎ %s", v.mvName, v.dtDel, v.dtAdd)
	}
	return "?"
}

// BaseTables returns the base tables the view definition references.
func (v *View) BaseTables() []string { return append([]string(nil), v.bases...) }

// ViewStats accumulates per-view maintenance costs.
type ViewStats struct {
	MakeSafeTime  time.Duration // time spent in makesafe bookkeeping
	MakeSafeOps   int
	RefreshTime   time.Duration // wall time of refresh transactions
	Refreshes     int
	PropagateTime time.Duration
	Propagates    int
	PartialTime   time.Duration
	PartialCount  int
	RecomputeTime time.Duration
	Recomputes    int
	LogTuples     int // tuples appended to logs by makesafe
	DiffTuples    int // tuples folded into differential tables
	// Work the view's compiled programs did in hash joins (algebra.Stats,
	// summed): candidate pairs probed, and tuples put into indexes.
	IndexProbeTuples int64
	IndexBuildTuples int64
}

// Manager owns a database plus the registered views and performs all
// maintenance. It is not safe for concurrent writers; concurrent readers
// (Query) are safe against refreshes through per-view locks.
type Manager struct {
	db    *storage.Database
	locks *txn.LockManager
	views map[string]*View
	order []string // registration order for deterministic iteration

	scratchDel map[string]string // base table -> scratch ∇R table
	scratchIns map[string]string // base table -> scratch △R table

	// exec is Execute's per-transaction scratch (see execute.go).
	exec execScratch

	// shared, when non-nil, replaces per-view log upkeep with shared
	// per-table logs (see WithSharedLogs).
	shared *sharedState

	// obs is the manager's metrics registry; every maintenance entry
	// point records into it (see metrics.go and docs/observability.md).
	obs       *obs.Registry
	txnExecNs *obs.Histogram

	// tracer captures per-transaction span trees (see trace.go and
	// docs/observability.md "Tracing"); cur is the active statement
	// span maintenance entry points parent under. cur follows the
	// manager's single-writer discipline.
	tracer *trace.Tracer
	cur    *trace.Span

	// bridge, when started, polls runtime/metrics into obs (see
	// internal/obs/runtimebridge); Close stops it.
	bridge *runtimebridge.Bridge
}

// NewManager wraps a database.
func NewManager(db *storage.Database, opts ...ManagerOption) *Manager {
	reg := obs.NewRegistry()
	m := &Manager{
		db:         db,
		locks:      txn.NewLockManager(),
		views:      make(map[string]*View),
		scratchDel: make(map[string]string),
		scratchIns: make(map[string]string),
		exec:       execScratch{nt: txn.Txn{}, relDel: bag.New(), relIns: bag.New()},
		obs:        reg,
		txnExecNs:  reg.Histogram("txn_exec_ns", ""),
		tracer:     trace.NewTracer(0),
	}
	m.locks.SetRegistry(reg)
	db.SetMetrics(reg)
	db.SetTracer(m.tracer)
	for _, o := range opts {
		o(m)
	}
	return m
}

// DB exposes the underlying database (for queries and tests).
func (m *Manager) DB() *storage.Database { return m.db }

// Locks exposes the lock manager (for downtime statistics).
func (m *Manager) Locks() *txn.LockManager { return m.locks }

// Obs exposes the manager's metrics registry: counters, gauges, and
// histograms for every maintenance operation, documented in
// docs/observability.md. Snapshot it for reporting, or serve it over
// HTTP with obs.Handler.
func (m *Manager) Obs() *obs.Registry { return m.obs }

// StartRuntimeBridge starts (once) the runtime/metrics bridge: a
// background poller folding Go runtime health — goroutines, live heap,
// GC cycles/pauses, scheduler latency — into this manager's registry
// every interval (interval <= 0 defaults to one second). The first
// poll runs synchronously, so the go_* families carry real readings on
// return. Stop it with Close.
func (m *Manager) StartRuntimeBridge(interval time.Duration) {
	if m.bridge == nil {
		m.bridge = runtimebridge.New(m.obs)
	}
	m.bridge.Start(interval)
}

// WithRuntimeBridge starts the runtime/metrics bridge at construction;
// the caller owns stopping it via Close.
func WithRuntimeBridge(interval time.Duration) ManagerOption {
	return func(m *Manager) { m.StartRuntimeBridge(interval) }
}

// Close stops the manager's background pollers (today: the runtime
// bridge). Idempotent and safe on a manager that never started one;
// the manager remains usable for maintenance afterwards.
func (m *Manager) Close() error {
	if m.bridge == nil {
		return nil
	}
	return m.bridge.Close()
}

// View returns a registered view.
func (m *Manager) View(name string) (*View, error) {
	v, ok := m.views[name]
	if !ok {
		return nil, fmt.Errorf("core: no view %q", name)
	}
	return v, nil
}

// Views returns all registered views in registration order.
func (m *Manager) Views() []*View {
	out := make([]*View, len(m.order))
	for i, n := range m.order {
		out[i] = m.views[n]
	}
	return out
}

// Option configures a view at definition time.
type Option func(*View)

// WithStrongMinimality turns on the strong-minimality post-pass for the
// view's incremental queries (Section 4.1).
func WithStrongMinimality() Option {
	return func(v *View) { v.StrongMinimal = true }
}

// DefineView registers a materialized view, creates its MV table and the
// scenario's auxiliary tables, initializes MV to the current value of the
// definition, and precompiles the incremental queries. A BaseLogs or
// Combined view also gets the relevant-update filters its definition
// implies (bindFilters): its logs take only the changes that can affect
// it.
func (m *Manager) DefineView(name string, def algebra.Expr, sc Scenario, opts ...Option) (*View, error) {
	if _, dup := m.views[name]; dup {
		return nil, fmt.Errorf("core: view %q already defined", name)
	}
	bases := algebra.BaseNames(def)
	for _, b := range bases {
		tb, err := m.db.Table(b)
		if err != nil {
			return nil, fmt.Errorf("core: view %q: %w", name, err)
		}
		if tb.Kind() != storage.External {
			return nil, fmt.Errorf("core: view %q references internal table %q", name, b)
		}
	}

	v := &View{
		Name:     name,
		Def:      def,
		Scenario: sc,
		mvName:   "__mv_" + name,
		bases:    bases,
		logDel:   map[string]string{},
		logIns:   map[string]string{},
	}
	for _, o := range opts {
		o(v)
	}
	if sc == BaseLogs || sc == Combined {
		if err := m.bindFilters(v); err != nil {
			return nil, err
		}
	}
	var err error
	if v.def, err = algebra.Compile(def); err != nil {
		return nil, err
	}

	if _, err := m.db.Create(v.mvName, def.Schema(), storage.Internal); err != nil {
		return nil, err
	}
	cleanup := func(err error) (*View, error) {
		_ = m.db.Drop(v.mvName)
		return nil, err
	}

	// Materialize the initial contents, one-shot: defining a view only
	// reads the base tables — no index, no journal is left on them.
	init, _, err := v.def.Eval(nil, m.db)
	if err != nil {
		return cleanup(err)
	}
	mv, _ := m.db.Table(v.mvName)
	mv.Replace(init[0])

	// Shared scratch tables holding the current transaction's ∇R/△R.
	for _, b := range bases {
		if _, ok := m.scratchDel[b]; ok {
			continue
		}
		tb, _ := m.db.Table(b)
		dn, in := "__tx_del_"+b, "__tx_ins_"+b
		if _, err := m.db.Create(dn, tb.Schema(), storage.Internal); err != nil {
			return cleanup(err)
		}
		if _, err := m.db.Create(in, tb.Schema(), storage.Internal); err != nil {
			return cleanup(err)
		}
		m.scratchDel[b] = dn
		m.scratchIns[b] = in
	}

	switch sc {
	case BaseLogs, Combined:
		for _, b := range bases {
			tb, _ := m.db.Table(b)
			dn := fmt.Sprintf("__log_del_%s__%s", b, name)
			in := fmt.Sprintf("__log_ins_%s__%s", b, name)
			if _, err := m.db.Create(dn, tb.Schema(), storage.Internal); err != nil {
				return cleanup(err)
			}
			if _, err := m.db.Create(in, tb.Schema(), storage.Internal); err != nil {
				return cleanup(err)
			}
			v.logDel[b] = dn
			v.logIns[b] = in
		}
		if m.shared != nil {
			if err := m.registerSharedView(v); err != nil {
				return cleanup(err)
			}
		}
	}
	switch sc {
	case DiffTables, Combined:
		v.dtDel = "__dmv_del_" + name
		v.dtAdd = "__dmv_add_" + name
		if _, err := m.db.Create(v.dtDel, def.Schema(), storage.Internal); err != nil {
			return cleanup(err)
		}
		if _, err := m.db.Create(v.dtAdd, def.Schema(), storage.Internal); err != nil {
			return cleanup(err)
		}
	}

	// Instruments exist before compilation so delta_compile_ns can be
	// observed (families from a failed define linger at zero; harmless).
	v.met = newViewMetrics(m.obs, name)
	if err := m.compile(v); err != nil {
		return cleanup(err)
	}

	m.views[name] = v
	m.order = append(m.order, name)
	return v, nil
}

// DropView unregisters a view and drops its MV and auxiliary tables.
// Shared scratch tables stay (other views may use them).
func (m *Manager) DropView(name string) error {
	v, err := m.View(name)
	if err != nil {
		return err
	}
	_ = m.db.Drop(v.mvName)
	for _, b := range v.bases {
		if n, ok := v.logDel[b]; ok {
			_ = m.db.Drop(n)
		}
		if n, ok := v.logIns[b]; ok {
			_ = m.db.Drop(n)
		}
	}
	if v.dtDel != "" {
		_ = m.db.Drop(v.dtDel)
		_ = m.db.Drop(v.dtAdd)
	}
	m.unregisterSharedView(v)
	delete(m.views, name)
	for i, n := range m.order {
		if n == name {
			m.order = append(m.order[:i], m.order[i+1:]...)
			break
		}
	}
	return nil
}

// bindFilters derives the view's relevant-update filters from its
// definition and binds each against its table's schema. The derivation
// walks the definition once: O(|Def|), never O(rows).
func (m *Manager) bindFilters(v *View) error {
	v.filters = map[string]func(schema.Tuple) bool{}
	for table, f := range algebra.RelevantFilters(v.Def) {
		tb, err := m.db.Table(table)
		if err != nil {
			return err
		}
		keep, err := f.Bind(tb.Schema())
		if err != nil {
			return fmt.Errorf("core: view %q: filter on %q: %w", v.Name, table, err)
		}
		v.filters[table] = keep
	}
	return nil
}

// txnChangeSet builds the transaction-relative change set: each base
// table's ∇R/△R come from the shared scratch tables.
func (m *Manager) txnChangeSet(v *View) delta.ChangeSet {
	cs := delta.ChangeSet{}
	for _, b := range v.bases {
		tb, _ := m.db.Table(b)
		cs[b] = struct {
			Deleted  algebra.Expr
			Inserted algebra.Expr
		}{
			Deleted:  algebra.NewBase(m.scratchDel[b], tb.Schema()),
			Inserted: algebra.NewBase(m.scratchIns[b], tb.Schema()),
		}
	}
	return cs
}

// logChangeSet builds the log-relative change set over the view's own
// log tables.
func (m *Manager) logChangeSet(v *View) delta.ChangeSet {
	cs := delta.ChangeSet{}
	for _, b := range v.bases {
		tb, _ := m.db.Table(b)
		cs[b] = struct {
			Deleted  algebra.Expr
			Inserted algebra.Expr
		}{
			Deleted:  algebra.NewBase(v.logDel[b], tb.Schema()),
			Inserted: algebra.NewBase(v.logIns[b], tb.Schema()),
		}
	}
	return cs
}

// compile builds the view's incremental pair for its scenario and
// compiles it into the view's one pair program. Every Figure 3
// transaction that installs the pair is evalDeltaPair followed by
// applyToMVLocked or mergeDelta; the time spent compiling is recorded
// in delta_compile_ns.
func (m *Manager) compile(v *View) error {
	var d, a algebra.Expr
	var err error
	switch v.Scenario {
	case Immediate, DiffTables:
		d, a, err = delta.PreUpdate(m.txnChangeSet(v), v.Def)
	default:
		d, a, err = delta.PostUpdate(m.logChangeSet(v), v.Def)
	}
	if err != nil {
		return err
	}
	if v.StrongMinimal {
		if d, a, err = delta.StrengthenMinimality(d, a); err != nil {
			return err
		}
	}
	v.del, v.add = algebra.OptimizePair(d, a)
	start := time.Now()
	if v.pair, err = algebra.Compile(v.del, v.add); err != nil {
		return err
	}
	v.pairSt = v.pair.NewState()
	v.met.deltaCompileNs.Observe(int64(time.Since(start)))
	return nil
}
