// Package core implements the paper's contribution: deferred view
// maintenance as invariant maintenance (Section 3) with the algorithms of
// Figure 3. Figure 1's four scenarios are a 2×2 grid: a view keeps logs
// or not, and keeps differential tables or not. The first choice sets the
// invariant's left side, the second its right side:
//
//	                 no differential tables   differential tables
//	no logs          INV_IM:  Q ≡ MV           INV_DT:  Q ≡ (MV ∸ ∇MV) ⊎ △MV
//	logs             INV_BL:  PAST(L,Q) ≡ MV   INV_C:   PAST(L,Q) ≡ (MV ∸ ∇MV) ⊎ △MV
//
// With empty logs PAST(L,Q) is Q, and with empty differential tables the
// right side is MV, so each Figure 3 algorithm is one path over the two
// bits. DefineView reads the Scenario once and resolves the view's tables;
// nothing after it asks which scenario a view is in.
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
	"dvm/internal/delta"
	"dvm/internal/obs"
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

	bases []string // base tables referenced by Def

	// The view's own tables, resolved once by DefineView. logs maps each
	// base table R to its log pair (▼R, ▲R), and is nil when the view
	// keeps no logs; diff is its differential pair (∇MV, △MV), nil when
	// it keeps none. These are Figure 1's two bits.
	mv   *storage.Table
	logs map[string]tablePair
	diff *tablePair

	// inv names the view's invariant (IM, BL, DT or C) in spans and
	// errors.
	inv string

	// filters holds, for a view with logs, each base table's
	// relevant-update filter derived from Def (algebra.RelevantFilters),
	// bound against the table's schema: only the changes it keeps enter
	// the view's logs. A table without one logs every change.
	filters map[string]func(schema.Tuple) bool

	// params maps, for a view without logs, the names its pre-update
	// pair reads ∇R and △R under, __tx_del_R and __tx_ins_R, to R (see
	// txSource).
	params map[string]txParam

	// The view's ONE incremental pair (see IncrementalQueries), built
	// at definition time: the pre-update (∇(T,Q), △(T,Q))
	// over the current transaction's ∇R/△R for a view without logs, the
	// post-update (▼(L,Q), ▲(L,Q)) over its log tables for a view with
	// them. It is installed into ∇MV/△MV (mergeDiff) when the view has
	// them, into MV (applyToMVLocked) otherwise.
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
}

// tablePair is a (deleted, added) pair of tables: a base table's log
// (▼R, ▲R) or a view's differential tables (∇MV, △MV).
type tablePair struct{ del, add *storage.Table }

// volume is the pair's tuple volume.
func (p tablePair) volume() int { return p.del.Len() + p.add.Len() }

// MVTable returns the name of the view's materialized table.
func (v *View) MVTable() string { return v.mv.Name() }

// IncrementalQueries exposes the view's incremental pair (EXPLAIN) as
// the differentiation built it, before algebra.Compile rewrites it: for
// a view without logs the pre-update pair (∇(T,Q), △(T,Q)) over the
// transaction's ∇R/△R, named __tx_del_R/__tx_ins_R; for a view with
// logs the post-update pair (▼(L,Q), ▲(L,Q)) over its log tables.
func (v *View) IncrementalQueries() (del, add algebra.Expr) { return v.del, v.add }

// InvariantString renders the view's Figure 1 invariant with its own
// table names.
func (v *View) InvariantString() string {
	left, right := "Q", v.mv.Name()
	if v.logs != nil {
		left = "PAST(L,Q)"
	}
	if v.diff != nil {
		right = fmt.Sprintf("(%s ∸ %s) ⊎ %s", right, v.diff.del.Name(), v.diff.add.Name())
	}
	return left + " ≡ " + right
}

// BaseTables returns the base tables the view definition references.
func (v *View) BaseTables() []string { return append([]string(nil), v.bases...) }

// Manager owns a database plus the registered views and performs all
// maintenance. It has one writer: Execute, DefineView, DropView, every
// maintenance operation, QueryFresh/ReadFresh (which fold a Combined
// view's log) and CheckInvariant/CheckConsistent must be called from
// one goroutine at a time, and a caller with several writers serializes
// them itself. Query and Read are the readers: they may run on any
// goroutine, concurrently with each other and with the writer, and
// wait only while a refresh holds the view's MV write lock.
type Manager struct {
	db    *storage.Database
	locks *txn.LockManager
	views map[string]*View
	order []string // registration order for deterministic iteration

	// exec is Execute's per-transaction scratch (see execute.go).
	exec execScratch

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

	// fail, when set, is asked at every failpoint of the evaluate phase
	// (see site) and fails the evaluation with the error it returns.
	// Only tests set it: nil, a failpoint costs one compare.
	fail func(site) error
}

// NewManager wraps a database.
func NewManager(db *storage.Database) *Manager {
	reg := obs.NewRegistry()
	m := &Manager{
		db:        db,
		locks:     txn.NewLockManager(reg),
		views:     make(map[string]*View),
		exec:      newExecScratch(db),
		obs:       reg,
		txnExecNs: reg.Histogram(entrySteps[obs.PhaseMakesafe].family, ""),
		tracer:    trace.NewTracer(0),
	}
	db.SetMetrics(reg)
	db.SetTracer(m.tracer)
	return m
}

// DB exposes the underlying database (for queries and tests).
func (m *Manager) DB() *storage.Database { return m.db }

// Locks exposes the lock manager (for downtime statistics).
func (m *Manager) Locks() *txn.LockManager { return m.locks }

// Obs exposes the manager's metrics registry: counters, gauges, and
// histograms for every maintenance operation, documented in
// docs/observability.md. Snapshot it for reporting, or serve it over
// HTTP with obs.Handler, which scrapes it with the Go runtime's go_*
// families (obs.Scrape).
func (m *Manager) Obs() *obs.Registry { return m.obs }

// View returns a registered view.
func (m *Manager) View(name string) (*View, error) {
	v, ok := m.LookupView(name)
	if !ok {
		return nil, fmt.Errorf("core: no view %q", name)
	}
	return v, nil
}

// LookupView returns the named view and whether one is registered: View
// without the error a miss builds, for a caller to whom a miss is an
// answer (a SQL FROM item that names a table).
func (m *Manager) LookupView(name string) (*View, bool) {
	v, ok := m.views[name]
	return v, ok
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

// DefineView registers a materialized view under a scenario: it
// creates the MV table and the tables the scenario keeps — a log pair
// per base table for BaseLogs and Combined, the differential pair for
// DiffTables and Combined — initializes MV to the current value of the
// definition, and precompiles the incremental pair. A view with logs
// also gets the relevant-update filters its definition implies
// (bindFilters): its logs take only the changes that can affect it. A
// define that fails leaves nothing behind.
func (m *Manager) DefineView(name string, def algebra.Expr, sc Scenario, opts ...Option) (_ *View, err error) {
	if _, dup := m.views[name]; dup {
		return nil, fmt.Errorf("core: view %q already defined", name)
	}
	if sc > Combined {
		return nil, fmt.Errorf("core: view %q: unknown scenario %v", name, sc)
	}
	bases := algebra.BaseNames(def)
	schemas := make(map[string]*schema.Schema, len(bases))
	for _, b := range bases {
		tb, err := m.db.Table(b)
		if err != nil {
			return nil, fmt.Errorf("core: view %q: %w", name, err)
		}
		if tb.Kind() != storage.External {
			return nil, fmt.Errorf("core: view %q references internal table %q", name, b)
		}
		schemas[b] = tb.Schema()
	}

	v := &View{Name: name, Def: def, Scenario: sc, bases: bases, inv: sc.String()}
	for _, o := range opts {
		o(v)
	}
	if v.def, err = algebra.Compile(def); err != nil {
		return nil, err
	}

	defer func() {
		if err != nil {
			m.dropTables(v)
		}
	}()
	create := func(table string, sch *schema.Schema) (tb *storage.Table) {
		if err == nil {
			tb, err = m.db.Create(table, sch, storage.Internal)
		}
		return tb
	}
	v.mv = create("__mv_"+name, def.Schema())
	if sc == BaseLogs || sc == Combined {
		v.logs = make(map[string]tablePair, len(bases))
		for _, b := range bases {
			v.logs[b] = tablePair{
				create(fmt.Sprintf("__log_del_%s__%s", b, name), schemas[b]),
				create(fmt.Sprintf("__log_ins_%s__%s", b, name), schemas[b]),
			}
		}
	}
	if sc == DiffTables || sc == Combined {
		v.diff = &tablePair{create("__dmv_del_"+name, def.Schema()), create("__dmv_add_"+name, def.Schema())}
	}
	if err != nil {
		return nil, err
	}

	// Materialize the initial contents, one-shot: defining a view only
	// reads the base tables — no index, no journal is left on them.
	if err = m.failAt(siteDefine); err != nil {
		return nil, err
	}
	init, _, err := v.def.Eval(nil, m.db)
	if err != nil {
		return nil, err
	}
	v.mv.Replace(init[0])

	if v.logs != nil {
		if err = m.bindFilters(v, schemas); err != nil {
			return nil, err
		}
	}
	// Instruments exist before compilation so delta_compile_ns can be
	// observed (families from a failed define linger at zero; harmless).
	v.met = newViewMetrics(m.obs, name)
	if err = m.compile(v, schemas); err != nil {
		return nil, err
	}

	m.views[name] = v
	m.order = append(m.order, name)
	return v, nil
}

// DropView unregisters a view and drops its MV and auxiliary tables.
func (m *Manager) DropView(name string) error {
	v, err := m.View(name)
	if err != nil {
		return err
	}
	m.dropTables(v)
	delete(m.views, name)
	for i, n := range m.order {
		if n == name {
			m.order = append(m.order[:i], m.order[i+1:]...)
			break
		}
	}
	return nil
}

// dropTables drops every table the view holds: DropView, and a
// DefineView that failed part way (whose view holds only the tables it
// created).
func (m *Manager) dropTables(v *View) {
	tables := []*storage.Table{v.mv}
	for _, b := range v.bases {
		tables = append(tables, v.logs[b].del, v.logs[b].add)
	}
	if v.diff != nil {
		tables = append(tables, v.diff.del, v.diff.add)
	}
	for _, tb := range tables {
		if tb != nil {
			_ = m.db.Drop(tb.Name())
		}
	}
}

// bindFilters derives the view's relevant-update filters from its
// definition and binds each against its table's schema. The derivation
// walks the definition once: O(|Def|), never O(rows).
func (m *Manager) bindFilters(v *View, schemas map[string]*schema.Schema) error {
	v.filters = map[string]func(schema.Tuple) bool{}
	for table, f := range algebra.RelevantFilters(v.Def) {
		keep, err := f.Bind(schemas[table])
		if err != nil {
			return fmt.Errorf("core: view %q: filter on %q: %w", v.Name, table, err)
		}
		v.filters[table] = keep
	}
	return nil
}

// changeSet is the ∇R/△R each base table R's changes are read from: the
// view's log tables (▼R, ▲R) when it has logs, and otherwise the
// current transaction's, under the names __tx_del_R and __tx_ins_R,
// which it records in v.params for txSource to bind. Those names are
// parameters, not tables. Either pair is built with algebra.NewDelta, so
// no join gives a change table an index of its own.
func (m *Manager) changeSet(v *View, schemas map[string]*schema.Schema) (delta.ChangeSet, error) {
	cs := delta.ChangeSet{}
	if v.logs == nil {
		v.params = make(map[string]txParam, 2*len(v.bases))
	}
	for _, b := range v.bases {
		var del, ins algebra.Expr
		if p, ok := v.logs[b]; ok {
			del, ins = algebra.NewDelta(p.del.Name(), p.del.Schema()), algebra.NewDelta(p.add.Name(), p.add.Schema())
		} else {
			dn, in := "__tx_del_"+b, "__tx_ins_"+b
			if _, ok := schemas[dn]; ok {
				return nil, fmt.Errorf("core: view %q reads table %q, the name of %s's transaction delta", v.Name, dn, b)
			}
			if _, ok := schemas[in]; ok {
				return nil, fmt.Errorf("core: view %q reads table %q, the name of %s's transaction delta", v.Name, in, b)
			}
			v.params[dn], v.params[in] = txParam{b, false}, txParam{b, true}
			del, ins = algebra.NewDelta(dn, schemas[b]), algebra.NewDelta(in, schemas[b])
		}
		cs[b] = struct {
			Deleted  algebra.Expr
			Inserted algebra.Expr
		}{del, ins}
	}
	return cs, nil
}

// compile builds the view's incremental pair and compiles it into the
// view's one pair program: the pre-update pair of a view without logs,
// the post-update pair of one with them. Every Figure 3 transaction that
// installs the pair is evalDeltaPair followed by applyToMVLocked or
// mergeDiff; the time spent compiling is recorded in delta_compile_ns.
func (m *Manager) compile(v *View, schemas map[string]*schema.Schema) error {
	cs, err := m.changeSet(v, schemas)
	if err != nil {
		return err
	}
	if v.logs != nil {
		v.del, v.add, err = delta.PostUpdate(cs, v.Def)
	} else {
		v.del, v.add, err = delta.PreUpdate(cs, v.Def)
	}
	if err != nil {
		return err
	}
	if v.StrongMinimal {
		if v.del, v.add, err = delta.StrengthenMinimality(v.del, v.add); err != nil {
			return err
		}
	}
	start := time.Now()
	if v.pair, err = algebra.Compile(v.del, v.add); err != nil {
		return err
	}
	v.pairSt = v.pair.NewState()
	v.met.deltaCompileNs.Observe(int64(time.Since(start)))
	return nil
}
