package sql

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"dvm/internal/algebra"
	"dvm/internal/bag"
	"dvm/internal/core"
	"dvm/internal/obs/trace"
	"dvm/internal/schema"
	"dvm/internal/storage"
	"dvm/internal/txn"
)

// Engine binds the SQL dialect to a database and a maintenance manager.
// One Engine is one session; it is not safe for concurrent use.
type Engine struct {
	db  *storage.Database
	mgr *core.Manager
	// viewDDL remembers each SQL-created view's statement so snapshots
	// (SaveTo) can persist and replay the definitions.
	viewDDL map[string]*CreateView
	// optErr records the first EngineOption failure (see Err).
	optErr error
}

// EngineOption configures a freshly constructed engine. LoadEngine
// applies options before replaying the snapshot, so even the load
// itself is observable (the tracer otherwise could not be enabled
// until after the work it should have captured).
type EngineOption func(*Engine)

// WithTraceSpec applies a trace sampling spec ("off", "all",
// "rate=N", "threshold=DUR"; see trace.Configure) to the engine's
// tracer at construction time. An invalid spec is reported by Err.
func WithTraceSpec(spec string) EngineOption {
	return func(e *Engine) { e.optErr = trace.Configure(e.mgr.Tracer(), spec) }
}

// NewEngine creates an engine over a fresh database.
func NewEngine(opts ...EngineOption) *Engine {
	db := storage.NewDatabase()
	e := NewEngineOver(db, core.NewManager(db))
	e.applyOptions(opts)
	return e
}

func (e *Engine) applyOptions(opts []EngineOption) {
	for _, o := range opts {
		o(e)
	}
}

// Err returns the first error an EngineOption recorded (e.g. a bad
// trace spec), or nil.
func (e *Engine) Err() error { return e.optErr }

// NewEngineOver wraps an existing database and manager.
func NewEngineOver(db *storage.Database, mgr *core.Manager) *Engine {
	return &Engine{db: db, mgr: mgr, viewDDL: make(map[string]*CreateView)}
}

// DB exposes the underlying database.
func (e *Engine) DB() *storage.Database { return e.db }

// Manager exposes the maintenance manager.
func (e *Engine) Manager() *core.Manager { return e.mgr }

// Result is the outcome of one statement.
type Result struct {
	// Rows and Schema are set for SELECT results.
	Rows   *bag.Bag
	Schema *schema.Schema
	// Ordered carries the rows in ORDER BY order (after LIMIT) when the
	// query requested one; Rows still holds the same multiset.
	Ordered []schema.Tuple
	// Message describes DDL/DML/maintenance outcomes.
	Message string
	// Count is rows inserted/deleted for DML.
	Count int
}

// String renders a result for interactive display.
func (r *Result) String() string {
	if r.Rows == nil {
		return r.Message
	}
	var sb strings.Builder
	cols := r.Schema.Columns()
	for i, c := range cols {
		if i > 0 {
			sb.WriteString(" | ")
		}
		sb.WriteString(c.Name)
	}
	sb.WriteByte('\n')
	rows := r.Ordered
	if rows == nil {
		rows = r.Rows.Tuples()
	}
	for _, t := range rows {
		for i, v := range t {
			if i > 0 {
				sb.WriteString(" | ")
			}
			sb.WriteString(v.String())
		}
		sb.WriteByte('\n')
	}
	sb.WriteString(fmt.Sprintf("(%d rows)", len(rows)))
	return sb.String()
}

// Exec parses and executes one statement.
func (e *Engine) Exec(input string) (*Result, error) {
	st, err := Parse(input)
	if err != nil {
		return nil, err
	}
	return e.ExecStmt(st)
}

// ExecScript executes a semicolon-separated script, stopping at the
// first error and returning the results so far.
func (e *Engine) ExecScript(input string) ([]*Result, error) {
	stmts, err := ParseScript(input)
	if err != nil {
		return nil, err
	}
	var out []*Result
	for _, st := range stmts {
		r, err := e.ExecStmt(st)
		if err != nil {
			return out, err
		}
		out = append(out, r)
	}
	return out, nil
}

// stmtKind labels a statement for the sql_stmt_ns metric family.
func stmtKind(st Stmt) string {
	switch st.(type) {
	case *CreateTable:
		return "create_table"
	case *CreateView:
		return "create_view"
	case *DropStmt:
		return "drop"
	case *SelectStmt:
		return "select"
	case *ExplainStmt:
		return "explain"
	case *InsertStmt:
		return "insert"
	case *DeleteStmt:
		return "delete"
	case *MaintStmt:
		return "maint"
	case *ShowStmt:
		return "show"
	}
	return "other"
}

// ExecStmt executes a parsed statement as one statement step: its
// latency is sql_stmt_ns{kind} and the duration of a root sql.stmt
// trace span, which the maintenance work the statement triggers
// parents under.
func (e *Engine) ExecStmt(st Stmt) (*Result, error) {
	defer e.mgr.BeginStatement(stmtKind(st)).End()
	return e.execStmt(st)
}

func (e *Engine) execStmt(st Stmt) (*Result, error) {
	switch s := st.(type) {
	case *CreateTable:
		if _, err := e.db.Create(s.Name, schema.NewSchema(s.Cols...), storage.External); err != nil {
			return nil, err
		}
		return &Result{Message: fmt.Sprintf("table %s created", s.Name)}, nil

	case *CreateView:
		if len(s.Query.OrderBy) > 0 || s.Query.Limit >= 0 {
			return nil, fmt.Errorf("sql: materialized views are bags; ORDER BY/LIMIT belong on queries")
		}
		if containsAggregates(s.Query) || len(s.Query.Head.GroupBy) > 0 {
			return nil, fmt.Errorf("sql: materialized views cannot aggregate (the paper's algorithms cover the bag algebra; aggregation is orthogonal — aggregate when QUERYING the view instead)")
		}
		def, err := CompileSelect(s.Query, e.baseSource)
		if err != nil {
			return nil, err
		}
		sc, err := scenarioFor(s.Mode)
		if err != nil {
			return nil, err
		}
		var opts []core.Option
		if s.Strong {
			opts = append(opts, core.WithStrongMinimality())
		}
		if _, err := e.mgr.DefineView(s.Name, def, sc, opts...); err != nil {
			return nil, err
		}
		e.viewDDL[s.Name] = s
		return &Result{Message: fmt.Sprintf("materialized view %s created (%s)", s.Name, sc)}, nil

	case *DropStmt:
		if s.View {
			if err := e.mgr.DropView(s.Name); err != nil {
				return nil, err
			}
			delete(e.viewDDL, s.Name)
			return &Result{Message: fmt.Sprintf("view %s dropped", s.Name)}, nil
		}
		tb, err := e.db.Table(s.Name)
		if err != nil {
			return nil, err
		}
		if tb.Kind() != storage.External {
			return nil, fmt.Errorf("sql: cannot drop internal table %q", s.Name)
		}
		for _, v := range e.mgr.Views() {
			for _, b := range v.BaseTables() {
				if b == s.Name {
					return nil, fmt.Errorf("sql: table %q is referenced by view %q", s.Name, v.Name)
				}
			}
		}
		if err := e.db.Drop(s.Name); err != nil {
			return nil, err
		}
		return &Result{Message: fmt.Sprintf("table %s dropped", s.Name)}, nil

	case *SelectStmt:
		var res *Result
		var err error
		switch {
		case containsAggregates(s) || len(s.Head.GroupBy) > 0:
			res, err = e.execAggregate(s.Head, s)
		case len(s.Ops) == 0 && len(s.Head.From) == 1:
			res, err = e.selectOne(s.Head)
		default:
			res, err = e.selectCompiled(s)
		}
		if err != nil {
			return nil, err
		}
		return applyOrderLimit(res, s)

	case *ExplainStmt:
		return e.execExplain(s)

	case *InsertStmt:
		return e.execInsert(s)

	case *DeleteStmt:
		return e.execDelete(s)

	case *MaintStmt:
		return e.execMaint(s)

	case *ShowStmt:
		return e.execShow(s)
	}
	return nil, fmt.Errorf("sql: unhandled statement %T", st)
}

func scenarioFor(mode string) (core.Scenario, error) {
	switch mode {
	case "IMMEDIATE":
		return core.Immediate, nil
	case "LOGGED":
		return core.BaseLogs, nil
	case "DIFFERENTIAL":
		return core.DiffTables, nil
	case "COMBINED":
		return core.Combined, nil
	}
	return 0, fmt.Errorf("sql: unknown refresh mode %q", mode)
}

// baseSource resolves a FROM name of a view definition: external
// tables only, as view definitions must be over base tables.
func (e *Engine) baseSource(name string) (algebra.Expr, error) {
	tb, err := e.db.Table(name)
	if err != nil {
		if _, verr := e.mgr.View(name); verr == nil {
			return nil, fmt.Errorf("sql: view definitions must reference base tables, not view %q", name)
		}
		return nil, err
	}
	if tb.Kind() != storage.External {
		return nil, fmt.Errorf("sql: cannot reference internal table %q", name)
	}
	return algebra.NewBase(name, tb.Schema()), nil
}

// querySource resolves a FROM name of a query: a view, which reads its
// MV table — the possibly-stale materialization, which is the point of
// deferred maintenance — or else an external table.
func (e *Engine) querySource(name string) (algebra.Expr, error) {
	if v, ok := e.mgr.LookupView(name); ok {
		tb, err := e.db.Table(v.MVTable())
		if err != nil {
			return nil, err
		}
		return algebra.NewBase(v.MVTable(), tb.Schema()), nil
	}
	tb, err := e.db.Table(name)
	if err != nil {
		return nil, err
	}
	if tb.Kind() != storage.External {
		return nil, fmt.Errorf("sql: cannot reference internal table %q", name)
	}
	return algebra.NewBase(name, tb.Schema()), nil
}

// oneTable is a one-table statement's FROM item resolved to the table it
// reads, with its WHERE bound to that table's tuples.
type oneTable struct {
	tb   *storage.Table
	sch  *schema.Schema          // tb's schema; in a query, qualified by the item's alias
	pred func(schema.Tuple) bool // the bound WHERE; nil without one
	view bool                    // tb is a view's MV, read under its read lock
}

// bindOne resolves the table of a statement with one FROM item and binds
// its WHERE, compiling no plan. In a query (alias != "") the name may be a
// view, which reads its MV table — the possibly-stale materialization,
// which is the point of deferred maintenance — or else an external table,
// and the schema is qualified by alias, as CompileSelect qualifies it; a
// DELETE (alias "") names an external table under its own column names.
func (e *Engine) bindOne(name, alias string, where algebra.Predicate) (oneTable, error) {
	var ot oneTable
	if v, ok := e.mgr.LookupView(name); ok && alias != "" {
		name, ot.view = v.MVTable(), true
	}
	tb, err := e.db.Table(name)
	if err != nil {
		return ot, err
	}
	if !ot.view && tb.Kind() != storage.External {
		if alias == "" {
			return ot, fmt.Errorf("sql: cannot delete from internal table %q", name)
		}
		return ot, fmt.Errorf("sql: cannot reference internal table %q", name)
	}
	ot.tb, ot.sch = tb, tb.Schema()
	if alias != "" {
		ot.sch = ot.sch.Qualify(alias)
	}
	if where != nil {
		if ot.pred, err = where.Bind(ot.sch); err != nil && alias != "" {
			err = fmt.Errorf("algebra: select: %w", err)
		}
	}
	return ot, err
}

// readOne runs f over a one-table statement's rows where they lie: the
// table itself, lent (owned false) read-only until f returns, or without
// a WHERE, or σ of it (bag.Select), which f owns. A view's MV is read, and
// f run, under that table's read lock, so the read blocks behind a
// refresh and its wait lands in lock_read_wait_ns; an external table,
// which no lock guards, is read as readUnderViewLocks reads it.
func (e *Engine) readOne(ot oneTable, f func(rows *bag.Bag, owned bool) error) error {
	read := func(*trace.Span) error {
		if ot.pred == nil {
			return f(ot.tb.Data(), false)
		}
		return f(bag.Select(ot.tb.Data(), ot.pred), true)
	}
	if !ot.view {
		return read(nil)
	}
	return e.mgr.Locks().WithReadSpan([]string{ot.tb.Name()}, e.mgr.CurrentSpan(), read)
}

// selectOne runs a SELECT of one FROM item and no compound operator
// without a plan: its bound WHERE filters the table (readOne), a column
// list is Π of the rows and DISTINCT ε of them (bag.Project,
// bag.DupElim), and what is still the live table is cloned (copy on
// write) before the read ends. Its rows and schema are those of
// CompileSelect's expression.
func (e *Engine) selectOne(s *SimpleSelect) (*Result, error) {
	ot, err := e.bindOne(s.From[0].Name, s.From[0].alias(), s.Where)
	if err != nil {
		return nil, err
	}
	sch, pos := ot.sch, []int(nil)
	if !s.Star {
		if sch, pos, err = projectOne(s.Items, ot.sch); err != nil {
			return nil, err
		}
	}
	var rows *bag.Bag
	err = e.readOne(ot, func(b *bag.Bag, owned bool) error {
		if pos != nil {
			b, owned = bag.Project(b, func(t schema.Tuple) schema.Tuple { return t.Project(pos) }), true
		}
		if s.Distinct {
			b, owned = bag.DupElim(b), true
		}
		if !owned {
			b = b.Clone()
		}
		rows = b
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &Result{Rows: rows, Schema: sch}, nil
}

// projectOne resolves a column list against in: the output schema, and
// the positions the list reads, nil when it names every column in order
// (the rows are then the source's, as a pure renaming's are).
func projectOne(items []SelectItem, in *schema.Schema) (*schema.Schema, []int, error) {
	cols, outs, err := selectList(items)
	if err != nil {
		return nil, nil, err
	}
	pos := make([]int, len(cols))
	outCols := make([]schema.Column, len(cols))
	identity := len(cols) == in.Len()
	for i, c := range cols {
		p, err := in.Lookup(c)
		if err != nil {
			return nil, nil, fmt.Errorf("algebra: project: %w", err)
		}
		pos[i], outCols[i] = p, schema.Col(outs[i], in.Column(p).Type)
		identity = identity && p == i
	}
	if identity {
		pos = nil
	}
	return schema.NewSchema(outCols...), pos, nil
}

// readUnderViewLocks is the read path of a query with more than one FROM
// item or a compound operator (a one-table statement reads through
// readOne): it evaluates the query through the compiled engine and runs
// f over the answer. When the query reads any view's MV table,
// evaluation and f run under those tables' shared locks, so reads block
// behind refreshes (and the blocked time lands in lock_read_wait_ns —
// the user-observed view downtime).
//
// The evaluation is borrowed (algebra.Program.EvalBorrowed): unless
// owned, rows may be a live table, lent to f read-only and only until f
// returns; what must outlive f is cloned or folded into something
// smaller inside it. It is also one-shot (a nil
// State): it only reads the tables — no index is registered on, no
// journal switched on for, a live table — so it is safe under the read
// locks.
func (e *Engine) readUnderViewLocks(expr algebra.Expr, f func(rows *bag.Bag, owned bool) error) error {
	prog, err := algebra.Compile(expr)
	if err != nil {
		return err
	}
	read := func(*trace.Span) error {
		outs, _, err := prog.EvalBorrowed(nil, e.db)
		if err != nil {
			return err
		}
		return f(outs[0], prog.Owned(0))
	}
	// querySource admits external tables and views' MV tables only,
	// so a base that is not external is an MV.
	var mvs []string
	for _, n := range algebra.BaseNames(expr) {
		if tb, err := e.db.Table(n); err == nil && tb.Kind() != storage.External {
			mvs = append(mvs, n)
		}
	}
	if len(mvs) == 0 {
		return read(nil)
	}
	return e.mgr.Locks().WithReadSpan(mvs, e.mgr.CurrentSpan(), read)
}

// selectCompiled runs a SELECT of several FROM items or with a compound
// operator through its compiled plan (readUnderViewLocks), and keeps the
// rows: a borrowed answer is cloned before the locks are released.
func (e *Engine) selectCompiled(s *SelectStmt) (*Result, error) {
	expr, err := CompileSelect(s, e.querySource)
	if err != nil {
		return nil, err
	}
	var rows *bag.Bag
	err = e.readUnderViewLocks(expr, func(b *bag.Bag, owned bool) error {
		if !owned {
			b = b.Clone()
		}
		rows = b
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &Result{Rows: rows, Schema: expr.Schema()}, nil
}

func (e *Engine) execInsert(s *InsertStmt) (*Result, error) {
	tb, err := e.db.Table(s.Table)
	if err != nil {
		return nil, err
	}
	if tb.Kind() != storage.External {
		return nil, fmt.Errorf("sql: cannot insert into internal table %q", s.Table)
	}
	rows := bag.New()
	for i, r := range s.Rows {
		if len(r) != tb.Schema().Len() {
			return nil, fmt.Errorf("sql: row %d has %d values, table %s has %d columns",
				i+1, len(r), s.Table, tb.Schema().Len())
		}
		if err := tb.Schema().Validate(r); err != nil {
			return nil, fmt.Errorf("sql: row %d: %w", i+1, err)
		}
		rows.Add(r, 1)
	}
	if err := e.mgr.Execute(txn.Insert(s.Table, rows)); err != nil {
		return nil, err
	}
	n := len(s.Rows)
	return &Result{Message: countMessage(n, " rows inserted"), Count: n}, nil
}

func (e *Engine) execDelete(s *DeleteStmt) (*Result, error) {
	ot, err := e.bindOne(s.Table, "", s.Where)
	if err != nil {
		return nil, err
	}
	// Compute the delete bag: all copies of every matching tuple. The
	// bound WHERE filters the live table (readOne): no plan is compiled,
	// and the table is only read — no index registered, no journal
	// switched on. Execute is its one writer, so the matching set is
	// computed before Execute changes it.
	var matching *bag.Bag
	err = e.readOne(ot, func(rows *bag.Bag, owned bool) error {
		if !owned {
			rows = rows.Clone()
		}
		matching = rows
		return nil
	})
	if err != nil {
		return nil, err
	}
	n := matching.Len()
	if err := e.mgr.Execute(txn.Delete(s.Table, matching)); err != nil {
		return nil, err
	}
	return &Result{Message: countMessage(n, " rows deleted"), Count: n}, nil
}

// countMessage is DML's result message, n followed by what, in one
// allocation.
func countMessage(n int, what string) string {
	var buf [48]byte
	return string(append(strconv.AppendInt(buf[:0], int64(n), 10), what...))
}

func (e *Engine) execMaint(s *MaintStmt) (*Result, error) {
	var err error
	switch s.Op {
	case "REFRESH":
		err = e.mgr.Refresh(s.View)
	case "PROPAGATE":
		err = e.mgr.Propagate(s.View)
	case "PARTIAL":
		err = e.mgr.PartialRefresh(s.View)
	case "RECOMPUTE":
		err = e.mgr.RefreshRecompute(s.View)
	case "CHECK":
		if err := e.mgr.CheckInvariant(s.View); err != nil {
			return nil, err
		}
		return &Result{Message: fmt.Sprintf("invariant holds for %s", s.View)}, nil
	default:
		err = fmt.Errorf("sql: unknown maintenance op %q", s.Op)
	}
	if err != nil {
		return nil, err
	}
	return &Result{Message: fmt.Sprintf("%s %s done", strings.ToLower(s.Op), s.View)}, nil
}

func (e *Engine) execShow(s *ShowStmt) (*Result, error) {
	var names []string
	if s.Views {
		for _, v := range e.mgr.Views() {
			names = append(names, fmt.Sprintf("%s (%s)", v.Name, v.Scenario))
		}
	} else {
		for _, n := range e.db.Names() {
			tb, _ := e.db.Table(n)
			if tb.Kind() == storage.External {
				names = append(names, n)
			}
		}
	}
	sort.Strings(names)
	return &Result{Message: strings.Join(names, "\n")}, nil
}
