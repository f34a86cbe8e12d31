// Package dvm is the public API of the deferred view maintenance
// library — an implementation of Colby, Griffin, Libkin, Mumick, and
// Trickey, "Algorithms for Deferred View Maintenance" (SIGMOD 1996),
// together with the substrate it assumes: a bag-algebra query engine, an
// in-memory relational store, and an embedded SQL dialect.
//
// The package re-exports the library's layers through type aliases, so
// downstream users program against dvm.* while the implementation lives
// in internal packages:
//
//	eng := dvm.NewEngine()
//	eng.Exec(`CREATE TABLE sales (custId INT, itemNo INT, quantity INT, salesPrice FLOAT)`)
//	eng.Exec(`CREATE MATERIALIZED VIEW hv REFRESH DEFERRED COMBINED AS
//	          SELECT s.custId, s.itemNo FROM sales s WHERE s.quantity != 0`)
//	eng.Exec(`INSERT INTO sales VALUES (1, 10, 2, 9.99)`)
//	eng.Exec(`PROPAGATE hv`)         // fold logs into ∇MV/△MV — no downtime
//	eng.Exec(`PARTIAL REFRESH hv`)   // Policy 2: apply precomputed deltas
//	res, _ := eng.Exec(`SELECT * FROM hv`)
//
// or, at the algebra level:
//
//	db := dvm.NewDatabase()
//	mgr := dvm.NewManager(db)
//	mgr.DefineView("v", def, dvm.Combined)
//	mgr.Execute(dvm.Insert("sales", rows))
//	mgr.Refresh("v")
//
// The four maintenance scenarios correspond to the paper's Figure 1
// invariants: Immediate (Q ≡ MV), BaseLogs (PAST(L,Q) ≡ MV), DiffTables
// (Q ≡ (MV ∸ ∇MV) ⊎ △MV), and Combined (both). Every scenario runs the
// one Figure 3 pipeline: a view's incremental pair is compiled once at
// definition and installed in place by makesafe, propagate and refresh;
// Eval (the interpreter) is the reference the tests check it against.
// See README.md for the full tour and DESIGN.md for the paper-to-code
// map.
package dvm

import (
	"slices"

	"dvm/internal/algebra"
	"dvm/internal/bag"
	"dvm/internal/core"
	"dvm/internal/delta"
	"dvm/internal/schema"
	"dvm/internal/sql"
	"dvm/internal/storage"
	"dvm/internal/txn"
)

// --- Storage layer ---

// Database is a mutable database state: named tables holding bags of
// tuples.
type Database = storage.Database

// Table is one named relation.
type Table = storage.Table

// NewDatabase creates an empty database.
func NewDatabase() *Database { return storage.NewDatabase() }

// Table kinds: user tables vs maintenance-owned tables.
const (
	External = storage.External
	Internal = storage.Internal
)

// --- Value / tuple / schema layer ---

// Value is a scalar database value; Tuple is one row; Schema describes a
// relation's columns.
type (
	Value  = schema.Value
	Tuple  = schema.Tuple
	Schema = schema.Schema
	Column = schema.Column
)

// Scalar constructors.
var (
	Null  = schema.Null
	Int   = schema.Int
	Float = schema.Float
	Str   = schema.Str
	Bool  = schema.Bool
	Row   = schema.Row
	Col   = schema.Col
)

// NewSchema builds a relation schema from a copy of columns.
func NewSchema(cols ...Column) *Schema { return schema.NewSchema(slices.Clone(cols)...) }

// Column types.
const (
	TInt    = schema.TInt
	TFloat  = schema.TFloat
	TString = schema.TString
	TBool   = schema.TBool
)

// --- Bags ---

// Bag is a finite multiset of tuples with the paper's operations.
type Bag = bag.Bag

// NewBag returns an empty bag; BagOf builds one from tuples.
var (
	NewBag = bag.New
	BagOf  = bag.Of
)

// --- Algebra ---

// Expr is a bag-algebra query; Predicate a quantifier-free selection
// predicate.
type (
	Expr      = algebra.Expr
	Predicate = algebra.Predicate
)

// Expression constructors (see internal/algebra for the full set).
var (
	NewBase    = algebra.NewBase
	NewSelect  = algebra.NewSelect
	NewProject = algebra.NewProject
	NewDupElim = algebra.NewDupElim
	NewUnion   = algebra.NewUnionAll
	NewMonus   = algebra.NewMonus
	NewProduct = algebra.NewProduct
	JoinOn     = algebra.JoinOn
	ExceptOf   = algebra.ExceptOf
	MinOf      = algebra.MinOf
	MaxOf      = algebra.MaxOf
	Eval       = algebra.Eval
	A          = algebra.A
	C          = algebra.C
	Eq         = algebra.Eq
	Neq        = algebra.Neq
	Lt         = algebra.Lt
	Gt         = algebra.Gt
	AndOf      = algebra.AndOf
	OrOf       = algebra.OrOf
	NotOf      = algebra.NotOf
)

// --- Transactions ---

// Txn is a simple transaction: per-table delete/insert bags applied
// simultaneously.
type (
	Txn    = txn.Txn
	Update = txn.Update
)

// Transaction constructors.
var (
	Insert = txn.Insert
	Delete = txn.Delete
)

// --- Maintenance (the paper's contribution) ---

// Manager maintains materialized views over a database; View is one
// registered view; Scenario selects the Figure 1 invariant; Policy is a
// tick-driven refresh policy (Section 5.3).
type (
	Manager = core.Manager
	View    = core.View
	Policy  = core.Policy
	Runner  = core.Runner
)

// Scenario is one of the paper's four maintenance scenarios.
type Scenario = core.Scenario

// The four scenarios of Figure 1.
const (
	Immediate  = core.Immediate
	BaseLogs   = core.BaseLogs
	DiffTables = core.DiffTables
	Combined   = core.Combined
)

// NewManager wraps a database in a maintenance manager.
func NewManager(db *Database, opts ...core.ManagerOption) *Manager {
	return core.NewManager(db, opts...)
}

// Manager and view options.
var (
	WithSharedLogs       = core.WithSharedLogs
	WithStrongMinimality = core.WithStrongMinimality
)

// Serialized makes a Manager safe for concurrent writers; readers go
// through the per-view locks.
type Serialized = core.Serialized

// NewSerialized wraps a manager for concurrent use.
func NewSerialized(m *Manager) *Serialized { return core.NewSerialized(m) }

// SelfMaintainable reports whether a view definition can be maintained
// without reading its base tables (select-project-union class, §1.2 /
// [GJM96]).
var SelfMaintainable = delta.SelfMaintainable

// --- SQL ---

// Engine is a SQL session over a database and manager; Result is one
// statement's outcome.
type (
	Engine = sql.Engine
	Result = sql.Result
)

// EngineOption configures a new or restored Engine.
type EngineOption = sql.EngineOption

// WithTraceSpec enables per-transaction structured tracing on the
// engine's manager: "off", "all", "rate=N", or "threshold=DUR" (see
// docs/observability.md, Tracing).
var WithTraceSpec = sql.WithTraceSpec

// NewEngine creates a SQL engine over a fresh database.
func NewEngine(opts ...EngineOption) *Engine { return sql.NewEngine(opts...) }

// NewEngineOver wraps an existing database and manager.
func NewEngineOver(db *Database, mgr *Manager) *Engine {
	return sql.NewEngineOver(db, mgr)
}

// LoadEngine restores an engine snapshot written with Engine.SaveTo:
// the external tables are reloaded and every view's DDL is replayed,
// re-materializing the views from the restored state.
var LoadEngine = sql.LoadEngine
