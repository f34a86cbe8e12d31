package sql

import (
	"dvm/internal/algebra"
	"dvm/internal/schema"
)

// Stmt is any parsed statement.
type Stmt interface{ stmt() }

// CreateTable is CREATE TABLE name (col TYPE, ...).
type CreateTable struct {
	Name string
	Cols []schema.Column
}

// CreateView is CREATE MATERIALIZED VIEW name REFRESH <mode> AS <select>.
type CreateView struct {
	Name   string
	Mode   string // IMMEDIATE | LOGGED | DIFFERENTIAL | COMBINED
	Strong bool   // ... REFRESH DEFERRED COMBINED MIN (strong minimality)
	Query  *SelectStmt
}

// DropStmt is DROP TABLE name / DROP VIEW name.
type DropStmt struct {
	View bool
	Name string
}

// SelectStmt is a (possibly compound) query: the head select combined
// with further selects by UNION ALL / EXCEPT / MONUS / MIN / MAX,
// left-associatively, with optional ordering and limiting of the final
// result.
type SelectStmt struct {
	Head    *SimpleSelect
	Ops     []CompoundOp
	OrderBy []OrderKey
	Limit   int // -1 when absent
}

// OrderKey is one ORDER BY column.
type OrderKey struct {
	Col  string
	Desc bool
}

// ExplainStmt is EXPLAIN VIEW name / EXPLAIN <select>: it renders the
// compiled bag-algebra (and, for views, the scenario invariant and the
// precompiled incremental queries of Figure 3).
type ExplainStmt struct {
	View  string // set for EXPLAIN VIEW
	Query *SelectStmt
}

// CompoundOp pairs a set operation with its right operand.
type CompoundOp struct {
	Op    string // "UNION ALL" | "EXCEPT" | "MONUS" | "MIN" | "MAX"
	Right *SimpleSelect
}

// SimpleSelect is SELECT [DISTINCT] items FROM tables [WHERE pred]
// [GROUP BY cols]. The WHERE is parsed as the algebra predicate σ runs.
type SimpleSelect struct {
	Distinct bool
	Star     bool
	Items    []SelectItem
	From     []TableRef
	Where    algebra.Predicate // nil when absent
	GroupBy  []string          // nil when absent
}

// SelectItem is one projection item, a scalar expression or an
// aggregate call, with an optional output alias.
type SelectItem struct {
	Expr  algebra.Scalar // nil for an aggregate
	Agg   *AggExpr
	Alias string
}

// TableRef is one FROM entry: a table or view name with an optional
// alias.
type TableRef struct {
	Name  string
	Alias string
}

// alias is the name the entry's columns are qualified by.
func (r TableRef) alias() string {
	if r.Alias != "" {
		return r.Alias
	}
	return r.Name
}

// InsertStmt is INSERT INTO table VALUES (...), (...). Each row is
// parsed as the tuple the table stores: executing the statement adds it
// to the table as it is, uncopied, as Bag.Add keeps the tuple it is
// given, so once a statement has executed its rows are the table's
// tuples and must not be mutated.
type InsertStmt struct {
	Table string
	Rows  []schema.Tuple
}

// DeleteStmt is DELETE FROM table [WHERE pred].
type DeleteStmt struct {
	Table string
	Where algebra.Predicate // nil when absent
}

// MaintStmt covers REFRESH/PROPAGATE/PARTIAL REFRESH/RECOMPUTE/CHECK
// INVARIANT <view>.
type MaintStmt struct {
	Op   string // REFRESH | PROPAGATE | PARTIAL | RECOMPUTE | CHECK
	View string
}

// ShowStmt is SHOW TABLES / SHOW VIEWS.
type ShowStmt struct{ Views bool }

func (*CreateTable) stmt() {}
func (*CreateView) stmt()  {}
func (*DropStmt) stmt()    {}
func (*SelectStmt) stmt()  {}
func (*ExplainStmt) stmt() {}
func (*InsertStmt) stmt()  {}
func (*DeleteStmt) stmt()  {}
func (*MaintStmt) stmt()   {}
func (*ShowStmt) stmt()    {}
