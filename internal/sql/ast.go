package sql

import "dvm/internal/schema"

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
// [GROUP BY cols].
type SimpleSelect struct {
	Distinct bool
	Star     bool
	Items    []SelectItem
	From     []TableRef
	Where    Expr     // nil when absent
	GroupBy  []string // nil when absent
}

// SelectItem is one projection item: a scalar expression with an
// optional output alias.
type SelectItem struct {
	Expr  Expr
	Alias string
}

// TableRef is one FROM entry: a table or view name with an optional
// alias.
type TableRef struct {
	Name  string
	Alias string
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
	Where Expr
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

// Expr is a scalar or boolean SQL expression.
type Expr interface{ expr() }

// ColRef references a column, optionally qualified ("c.custId").
type ColRef struct{ Name string }

// Lit is a literal value.
type Lit struct{ Value schema.Value }

// BinExpr is a binary operation: comparison, AND/OR, or arithmetic.
type BinExpr struct {
	Op   string // = != < <= > >= AND OR + - * /
	L, R Expr
}

// NotExpr negates a boolean expression.
type NotExpr struct{ E Expr }

func (*ColRef) expr()  {}
func (Lit) expr()      {}
func (*BinExpr) expr() {}
func (*NotExpr) expr() {}
