package sql

import (
	"fmt"
	"strconv"
	"strings"

	"dvm/internal/algebra"
	"dvm/internal/schema"
)

// SQL renders a parsed statement back to executable SQL. Round-tripping
// is exact up to whitespace: Parse(stmt.SQL()) yields an equivalent AST
// (property-tested), which is what engine snapshots rely on to persist
// view definitions.
func SQL(st Stmt) string {
	switch s := st.(type) {
	case *CreateTable:
		var cols []string
		for _, c := range s.Cols {
			cols = append(cols, c.Name+" "+typeSQL(c.Type))
		}
		return fmt.Sprintf("CREATE TABLE %s (%s)", s.Name, strings.Join(cols, ", "))
	case *CreateView:
		mode := ""
		switch s.Mode {
		case "IMMEDIATE":
			mode = " REFRESH IMMEDIATE"
		case "LOGGED":
			mode = " REFRESH DEFERRED LOGGED"
		case "DIFFERENTIAL":
			mode = " REFRESH DEFERRED DIFFERENTIAL"
		case "COMBINED":
			mode = " REFRESH DEFERRED COMBINED"
		}
		if s.Strong {
			mode += " MIN"
		}
		return fmt.Sprintf("CREATE MATERIALIZED VIEW %s%s AS %s", s.Name, mode, selectSQL(s.Query))
	case *DropStmt:
		if s.View {
			return "DROP VIEW " + s.Name
		}
		return "DROP TABLE " + s.Name
	case *SelectStmt:
		return selectSQL(s)
	case *InsertStmt:
		var rows []string
		for _, r := range s.Rows {
			var vals []string
			for _, v := range r {
				vals = append(vals, litSQL(v))
			}
			rows = append(rows, "("+strings.Join(vals, ", ")+")")
		}
		return fmt.Sprintf("INSERT INTO %s VALUES %s", s.Table, strings.Join(rows, ", "))
	case *DeleteStmt:
		out := "DELETE FROM " + s.Table
		if s.Where != nil {
			out += " WHERE " + predSQL(s.Where)
		}
		return out
	case *MaintStmt:
		switch s.Op {
		case "PARTIAL":
			return "PARTIAL REFRESH " + s.View
		case "CHECK":
			return "CHECK INVARIANT " + s.View
		default:
			return s.Op + " " + s.View
		}
	case *ShowStmt:
		if s.Views {
			return "SHOW VIEWS"
		}
		return "SHOW TABLES"
	case *ExplainStmt:
		if s.View != "" {
			return "EXPLAIN VIEW " + s.View
		}
		return "EXPLAIN " + selectSQL(s.Query)
	}
	return fmt.Sprintf("-- unprintable statement %T", st)
}

func typeSQL(t schema.Type) string {
	switch t {
	case schema.TInt:
		return "INT"
	case schema.TFloat:
		return "FLOAT"
	case schema.TString:
		return "STRING"
	case schema.TBool:
		return "BOOL"
	}
	return t.String()
}

func selectSQL(st *SelectStmt) string {
	out := simpleSQL(st.Head)
	for _, op := range st.Ops {
		out += " " + op.Op + " " + simpleSQL(op.Right)
	}
	if len(st.OrderBy) > 0 {
		var keys []string
		for _, k := range st.OrderBy {
			if k.Desc {
				keys = append(keys, k.Col+" DESC")
			} else {
				keys = append(keys, k.Col)
			}
		}
		out += " ORDER BY " + strings.Join(keys, ", ")
	}
	if st.Limit >= 0 {
		out += fmt.Sprintf(" LIMIT %d", st.Limit)
	}
	return out
}

func simpleSQL(s *SimpleSelect) string {
	var b strings.Builder
	b.WriteString("SELECT ")
	if s.Distinct {
		b.WriteString("DISTINCT ")
	}
	if s.Star {
		b.WriteString("*")
	} else {
		for i, item := range s.Items {
			if i > 0 {
				b.WriteString(", ")
			}
			if item.Agg != nil {
				b.WriteString(aggSQL(item.Agg))
			} else {
				b.WriteString(scalarSQL(item.Expr))
			}
			if item.Alias != "" {
				b.WriteString(" AS " + item.Alias)
			}
		}
	}
	b.WriteString(" FROM ")
	for i, ref := range s.From {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(ref.Name)
		if ref.Alias != "" {
			b.WriteString(" " + ref.Alias)
		}
	}
	if s.Where != nil {
		b.WriteString(" WHERE " + predSQL(s.Where))
	}
	if len(s.GroupBy) > 0 {
		b.WriteString(" GROUP BY " + strings.Join(s.GroupBy, ", "))
	}
	return b.String()
}

// predSQL renders a parsed WHERE, every comparison and connective in
// parentheses, so that it parses back to the same tree.
func predSQL(p algebra.Predicate) string {
	switch x := p.(type) {
	case algebra.Cmp:
		return "(" + scalarSQL(x.L) + " " + x.Op.String() + " " + scalarSQL(x.R) + ")"
	case algebra.And:
		return junctionSQL(x.Preds, " AND ")
	case algebra.Or:
		return junctionSQL(x.Preds, " OR ")
	case algebra.Not:
		return "NOT " + predSQL(x.Pred)
	case algebra.BoolLit:
		return litSQL(schema.Bool(x.Value))
	}
	return fmt.Sprintf("/*?%T*/", p)
}

// junctionSQL renders an AND or an OR of ps (the parser builds them
// binary).
func junctionSQL(ps []algebra.Predicate, op string) string {
	parts := make([]string, len(ps))
	for i, p := range ps {
		parts[i] = predSQL(p)
	}
	return "(" + strings.Join(parts, op) + ")"
}

func scalarSQL(s algebra.Scalar) string {
	switch x := s.(type) {
	case algebra.Attr:
		return x.Name
	case algebra.Const:
		return litSQL(x.Value)
	case algebra.Arith:
		return "(" + scalarSQL(x.L) + " " + x.Op.String() + " " + scalarSQL(x.R) + ")"
	}
	return fmt.Sprintf("/*?%T*/", s)
}

func aggSQL(x *AggExpr) string {
	if x.Star {
		return x.Func + "(*)"
	}
	return x.Func + "(" + scalarSQL(x.Arg) + ")"
}

func litSQL(v schema.Value) string {
	switch v.Type() {
	case schema.TNull:
		return "NULL"
	case schema.TString:
		return "'" + strings.ReplaceAll(v.AsString(), "'", "''") + "'"
	case schema.TBool:
		if v.AsBool() {
			return "TRUE"
		}
		return "FALSE"
	case schema.TFloat:
		// Decimal and always with a point: the lexer reads no exponent
		// ("1e+06"), and a number without a point is an INT.
		s := strconv.FormatFloat(v.AsFloat(), 'f', -1, 64)
		if !strings.ContainsRune(s, '.') {
			s += ".0"
		}
		return s
	default:
		return v.String()
	}
}
