package sql

import (
	"fmt"
	"sort"
	"strings"

	"dvm/internal/core"
	"dvm/internal/delta"
)

// applyOrderLimit post-processes a SELECT result per the statement's
// ORDER BY and LIMIT clauses. Without ORDER BY, LIMIT applies to the
// canonical (sorted) tuple order so results stay deterministic.
func applyOrderLimit(res *Result, st *SelectStmt) (*Result, error) {
	if len(st.OrderBy) == 0 && st.Limit < 0 {
		return res, nil
	}
	rows := res.Rows.Tuples()
	if len(st.OrderBy) > 0 {
		positions := make([]int, len(st.OrderBy))
		for i, k := range st.OrderBy {
			p, err := res.Schema.Lookup(k.Col)
			if err != nil {
				return nil, fmt.Errorf("sql: ORDER BY: %w", err)
			}
			positions[i] = p
		}
		sort.SliceStable(rows, func(a, b int) bool {
			for i, p := range positions {
				c := rows[a][p].Compare(rows[b][p])
				if c == 0 {
					continue
				}
				if st.OrderBy[i].Desc {
					return c > 0
				}
				return c < 0
			}
			return false
		})
	}
	if st.Limit >= 0 && st.Limit < len(rows) {
		rows = rows[:st.Limit]
	}
	res.Ordered = rows
	return res, nil
}

// execExplain renders the compiled algebra behind a query or a view.
func (e *Engine) execExplain(s *ExplainStmt) (*Result, error) {
	var sb strings.Builder
	if s.View != "" {
		v, err := e.mgr.View(s.View)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(&sb, "view:       %s\n", v.Name)
		fmt.Fprintf(&sb, "scenario:   %v (INV_%v)\n", v.Scenario, v.Scenario)
		fmt.Fprintf(&sb, "invariant:  %s\n", v.InvariantString())
		fmt.Fprintf(&sb, "bases:      %s\n", strings.Join(v.BaseTables(), ", "))
		fmt.Fprintf(&sb, "definition: %s\n", v.Def)
		del, add := v.IncrementalQueries()
		if del != nil {
			label := "∇(T,Q)/△(T,Q) over txn scratch tables (pre-update state)"
			if v.Scenario == core.BaseLogs || v.Scenario == core.Combined {
				label = "▼(L,Q)/▲(L,Q) over log tables (post-update state)"
			}
			fmt.Fprintf(&sb, "incremental (%s):\n", label)
			fmt.Fprintf(&sb, "  delete: %s\n", del)
			fmt.Fprintf(&sb, "  insert: %s\n", add)
		}
		if delta.SelfMaintainable(v.Def) {
			sb.WriteString("self-maintainable: yes (differentials never read base tables)\n")
		}
		return &Result{Message: strings.TrimRight(sb.String(), "\n")}, nil
	}
	if containsAggregates(s.Query) || len(s.Query.Head.GroupBy) > 0 {
		return nil, fmt.Errorf("sql: EXPLAIN of aggregate queries is not supported (aggregation runs outside the algebra)")
	}
	expr, err := CompileSelect(s.Query, e.querySource)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(&sb, "algebra: %s\n", expr)
	fmt.Fprintf(&sb, "schema:  %s", expr.Schema())
	return &Result{Message: sb.String()}, nil
}
