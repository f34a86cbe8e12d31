package sql

import (
	"fmt"

	"dvm/internal/algebra"
)

// Resolver maps a FROM-clause name to the storage table that backs it
// (for views, the MV table) and its schema, or reports an error.
type Resolver func(name string) (algebra.Expr, error)

// CompileSelect compiles a (possibly compound) SELECT into a bag-algebra
// expression using the resolver for FROM names.
func CompileSelect(st *SelectStmt, resolve Resolver) (algebra.Expr, error) {
	out, err := compileSimple(st.Head, resolve)
	if err != nil {
		return nil, err
	}
	for _, op := range st.Ops {
		right, err := compileSimple(op.Right, resolve)
		if err != nil {
			return nil, err
		}
		switch op.Op {
		case "UNION ALL":
			out, err = algebra.NewUnionAll(out, right)
		case "EXCEPT":
			out, err = algebra.ExceptOf(out, right)
		case "MONUS":
			out, err = algebra.NewMonus(out, right)
		case "MIN":
			out, err = algebra.MinOf(out, right)
		case "MAX":
			out, err = algebra.MaxOf(out, right)
		default:
			return nil, fmt.Errorf("sql: unknown compound operator %q", op.Op)
		}
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// compileFrom compiles FROM and WHERE: the product of the FROM items,
// each qualified by its alias, under σ of the parsed predicate.
func compileFrom(refs []TableRef, where algebra.Predicate, resolve Resolver) (algebra.Expr, error) {
	if len(refs) == 0 {
		return nil, fmt.Errorf("sql: empty FROM clause")
	}
	var src algebra.Expr
	for _, ref := range refs {
		base, err := resolve(ref.Name)
		if err != nil {
			return nil, err
		}
		q := algebra.Qualified(base, ref.alias())
		if src == nil {
			src = q
		} else {
			src = algebra.NewProduct(src, q)
		}
	}
	if where == nil {
		return src, nil
	}
	sel, err := algebra.NewSelect(where, src)
	if err != nil {
		return nil, err
	}
	return sel, nil
}

func compileSimple(s *SimpleSelect, resolve Resolver) (algebra.Expr, error) {
	src, err := compileFrom(s.From, s.Where, resolve)
	if err != nil {
		return nil, err
	}
	out := src
	if !s.Star {
		cols, outs, err := selectList(s.Items)
		if err != nil {
			return nil, err
		}
		p, err := algebra.NewProject(cols, outs, src)
		if err != nil {
			return nil, err
		}
		out = p
	}

	if s.Distinct {
		out = algebra.NewDupElim(out)
	}
	return out, nil
}

// selectList returns a column list's source names and its output names,
// each an item's alias or else its bare column name. Items must be column
// references (the bag algebra's Π_A projects attributes; computed columns
// are outside the paper's grammar and therefore outside this dialect).
func selectList(items []SelectItem) (cols, outs []string, err error) {
	cols, outs = make([]string, len(items)), make([]string, len(items))
	for i, item := range items {
		a, ok := item.Expr.(algebra.Attr)
		if !ok {
			return nil, nil, fmt.Errorf("sql: SELECT item %d is not a column reference (Π_A projects attributes only)", i+1)
		}
		cols[i], outs[i] = a.Name, item.Alias
		if outs[i] == "" {
			outs[i] = stripQualifier(a.Name)
		}
	}
	return cols, outs, nil
}

func stripQualifier(name string) string {
	for i := 0; i < len(name); i++ {
		if name[i] == '.' {
			return name[i+1:]
		}
	}
	return name
}
