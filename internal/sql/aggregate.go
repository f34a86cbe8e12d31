package sql

import (
	"fmt"
	"slices"
	"strings"

	"dvm/internal/algebra"
	"dvm/internal/bag"
	"dvm/internal/schema"
)

// Aggregation is supported in top-level queries (analysts aggregating
// over base tables and view contents). Materialized view definitions
// deliberately exclude it, exactly as the paper does ("we omit
// aggregation since it is orthogonal to the problems that we discuss",
// Example 1.1).

// AggExpr is an aggregate call in a SELECT item: COUNT(*)/COUNT(e)/
// SUM(e)/AVG(e)/MIN(e)/MAX(e).
type AggExpr struct {
	Func string         // COUNT | SUM | AVG | MIN | MAX
	Arg  algebra.Scalar // nil for COUNT(*)
	Star bool
}

// hasAggregates reports whether any select item is an aggregate.
func hasAggregates(s *SimpleSelect) bool {
	for _, item := range s.Items {
		if item.Agg != nil {
			return true
		}
	}
	return false
}

// containsAggregates reports whether the whole (possibly compound)
// statement uses aggregation anywhere.
func containsAggregates(st *SelectStmt) bool {
	if hasAggregates(st.Head) {
		return true
	}
	for _, op := range st.Ops {
		if hasAggregates(op.Right) {
			return true
		}
	}
	return false
}

// execAggregate evaluates an aggregating SELECT: the rows of its FROM and
// WHERE — of one FROM item, read where they lie (readOne); of several,
// compiled to the algebra and evaluated borrowed (readUnderViewLocks) —
// are folded by aggregate.
func (e *Engine) execAggregate(s *SimpleSelect, st *SelectStmt) (*Result, error) {
	if len(st.Ops) > 0 {
		return nil, fmt.Errorf("sql: aggregates cannot be combined with UNION/EXCEPT/MONUS")
	}
	if s.Distinct {
		return nil, fmt.Errorf("sql: DISTINCT with aggregates is not supported")
	}
	if s.Star {
		return nil, fmt.Errorf("sql: SELECT * cannot be aggregated")
	}
	if len(s.From) == 1 {
		ot, err := e.bindOne(s.From[0].Name, s.From[0].alias(), s.Where)
		if err != nil {
			return nil, err
		}
		return aggregate(s, ot.sch, func(f func(*bag.Bag, bool) error) error { return e.readOne(ot, f) })
	}
	expr, err := compileFrom(s.From, s.Where, e.querySource)
	if err != nil {
		return nil, err
	}
	return aggregate(s, expr.Schema(), func(f func(*bag.Bag, bool) error) error { return e.readUnderViewLocks(expr, f) })
}

// aggregate folds the rows that read lends, of schema inSchema, where they
// are into one accumulator per group of the GROUP BY columns (every
// non-aggregate item must be one of them) — over a view, no copy of MV,
// no pre-aggregate relation: what is allocated grows with the groups, not
// with the rows, and by the chunk of groups, not by the group.
func aggregate(s *SimpleSelect, inSchema *schema.Schema, read func(f func(rows *bag.Bag, owned bool) error) error) (*Result, error) {
	// Classify items: group keys (column refs, must be in GROUP BY) and
	// aggregates.
	type aggSpec struct {
		fn   string
		eval func(schema.Tuple) schema.Value // nil for COUNT(*)
		typ  schema.Type
	}
	type keySpec struct {
		pos int
	}
	var keys []keySpec
	var aggs []aggSpec
	// ordered: some accumulator rounds, so the order rows are added in
	// shows in the answer. COUNT, MIN, MAX and an integer SUM are exact.
	ordered := false
	kind := make([]int, len(s.Items)) // index into keys (>=0) or ^index into aggs
	outCols := make([]schema.Column, len(s.Items))
	for i, item := range s.Items {
		if x := item.Agg; x != nil {
			spec := aggSpec{fn: x.Func}
			if x.Star {
				if x.Func != "COUNT" {
					return nil, fmt.Errorf("sql: %s(*) is not valid", x.Func)
				}
				spec.typ = schema.TInt
			} else {
				fn, typ, err := algebra.BindScalar(x.Arg, inSchema)
				if err != nil {
					return nil, err
				}
				spec.eval = fn
				switch x.Func {
				case "COUNT":
					spec.typ = schema.TInt
				case "AVG":
					spec.typ = schema.TFloat
					ordered = true
				case "SUM":
					if typ == schema.TInt {
						spec.typ = schema.TInt
					} else if typ == schema.TFloat {
						spec.typ = schema.TFloat
						ordered = true
					} else {
						return nil, fmt.Errorf("sql: SUM over non-numeric type %s", typ)
					}
				case "MIN", "MAX":
					spec.typ = typ
				default:
					return nil, fmt.Errorf("sql: unknown aggregate %q", x.Func)
				}
			}
			kind[i] = ^len(aggs)
			aggs = append(aggs, spec)
			name := item.Alias
			if name == "" {
				name = aggName(x)
			}
			outCols[i] = schema.Col(name, spec.typ)
			continue
		}
		switch x := item.Expr.(type) {
		case algebra.Attr:
			if len(s.GroupBy) == 0 {
				return nil, fmt.Errorf("sql: bare column %q with aggregates needs GROUP BY", x.Name)
			}
			if !slices.Contains(s.GroupBy, x.Name) {
				return nil, fmt.Errorf("sql: column %q is not in GROUP BY", x.Name)
			}
			pos, err := inSchema.Lookup(x.Name)
			if err != nil {
				return nil, err
			}
			kind[i] = len(keys)
			keys = append(keys, keySpec{pos: pos})
			name := item.Alias
			if name == "" {
				name = stripQualifier(x.Name)
			}
			outCols[i] = schema.Col(name, inSchema.Column(pos).Type)
		default:
			return nil, fmt.Errorf("sql: select item %d must be a column or an aggregate", i+1)
		}
	}
	// GROUP BY columns not projected are still legal; resolve them all
	// for the grouping key.
	groupPos := make([]int, len(s.GroupBy))
	for i, g := range s.GroupBy {
		p, err := inSchema.Lookup(g)
		if err != nil {
			return nil, err
		}
		groupPos[i] = p
	}

	// Accumulate per group.
	type aggState struct {
		n        int64 // non-null count
		sum      float64
		isum     int64
		min, max schema.Value
	}
	type acc struct {
		rep   schema.Tuple // representative source tuple (group keys)
		count int64        // COUNT(*) incl. duplicates
		st    []aggState   // per agg
	}
	// The fold allocates by the chunk, not by the group: accumulators
	// and their states are carved from chunks of at most accChunk
	// groups, appended in first-seen order, and group keys from an
	// arena. A group holds one distinct row at least, so the rows'
	// distinct count, less the groups seen, bounds the groups still to
	// come, and caps each chunk.
	var (
		chunks    [][]acc // filled in order; only the last has room
		states    []aggState
		groupKeys arena
		left      int // distinct rows not in a group seen yet
		groups    int
	)
	carve := func(rep schema.Tuple) *acc {
		last := len(chunks) - 1
		if last < 0 || len(chunks[last]) == cap(chunks[last]) {
			c := min(max(left, 1), accChunk)
			chunks = append(chunks, make([]acc, 0, c))
			states = make([]aggState, c*len(aggs))
			last++
		}
		chunks[last] = append(chunks[last], acc{rep: rep, st: states[:len(aggs):len(aggs)]})
		states = states[len(aggs):]
		left--
		groups++
		return &chunks[last][len(chunks[last])-1]
	}
	// fill writes a group's output row into tu.
	fill := func(tu schema.Tuple, a *acc) {
		for i := range s.Items {
			if kind[i] >= 0 {
				tu[i] = a.rep[keys[kind[i]].pos]
				continue
			}
			j := ^kind[i]
			sp, st := aggs[j], a.st[j]
			switch sp.fn {
			case "COUNT":
				if sp.eval == nil {
					tu[i] = schema.Int(a.count)
				} else {
					tu[i] = schema.Int(st.n)
				}
			case "SUM":
				if st.n == 0 {
					tu[i] = schema.Null()
				} else if sp.typ == schema.TInt {
					tu[i] = schema.Int(st.isum)
				} else {
					tu[i] = schema.Float(st.sum)
				}
			case "AVG":
				if st.n == 0 {
					tu[i] = schema.Null()
				} else {
					tu[i] = schema.Float(st.sum / float64(st.n))
				}
			case "MIN":
				tu[i] = st.min
			case "MAX":
				tu[i] = st.max
			}
		}
	}
	var out *bag.Bag
	err := read(func(rows *bag.Bag, _ bool) error {
		index := map[string]*acc{}
		left = rows.Distinct()
		var key []byte // the group key of the row at hand, re-encoded in place
		// Ordered iteration makes float SUM/AVG accumulation deterministic:
		// under Each, the addition order (and so the rounding) of a group's
		// float sums would vary run to run with map iteration order. It
		// costs a sort of the rows, in Tuple.Compare order, so exact
		// accumulators go without.
		each := rows.Each
		if ordered {
			each = rows.EachOrdered
		}
		each(func(t schema.Tuple, n int) {
			key = t.AppendKeyAt(key[:0], groupPos)
			a, ok := index[string(key)]
			if !ok {
				k := groupKeys.str(key, min(left*len(key), arenaChunk))
				a = carve(t)
				index[k] = a
			}
			a.count += int64(n)
			for i, sp := range aggs {
				if sp.eval == nil {
					continue // COUNT(*): handled by a.count
				}
				v := sp.eval(t)
				if v.IsNull() {
					continue
				}
				st := &a.st[i]
				st.n += int64(n)
				if v.Numeric() {
					st.sum += v.AsFloat() * float64(n)
					if v.Type() == schema.TInt {
						st.isum += v.AsInt() * int64(n)
					}
				}
				if st.n == int64(n) { // the group's first non-null value
					st.min, st.max = v, v
					continue
				}
				if v.Compare(st.min) < 0 {
					st.min = v
				}
				if v.Compare(st.max) > 0 {
					st.max = v
				}
			}
		})
		// No groups and no GROUP BY: SQL returns one row of empty
		// aggregates (no item is a group key, so rep is never read).
		if groups == 0 && len(s.GroupBy) == 0 {
			carve(nil)
		}
		// One output row per group, carved from one slab. Two groups may
		// emit equal rows (a GROUP BY column left out of the list): the
		// bag then counts the row twice.
		w := len(s.Items)
		slab := make([]schema.Value, groups*w)
		out = bag.NewSized(groups)
		for _, chunk := range chunks {
			for i := range chunk {
				tu := schema.Tuple(slab[:w:w])
				slab = slab[w:]
				fill(tu, &chunk[i])
				out.Add(tu, 1)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &Result{Rows: out, Schema: schema.NewSchema(outCols...)}, nil
}

// accChunk is the most groups an aggregate's accumulator chunk holds.
const accChunk = 32

// arenaChunk is the most bytes an arena chunk is made with, unless one
// string is longer.
const arenaChunk = 4 << 10

// arena hands out strings appended to a chunk: a strings.Builder grown
// once and never past its size, whose String shares its buffer, so the
// bytes under a string handed out are never written again. A chunk is
// freed with the last string it holds.
type arena struct{ chunk strings.Builder }

// str returns a string of k's bytes. When the chunk has no room left
// for them, a new one of room bytes (len(k) at least) takes them.
func (a *arena) str(k []byte, room int) string {
	if a.chunk.Cap()-a.chunk.Len() < len(k) {
		a.chunk = strings.Builder{}
		a.chunk.Grow(max(room, len(k)))
	}
	n := a.chunk.Len()
	a.chunk.Write(k)
	return a.chunk.String()[n:]
}

func aggName(x *AggExpr) string {
	if x.Star {
		return "count"
	}
	base := "expr"
	if c, ok := x.Arg.(algebra.Attr); ok {
		base = stripQualifier(c.Name)
	}
	switch x.Func {
	case "COUNT":
		return "count_" + base
	case "SUM":
		return "sum_" + base
	case "AVG":
		return "avg_" + base
	case "MIN":
		return "min_" + base
	case "MAX":
		return "max_" + base
	}
	return base
}
