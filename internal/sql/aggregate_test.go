package sql

import (
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"

	"dvm/internal/bag"
	"dvm/internal/schema"
)

func aggEngine(t *testing.T) *Engine {
	t.Helper()
	e := NewEngine()
	if _, err := e.ExecScript(`
		CREATE TABLE orders (cust STRING, amount FLOAT, qty INT);
		INSERT INTO orders VALUES
			('ann', 10.0, 2),
			('ann', 30.0, 1),
			('bob', 5.0,  4),
			('bob', 5.0,  4),
			('cat', 7.5,  NULL);
	`); err != nil {
		t.Fatal(err)
	}
	return e
}

func one(t *testing.T, e *Engine, q string) schema.Tuple {
	t.Helper()
	r, err := e.Exec(q)
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	ts := r.Rows.Tuples()
	if len(ts) != 1 {
		t.Fatalf("%s: %d rows, want 1: %v", q, len(ts), r.Rows)
	}
	return ts[0]
}

// TestAggregateOfAnExpression: an aggregate's argument is any scalar,
// not only a column; its output column is named after "expr", and the
// statement prints back to text that parses to the same statement.
func TestAggregateOfAnExpression(t *testing.T) {
	e := aggEngine(t)
	const q = "SELECT cust, SUM(qty + 1), MAX(amount * 2) FROM orders o WHERE cust = 'ann' GROUP BY cust"
	r, err := e.Exec(q)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Schema.String(); got != "(cust STRING, sum_expr INT, max_expr FLOAT)" {
		t.Errorf("columns %s", got)
	}
	if tu := one(t, e, q); tu[1].AsInt() != 5 || tu[2].AsFloat() != 60 {
		t.Errorf("ann's row %v, want SUM(qty + 1) 5 and MAX(amount * 2) 60", tu)
	}
	printed := SQL(mustParse(t, q))
	if again := SQL(mustParse(t, printed)); again != printed || !strings.Contains(printed, "SUM((qty + 1))") {
		t.Errorf("%q prints as %q, which prints as %q", q, printed, again)
	}
}

func TestAggregatesWholeTable(t *testing.T) {
	e := aggEngine(t)
	tu := one(t, e, "SELECT COUNT(*), SUM(amount), AVG(amount), MIN(amount), MAX(amount) FROM orders o")
	if tu[0].AsInt() != 5 {
		t.Fatalf("COUNT(*) = %v", tu[0])
	}
	if tu[1].AsFloat() != 57.5 {
		t.Fatalf("SUM = %v", tu[1])
	}
	if tu[2].AsFloat() != 11.5 {
		t.Fatalf("AVG = %v", tu[2])
	}
	if tu[3].AsFloat() != 5.0 || tu[4].AsFloat() != 30.0 {
		t.Fatalf("MIN/MAX = %v / %v", tu[3], tu[4])
	}
	// COUNT(col) skips NULLs; SUM of INT column stays INT.
	tu = one(t, e, "SELECT COUNT(qty), SUM(qty) FROM orders o")
	if tu[0].AsInt() != 4 {
		t.Fatalf("COUNT(qty) = %v, want 4 (one NULL)", tu[0])
	}
	if tu[1].Type() != schema.TInt || tu[1].AsInt() != 11 {
		t.Fatalf("SUM(qty) = %v, want INT 11", tu[1])
	}
}

func TestAggregatesGroupBy(t *testing.T) {
	e := aggEngine(t)
	r, err := e.Exec("SELECT o.cust, COUNT(*) AS n, SUM(o.amount) AS total FROM orders o GROUP BY o.cust")
	if err != nil {
		t.Fatal(err)
	}
	if r.Rows.Len() != 3 {
		t.Fatalf("groups = %v", r.Rows)
	}
	if !r.Rows.Contains(schema.Row("ann", 2, 40.0)) {
		t.Fatalf("ann group wrong: %v", r.Rows)
	}
	// bob has duplicate rows: multiplicities must count.
	if !r.Rows.Contains(schema.Row("bob", 2, 10.0)) {
		t.Fatalf("bob group wrong: %v", r.Rows)
	}
	if r.Schema.Column(1).Name != "n" || r.Schema.Column(2).Name != "total" {
		t.Fatalf("output schema = %s", r.Schema)
	}
}

func TestAggregatesWithWhereAndJoin(t *testing.T) {
	e := newRetailEngine(t, "DEFERRED COMBINED")
	if _, err := e.Exec("REFRESH hv"); err != nil {
		t.Fatal(err)
	}
	// Aggregate over the VIEW — the warehouse use case.
	r, err := e.Exec("SELECT v.custId, SUM(v.quantity) AS q FROM hv v GROUP BY v.custId")
	if err != nil {
		t.Fatal(err)
	}
	if r.Rows.Len() != 2 {
		t.Fatalf("view groups = %v", r.Rows)
	}
	tu := one(t, e, "SELECT COUNT(*) FROM sales s WHERE s.quantity > 0")
	if tu[0].AsInt() != 3 {
		t.Fatalf("filtered count = %v", tu[0])
	}
	// Aggregate over a join.
	tu = one(t, e, `SELECT SUM(s.quantity) FROM customer c, sales s
		WHERE c.custId = s.custId AND c.score = 'High'`)
	if tu[0].AsInt() != 6 {
		t.Fatalf("join sum = %v", tu[0])
	}
}

func TestAggregateEmptyInput(t *testing.T) {
	e := aggEngine(t)
	tu := one(t, e, "SELECT COUNT(*), SUM(amount), MIN(amount) FROM orders o WHERE amount > 1000.0")
	if tu[0].AsInt() != 0 {
		t.Fatalf("COUNT over empty = %v", tu[0])
	}
	if !tu[1].IsNull() || !tu[2].IsNull() {
		t.Fatalf("SUM/MIN over empty should be NULL: %v %v", tu[1], tu[2])
	}
	// Empty input WITH GROUP BY: zero rows.
	r, err := e.Exec("SELECT cust, COUNT(*) FROM orders o WHERE amount > 1000.0 GROUP BY cust")
	if err != nil {
		t.Fatal(err)
	}
	if r.Rows.Len() != 0 {
		t.Fatalf("grouped empty input = %v", r.Rows)
	}
}

func TestAggregateMinMaxKeywords(t *testing.T) {
	e := aggEngine(t)
	tu := one(t, e, "SELECT MIN(qty), MAX(qty) FROM orders o")
	if tu[0].AsInt() != 1 || tu[1].AsInt() != 4 {
		t.Fatalf("MIN/MAX = %v / %v", tu[0], tu[1])
	}
	// The bare MIN compound operator still works.
	r, err := e.Exec("SELECT cust FROM orders o MIN SELECT cust FROM orders o")
	if err != nil {
		t.Fatal(err)
	}
	if r.Rows.Len() != 5 {
		t.Fatalf("compound MIN broken: %v", r.Rows)
	}
}

func TestAggregateErrors(t *testing.T) {
	e := aggEngine(t)
	for _, bad := range []string{
		"SELECT cust, COUNT(*) FROM orders o",                                   // bare column without GROUP BY
		"SELECT amount, COUNT(*) FROM orders o GROUP BY cust",                   // column not in GROUP BY
		"SELECT SUM(cust) FROM orders o",                                        // non-numeric SUM
		"SELECT SUM(*) FROM orders o",                                           // star on non-COUNT
		"SELECT DISTINCT COUNT(*) FROM orders o",                                // DISTINCT + agg
		"SELECT COUNT(*) FROM orders o UNION ALL SELECT COUNT(*) FROM orders o", // compound + agg
		"SELECT COUNT(nothere) FROM orders o",                                   // unknown column
		"SELECT cust, COUNT(*) FROM orders o GROUP BY nothere",                  // unknown group col
	} {
		if _, err := e.Exec(bad); err == nil {
			t.Errorf("accepted %q", bad)
		}
	}
	// Materialized views must reject aggregation.
	_, err := e.Exec("CREATE MATERIALIZED VIEW agg AS SELECT cust, COUNT(*) FROM orders o GROUP BY cust")
	if err == nil || !strings.Contains(err.Error(), "aggregate") {
		t.Fatalf("aggregating view accepted: %v", err)
	}
	_, err = e.Exec("CREATE MATERIALIZED VIEW agg AS SELECT cust FROM orders o GROUP BY cust")
	if err == nil {
		t.Fatal("GROUP BY view accepted")
	}
}

func TestAggregateSQLPrinting(t *testing.T) {
	st := mustParse(t, "SELECT o.cust, COUNT(*) AS n, SUM(o.amount) FROM orders o WHERE o.qty > 0 GROUP BY o.cust")
	printed := SQL(st)
	for _, want := range []string{"COUNT(*)", "SUM(o.amount)", "GROUP BY o.cust", "AS n"} {
		if !strings.Contains(printed, want) {
			t.Fatalf("printed SQL %q missing %q", printed, want)
		}
	}
	if _, err := Parse(printed); err != nil {
		t.Fatalf("printed aggregate SQL does not re-parse: %v", err)
	}
}

// aggItem is one select item of a differential query: a GROUP BY
// column when fn is empty, COUNT(*) when col is.
type aggItem struct{ fn, col string }

func (it aggItem) String() string {
	switch {
	case it.fn == "":
		return it.col
	case it.col == "":
		return it.fn + "(*)"
	}
	return it.fn + "(" + it.col + ")"
}

// naiveAggregate folds rows (columns g, h, x, q) the way SQL defines
// it, one tuple copy at a time, and renders each output row as the test
// compares it.
func naiveAggregate(rows *bag.Bag, items []aggItem, groupBy []string, keep func(schema.Tuple) bool) []string {
	pos := map[string]int{"g": 0, "h": 1, "x": 2, "q": 3}
	type group struct {
		rep   schema.Tuple
		count int64
		n     []int64
		fsum  []float64
		isum  []int64
		lo    []schema.Value
		hi    []schema.Value
	}
	groups := map[string]*group{}
	var order []string
	rows.Each(func(t schema.Tuple, n int) {
		if keep != nil && !keep(t) {
			return
		}
		for ; n > 0; n-- {
			var key strings.Builder
			for _, c := range groupBy {
				key.WriteString(schema.Tuple{t[pos[c]]}.Key())
			}
			g, ok := groups[key.String()]
			if !ok {
				k := len(items)
				g = &group{rep: t, n: make([]int64, k), fsum: make([]float64, k), isum: make([]int64, k),
					lo: make([]schema.Value, k), hi: make([]schema.Value, k)}
				groups[key.String()] = g
				order = append(order, key.String())
			}
			g.count++
			for i, it := range items {
				if it.fn == "" || it.col == "" {
					continue
				}
				v := t[pos[it.col]]
				if v.IsNull() {
					continue
				}
				if g.n[i]++; g.n[i] == 1 {
					g.lo[i], g.hi[i] = v, v
				}
				if v.Numeric() {
					g.fsum[i] += v.AsFloat()
					if v.Type() == schema.TInt {
						g.isum[i] += v.AsInt()
					}
				}
				if v.Compare(g.lo[i]) < 0 {
					g.lo[i] = v
				}
				if v.Compare(g.hi[i]) > 0 {
					g.hi[i] = v
				}
			}
		}
	})
	if len(order) == 0 && len(groupBy) == 0 {
		k := len(items)
		groups[""] = &group{n: make([]int64, k), fsum: make([]float64, k), isum: make([]int64, k),
			lo: make([]schema.Value, k), hi: make([]schema.Value, k)}
		order = append(order, "")
	}
	var out []string
	for _, k := range order {
		g := groups[k]
		row := make(schema.Tuple, len(items))
		for i, it := range items {
			switch {
			case it.fn == "":
				row[i] = g.rep[pos[it.col]]
			case it.fn == "COUNT" && it.col == "":
				row[i] = schema.Int(g.count)
			case it.fn == "COUNT":
				row[i] = schema.Int(g.n[i])
			case g.n[i] == 0:
				row[i] = schema.Null()
			case it.fn == "SUM" && it.col == "q":
				row[i] = schema.Int(g.isum[i])
			case it.fn == "SUM":
				row[i] = schema.Float(g.fsum[i])
			case it.fn == "AVG":
				row[i] = schema.Float(g.fsum[i] / float64(g.n[i]))
			case it.fn == "MIN":
				row[i] = g.lo[i]
			case it.fn == "MAX":
				row[i] = g.hi[i]
			}
		}
		out = append(out, row.String())
	}
	slices.Sort(out)
	return out
}

// randomRowsEngine returns an engine whose table r (g INT, h STRING,
// x FLOAT, q INT) holds n random rows, some twice and some with NULLs,
// inserted as SQL text in the order perm gives. Every x is a multiple of
// 1/4, so a float sum is exact in any order.
func randomRowsEngine(t *testing.T, seed int64, n int) *Engine {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	lit := func(null bool, s string) string {
		if null {
			return "NULL"
		}
		return s
	}
	var rows []string
	for i := 0; i < n; i++ {
		row := fmt.Sprintf("(%s, %s, %s, %s)",
			lit(rng.Intn(12) == 0, strconv.Itoa(rng.Intn(7))),
			lit(rng.Intn(5) == 0, "'"+string(rune('a'+rng.Intn(3)))+"'"),
			lit(rng.Intn(6) == 0, strconv.FormatFloat(float64(rng.Intn(400)-200)/4, 'f', 2, 64)),
			lit(rng.Intn(6) == 0, strconv.Itoa(rng.Intn(101)-50)))
		rows = append(rows, row)
		if rng.Intn(4) == 0 {
			rows = append(rows, row)
		}
	}
	e := NewEngine()
	mustExec(t, e, "CREATE TABLE r (g INT, h STRING, x FLOAT, q INT)")
	for len(rows) > 0 {
		k := min(len(rows), 40)
		mustExec(t, e, "INSERT INTO r VALUES "+strings.Join(rows[:k], ", "))
		rows = rows[k:]
	}
	return e
}

// TestAggregateMatchesNaiveFold: every aggregate, over random rows with
// NULLs and duplicates, grouped by the select list's columns, by a
// column left out of it (two groups then emit equal rows, and the
// result counts the row twice), by nothing, and over empty input,
// answers what a naive fold of the same rows answers.
func TestAggregateMatchesNaiveFold(t *testing.T) {
	all := []aggItem{{"COUNT", ""}, {"COUNT", "x"}, {"COUNT", "q"}, {"COUNT", "h"},
		{"SUM", "x"}, {"SUM", "q"}, {"AVG", "x"}, {"AVG", "q"},
		{"MIN", "x"}, {"MAX", "x"}, {"MIN", "q"}, {"MAX", "q"}, {"MIN", "h"}, {"MAX", "h"}}
	none := func(schema.Tuple) bool { return false }
	cases := []struct {
		items   []aggItem
		groupBy []string
		where   string
		keep    func(schema.Tuple) bool
	}{
		{items: append([]aggItem{{"", "g"}}, all...), groupBy: []string{"g"}},
		{items: append([]aggItem{{"", "h"}, {"", "g"}}, all...), groupBy: []string{"g", "h"}},
		{items: []aggItem{{"", "h"}, {"COUNT", ""}, {"MIN", "q"}}, groupBy: []string{"g", "h"}},
		{items: []aggItem{{"", "h"}}, groupBy: []string{"g", "h"}},
		{items: []aggItem{{"MAX", "x"}}, groupBy: []string{"g"}},
		{items: append([]aggItem{{"", "q"}}, all...), groupBy: []string{"q"}},                  // about 100 groups: several chunks
		{items: []aggItem{{"", "g"}, {"SUM", "x"}, {"MAX", "h"}}, groupBy: []string{"q", "g"}}, // about 400 groups
		{items: all},
		{items: all, where: "q > 1000", keep: none},
		{items: append([]aggItem{{"", "g"}}, all...), groupBy: []string{"g"}, where: "q > 1000", keep: none},
	}
	for seed := int64(1); seed <= 4; seed++ {
		e := randomRowsEngine(t, seed, 300)
		tb, err := e.DB().Table("r")
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range cases {
			names := make([]string, len(c.items))
			for i, it := range c.items {
				names[i] = it.String()
			}
			q := "SELECT " + strings.Join(names, ", ") + " FROM r"
			if c.where != "" {
				q += " WHERE " + c.where
			}
			if len(c.groupBy) > 0 {
				q += " GROUP BY " + strings.Join(c.groupBy, ", ")
			}
			res, err := e.Exec(q)
			if err != nil {
				t.Fatalf("%s: %v", q, err)
			}
			var got []string
			for _, tu := range res.Rows.Tuples() {
				got = append(got, tu.String())
			}
			slices.Sort(got)
			want := naiveAggregate(tb.Data(), c.items, c.groupBy, c.keep)
			if !slices.Equal(got, want) {
				t.Errorf("seed %d, %s:\n got %v\nwant %v", seed, q, got, want)
			}
		}
	}
	// Two groups that emit one row: the row, twice.
	e := NewEngine()
	mustExec(t, e, `CREATE TABLE r (g INT, h STRING, x FLOAT, q INT);
		INSERT INTO r VALUES (1, 'a', 1.0, 1), (2, 'a', 2.0, 2), (2, 'b', 3.0, 3)`)
	res, err := e.Exec("SELECT h FROM r GROUP BY g, h")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows.Count(schema.Row("a")) != 2 || res.Rows.Len() != 3 {
		t.Fatalf("SELECT h FROM r GROUP BY g, h = %v, want ('a') twice and ('b')", res.Rows)
	}
}
