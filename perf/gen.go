package main

import (
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"math/rand"
	"sort"
	"strings"

	"dvm/internal/bag"
	"dvm/internal/schema"
	"dvm/internal/txn"
)

// The generator owns a model of the database and emits each cycle's op
// list from -seed. Two rules make every cycle the same shape on every
// seed, so that counts repeat exactly and timings move only with code:
//
//   - The set-up SHAPE is seed-independent: customer c owns the expected
//     Zipf(1.2) share of the baskets (largest remainder), every 50th
//     basket carries a zero-quantity row. The seed picks item numbers,
//     quantities, prices and which baskets churn.
//   - Churn REPLACES: a write deletes baskets that were live when the
//     cycle began and inserts as many new ones for the same customers,
//     taking a fixed share of them from High customers (the rows the
//     view sees). Per-customer row counts never change, no log entry
//     ever cancels another within a cycle, and |sales|, |MV| and the
//     log/diff volumes at every tick are the same numbers on every seed.
//
// Baskets with a zero-quantity row and the flip customers' baskets are
// pinned (never churned) so the rule above is exact.

// row is one sales tuple in compact form.
type row struct {
	cust, item, qty int32
	price           int64 // hundredths; on sql_day the basket's unique tag
}

func (r row) tuple() schema.Tuple {
	return schema.Row(int64(r.cust), int64(r.item), int64(r.qty), float64(r.price)/100)
}

func custTuple(c int, score string) schema.Tuple {
	return schema.Row(int64(c), fmt.Sprintf("cust-%d", c), fmt.Sprintf("addr-%d", c), score)
}

// class identifies an op class: one timed call shape, one span name.
type class uint8

const (
	clsExecute class = iota
	clsPropagate
	clsPartial
	clsRefresh
	clsQuery
	clsFreshSlice
	clsFreshWhole
	clsSQLInsert
	clsSQLDelete
	clsSQLPoint
	clsSQLAgg
	clsSQLPropagate
	clsSQLPartial
	clsSQLRefresh
	clsSave
	clsLoad
	clsFreshPair // sql_day: a REFRESH and the point SELECT after it, as one sample; not a call of its own
	nClass
	// clsTick is not a call: it ends a tick (sizes are sampled there).
	clsTick class = nClass
)

var spanName = [nClass]string{
	"core.execute", "core.propagate", "core.partial_refresh", "core.refresh",
	"core.query", "core.query_fresh_slice", "core.query_fresh_whole",
	"sql.exec.insert", "sql.exec.delete", "sql.exec.select_point", "sql.exec.select_agg",
	"sql.exec.propagate", "sql.exec.partial_refresh", "sql.exec.refresh",
	"storage.save", "storage.load", "sql.fresh_pair",
}

// op is one entry of a cycle's op list. The Manager driver reads txn,
// view and cust; the SQL driver reads stmt.
type op struct {
	cls   class
	view  int
	cust  int     // one-customer reads
	txn   txn.Txn // clsExecute
	stmt  string  // SQL classes
	want  int     // rows the call must delete or return; -1 = unchecked
	fresh bool    // SQL: this REFRESH + the next point SELECT form one fresh read
}

// sized reports whether a call that deleted or returned n rows met the
// op's expectation.
func (o *op) sized(n int) bool { return o.want < 0 || n == o.want }

type gen struct {
	sp  spec
	rng *rand.Rand
	h   hash.Hash64 // running hash of every op emitted

	rows    []row   // baskets × sp.basket, customer-major
	rel     []int   // MV rows owned by each customer while it scores High
	relAll  int     // Σ rel: |MV| with nobody flipped (Σ over views when sp.views > 1)
	relCust int     // customers with rel > 0: groups of the GROUP BY custId aggregate
	high    int     // customers [0, high) score High at set-up
	flip0   int     // first flip customer
	slice0  int     // first one-customer-read customer
	poolR   []int32 // churnable baskets of High customers
	poolI   []int32 // churnable baskets of Low customers
	share   float64 // |poolR| / (|poolR| + |poolI|): the fixed High share of churn
	nextTag int64   // sql_day: next unique basket tag

	// per-cycle state
	curR, curI int     // baskets of each pool already churned this cycle
	acc        float64 // error-diffusion accumulator of the High share
	low        []bool  // customers currently flipped to Low in the base table
	mvLow      []bool  // ... as the MV last saw them
	ops        []op
}

func newGen(sp spec, seed int64) *gen {
	g := &gen{sp: sp, rng: rand.New(rand.NewSource(seed)), h: fnv.New64a()}
	g.high = int(highFraction * float64(sp.customers))
	g.flip0 = sp.customers / 50
	g.slice0 = g.flip0 + flipCustomers
	g.low = make([]bool, sp.customers)
	g.mvLow = make([]bool, sp.customers)

	baskets := sp.sales / sp.basket
	counts := zipfCounts(sp.customers, baskets)
	g.rows = make([]row, 0, sp.sales)
	g.rel = make([]int, sp.customers)
	b := 0
	for c, n := range counts {
		for i := 0; i < n; i++ {
			g.nextTag++
			zero := b%50 == 49
			for k := 0; k < sp.basket; k++ {
				r := g.newRow(int32(c), g.nextTag)
				if zero && k == sp.basket-1 {
					r.qty = 0
				}
				if r.qty != 0 && c < g.high {
					g.rel[c]++
				}
				g.rows = append(g.rows, r)
			}
			pinned := zero || (c >= g.flip0 && c < g.flip0+flipCustomers)
			switch {
			case pinned:
			case c < g.high:
				g.poolR = append(g.poolR, int32(b))
			default:
				g.poolI = append(g.poolI, int32(b))
			}
			b++
		}
	}
	for _, n := range g.rel {
		g.relAll += n
		if n > 0 {
			g.relCust++
		}
	}
	g.share = float64(len(g.poolR)) / float64(len(g.poolR)+len(g.poolI))
	return g
}

// zipfCounts splits n baskets over customers in proportion to
// (1+c)^-zipfS by largest remainder: the expected counts of the
// retail generator's Zipf draw, without its sampling noise.
func zipfCounts(customers, n int) []int {
	w := make([]float64, customers)
	total := 0.0
	for c := range w {
		w[c] = math.Pow(float64(1+c), -zipfS)
		total += w[c]
	}
	counts := make([]int, customers)
	frac := make([]float64, customers)
	order := make([]int, customers)
	given := 0
	for c := range w {
		x := float64(n) * w[c] / total
		counts[c] = int(x)
		frac[c] = x - float64(counts[c])
		order[c] = c
		given += counts[c]
	}
	sort.SliceStable(order, func(i, j int) bool { return frac[order[i]] > frac[order[j]] })
	for _, c := range order[:n-given] {
		counts[c]++
	}
	return counts
}

func (g *gen) newRow(cust int32, tag int64) row {
	r := row{cust: cust, item: int32(g.rng.Intn(items)), qty: int32(1 + g.rng.Intn(5))}
	if g.sp.sql {
		r.price = tag*100 + 25 // tag.25: exact in a float, unique per basket
	} else {
		r.price = int64(1 + g.rng.Intn(10000))
	}
	return r
}

// initialTuples returns the set-up contents of customer and sales.
func (g *gen) initialTuples() (cust, sales []schema.Tuple) {
	cust = make([]schema.Tuple, g.sp.customers)
	for c := range cust {
		score := "Low"
		if c < g.high {
			score = "High"
		}
		cust[c] = custTuple(c, score)
	}
	sales = make([]schema.Tuple, len(g.rows))
	for i, r := range g.rows {
		sales[i] = r.tuple()
	}
	return cust, sales
}

// itemRange returns the item interval [lo, hi) view v of n selects.
func itemRange(v, n int) (lo, hi int) { return v * items / n, (v + 1) * items / n }

// churn picks one basket that was live when the cycle began, replaces it
// in the model with a fresh one for the same customer, and returns the
// old and new rows.
func (g *gen) churn() (del, ins []row) {
	pool, cur := g.poolI, &g.curI
	if g.acc += g.share; g.acc >= 1 {
		g.acc--
		pool, cur = g.poolR, &g.curR
	}
	j := *cur + g.rng.Intn(len(pool)-*cur)
	pool[*cur], pool[j] = pool[j], pool[*cur]
	b := int(pool[*cur])
	*cur++

	slot := g.rows[b*g.sp.basket : (b+1)*g.sp.basket]
	del = append(del, slot...)
	g.nextTag++
	for k := range slot {
		slot[k] = g.newRow(slot[k].cust, g.nextTag)
	}
	return del, append(ins, slot...)
}

func (g *gen) emit(o op) {
	fmt.Fprintf(g.h, "%d/%d/%d/%d/%s;", o.cls, o.view, o.cust, o.want, o.stmt)
	g.ops = append(g.ops, o)
}

// call emits a call that takes a view and whose result size is not checked.
func (g *gen) call(c class, view int) { g.emit(op{cls: c, view: view, want: -1}) }

// tick emits a tick mark: the driver samples the log and differential
// volumes there.
func (g *gen) tick() { g.call(clsTick, 0) }

func (g *gen) hashRows(rs []row) {
	for _, r := range rs {
		fmt.Fprintf(g.h, "%d,%d,%d,%d;", r.cust, r.item, r.qty, r.price)
	}
}

// writes emits one tick's update transactions.
func (g *gen) writes() {
	for t := 0; t < g.sp.txns; t++ {
		if g.sp.sql {
			// One basket out, one basket in: a DELETE whose predicate matches
			// exactly the old basket's rows and a multi-row INSERT.
			del, ins := g.churn()
			g.hashRows(del)
			g.hashRows(ins)
			g.emit(op{cls: clsSQLInsert, stmt: insertSQL(ins), want: len(ins)})
			g.emit(op{cls: clsSQLDelete, stmt: deleteSQL(del[0]), want: len(del)})
			continue
		}
		var del, ins []row
		for k := 0; k < g.sp.rows; k++ {
			d, i := g.churn()
			del, ins = append(del, d...), append(ins, i...)
		}
		g.hashRows(del)
		g.hashRows(ins)
		db, ib := bag.New(), bag.New()
		for k := range del {
			db.Add(del[k].tuple(), 1)
			ib.Add(ins[k].tuple(), 1)
		}
		g.emit(op{cls: clsExecute, txn: txn.Txn{"sales": {Delete: db, Insert: ib}}, want: -1})
	}
}

// flip emits the transaction that toggles customer c's score.
func (g *gen) flip(c int) {
	from, to := "High", "Low"
	if g.low[c] {
		from, to = to, from
	}
	g.low[c] = !g.low[c]
	g.emit(op{cls: clsExecute, cust: c, want: -1, txn: txn.Txn{"customer": {
		Delete: bag.Of(custTuple(c, from)),
		Insert: bag.Of(custTuple(c, to)),
	}}})
}

// mvRows is |MV| as of its last refresh (single-view workloads).
func (g *gen) mvRows() int {
	n := g.relAll
	for c, l := range g.mvLow {
		if l {
			n -= g.rel[c]
		}
	}
	return n
}

// refreshed records that view 0's MV now reflects every flip so far.
func (g *gen) refreshed() { copy(g.mvLow, g.low) }

// sliceCust returns the i-th one-customer-read target: High customers
// just above the flip range, some 60 rows each at full scale.
func (g *gen) sliceCust(i int) int { return g.slice0 + i%sliceCustomers }

// freshWant is the row count QueryFresh(custId = c) must return.
func (g *gen) freshWant(c int) int {
	if g.sp.views > 1 {
		return -1 // per-view counts depend on the seed's item numbers
	}
	return g.rel[c]
}

// cycle emits the op list of cycle d (warm-up cycles included).
func (g *gen) cycle(d int) []op {
	g.ops = g.ops[:0:0]
	g.curR, g.curI, g.acc = 0, 0, 0
	g.sp.day(g, d)
	return g.ops
}

// retailDay is Example 5.4's day under Policy 2: propagate every tick,
// partial refresh twice a day, full refresh at day end.
func (g *gen) retailDay(d int) {
	for t := 0; t < g.sp.ticks; t++ {
		g.writes()
		// Score flips: every flipEvery-th tick of the first half of the day
		// flips one customer to Low and the tick flipUndoTicks later flips
		// the same one back, so the customer table is unchanged at the
		// cycle boundary. The customers rotate over the flip range.
		if t%flipEvery == 1 {
			perDay := flipUndoTicks / flipEvery
			g.flip(g.flip0 + (d*perDay+t%flipUndoTicks/flipEvery)%flipCustomers)
		}
		g.tick() // log peak: before propagate
		g.call(clsPropagate, 0)
		if t%4 == 3 {
			g.emit(op{cls: clsQuery, want: g.mvRows()})
		}
		if t == 8 || t == 16 {
			g.call(clsPartial, 0)
			g.refreshed()
		}
		if t == 4 || t == 12 {
			c := g.sliceCust(d*2 + t/8)
			g.emit(op{cls: clsFreshSlice, cust: c, want: g.freshWant(c)})
		}
		g.tick()
	}
	g.call(clsRefresh, 0)
	g.refreshed()
	g.tick()
}

// multiviewDay writes through 16 views' makesafe and keeps every view's
// differential tables current; refresh work is spread round-robin.
func (g *gen) multiviewDay(d int) {
	for t := 0; t < g.sp.ticks; t++ {
		g.writes()
		g.tick()
		for v := 0; v < g.sp.views; v++ {
			g.call(clsPropagate, v)
		}
		v := (d*g.sp.ticks + t) % g.sp.views
		g.call(clsPartial, v)
		g.call(clsQuery, v)
		if t == g.sp.ticks-1 {
			c := g.sliceCust(d)
			g.emit(op{cls: clsFreshSlice, view: (v + 1) % g.sp.views, cust: c, want: g.freshWant(c)})
		}
		g.tick()
	}
	for v := 0; v < g.sp.views; v++ {
		g.call(clsRefresh, v)
	}
	g.tick()
}

// freshCycle is two rounds of: build a log backlog with no propagate,
// read through it, and pay one Policy-1-sized refresh.
func (g *gen) freshCycle(d int) {
	for t := 0; t < g.sp.ticks; t++ {
		g.writes()
		g.tick()
		for i := 0; i < 2; i++ {
			c := g.sliceCust((d*g.sp.ticks+t)*2 + i)
			g.emit(op{cls: clsFreshSlice, cust: c, want: g.freshWant(c)})
		}
		if t == 0 {
			g.emit(op{cls: clsFreshWhole, want: g.relAll})
		}
		g.emit(op{cls: clsQuery, want: g.mvRows()})
		g.call(clsRefresh, 0)
		g.tick()
	}
}

// sqlDay is the day as SQL text. Even ticks keep the view current the
// Policy 2 way (PROPAGATE + PARTIAL REFRESH); odd ticks take a fresh
// read (REFRESH + point SELECT); the day ends with a snapshot round trip.
func (g *gen) sqlDay(d int) {
	for t := 0; t < g.sp.ticks; t++ {
		g.writes()
		g.tick()
		c := g.sliceCust(d*g.sp.ticks + t)
		if t%2 == 0 {
			g.emit(op{cls: clsSQLPropagate, stmt: "PROPAGATE hv", want: -1})
			g.emit(op{cls: clsSQLPartial, stmt: "PARTIAL REFRESH hv", want: -1})
		} else {
			g.emit(op{cls: clsSQLRefresh, stmt: "REFRESH hv", want: -1, fresh: true})
		}
		g.emit(op{cls: clsSQLPoint, stmt: pointSQL(c), cust: c, want: g.rel[c]})
		g.emit(op{cls: clsSQLPoint, stmt: pointSQL(c + 1), cust: c + 1, want: g.rel[c+1]})
		g.emit(op{cls: clsSQLAgg, stmt: aggSQL, want: g.relCust})
		g.tick()
	}
	g.call(clsSave, 0)
	g.call(clsLoad, 0)
	g.tick()
}

// --- SQL text ---

const (
	viewSQL = `CREATE MATERIALIZED VIEW hv REFRESH DEFERRED COMBINED AS
SELECT c.custId, c.name, c.score, s.itemNo, s.quantity
FROM customer c, sales s
WHERE c.custId = s.custId AND s.quantity != 0 AND c.score = 'High'`
	aggSQL = "SELECT custId, COUNT(*) AS n, SUM(quantity) AS q FROM hv GROUP BY custId"
)

func pointSQL(c int) string { return fmt.Sprintf("SELECT * FROM hv WHERE custId = %d", c) }

func priceSQL(p int64) string { return fmt.Sprintf("%d.%02d", p/100, p%100) }

func insertSQL(rs []row) string {
	var sb strings.Builder
	sb.WriteString("INSERT INTO sales VALUES ")
	for i, r := range rs {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "(%d, %d, %d, %s)", r.cust, r.item, r.qty, priceSQL(r.price))
	}
	return sb.String()
}

func deleteSQL(r row) string {
	return fmt.Sprintf("DELETE FROM sales WHERE custId = %d AND salesPrice = %s", r.cust, priceSQL(r.price))
}

// loadSQL renders the set-up as statements: DDL, multi-row INSERTs of
// sqlLoadRows rows, then the view.
func (g *gen) loadSQL() []string {
	stmts := []string{
		"CREATE TABLE customer (custId INT, name STRING, address STRING, score STRING)",
		"CREATE TABLE sales (custId INT, itemNo INT, quantity INT, salesPrice FLOAT)",
	}
	for lo := 0; lo < g.sp.customers; lo += sqlLoadRows {
		var sb strings.Builder
		sb.WriteString("INSERT INTO customer VALUES ")
		for c := lo; c < min(lo+sqlLoadRows, g.sp.customers); c++ {
			if c > lo {
				sb.WriteString(", ")
			}
			score := "Low"
			if c < g.high {
				score = "High"
			}
			fmt.Fprintf(&sb, "(%d, 'cust-%d', 'addr-%d', '%s')", c, c, c, score)
		}
		stmts = append(stmts, sb.String())
	}
	for lo := 0; lo < len(g.rows); lo += sqlLoadRows {
		stmts = append(stmts, insertSQL(g.rows[lo:min(lo+sqlLoadRows, len(g.rows))]))
	}
	return append(stmts, viewSQL)
}
