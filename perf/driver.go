package main

import (
	"bytes"
	"fmt"
	"time"

	"dvm/internal/algebra"
	"dvm/internal/core"
	"dvm/internal/obs"
	"dvm/internal/schema"
	"dvm/internal/sql"
	"dvm/internal/storage"
	"dvm/internal/workload"
)

// driver is the closed-loop single client: it builds the engine from the
// generator's set-up state and executes op lists against it, timing
// every call it makes. It reaches the engine only through public
// functions of core, sql and storage.
type driver struct {
	sp spec
	g  *gen
	r  *recorder

	// set-up inputs, rendered once from the generator before any build
	cust, sales []schema.Tuple // Manager workloads
	load        []string       // sql_day
	retail      *workload.Retail

	db    *storage.Database
	m     *core.Manager
	eng   *sql.Engine // sql_day only
	views []string

	logG, diffG []*obs.Gauge // per view: log_size_tuples, diff_size_tuples
	defineNs    []int64      // DefineView / CREATE MATERIALIZED VIEW wall of the last build

	snap     bytes.Buffer // sql_day: the day-end snapshot
	restored *sql.Engine  // ... and the engine LoadEngine made of it
	pending  int64        // sql_day: ns of a REFRESH waiting for its point SELECT
}

func newDriver(sp spec, g *gen, r *recorder) *driver {
	d := &driver{sp: sp, g: g, r: r}
	if sp.sql {
		d.load = g.loadSQL()
		d.views = []string{"hv"}
		return d
	}
	d.cust, d.sales = g.initialTuples()
	d.retail = workload.NewRetail(workload.RetailConfig{Customers: sp.customers})
	for v := 0; v < sp.views; v++ {
		d.views = append(d.views, fmt.Sprintf("hv%02d", v))
	}
	return d
}

// build is one set-up: a fresh database, its tables loaded, the views
// defined (materialized and their delta programs compiled).
func (d *driver) build() error {
	d.defineNs = d.defineNs[:0]
	if d.sp.sql {
		d.eng = sql.NewEngine()
		d.db, d.m = d.eng.DB(), d.eng.Manager()
		for i, st := range d.load {
			t0 := time.Now()
			if _, err := d.eng.Exec(st); err != nil {
				return fmt.Errorf("set-up statement %d: %w", i, err)
			}
			if i == len(d.load)-1 {
				d.defineNs = append(d.defineNs, int64(time.Since(t0)))
			}
		}
	} else {
		d.db = storage.NewDatabase()
		if err := d.loadTable("customer", d.retail.CustomerSchema(), d.cust); err != nil {
			return err
		}
		if err := d.loadTable("sales", d.retail.SalesSchema(), d.sales); err != nil {
			return err
		}
		d.m = core.NewManager(d.db)
		for v, name := range d.views {
			def, err := d.viewDef(v)
			if err != nil {
				return err
			}
			t0 := time.Now()
			if _, err := d.m.DefineView(name, def, core.Combined); err != nil {
				return err
			}
			d.defineNs = append(d.defineNs, int64(time.Since(t0)))
		}
	}
	d.logG, d.diffG = d.logG[:0], d.diffG[:0]
	for _, name := range d.views {
		d.logG = append(d.logG, d.m.Obs().Gauge("log_size_tuples", name))
		d.diffG = append(d.diffG, d.m.Obs().Gauge("diff_size_tuples", name))
	}
	return nil
}

func (d *driver) loadTable(name string, sch *schema.Schema, rows []schema.Tuple) error {
	tb, err := d.db.Create(name, sch, storage.External)
	if err != nil {
		return err
	}
	for _, tu := range rows {
		if err := tb.Insert(tu, 1); err != nil {
			return err
		}
	}
	return nil
}

// viewDef is the Example 1.1 join view, restricted to view v's item
// range when the workload has several.
func (d *driver) viewDef(v int) (algebra.Expr, error) {
	if d.sp.views == 1 {
		return d.retail.ViewDef()
	}
	lo, hi := itemRange(v, d.sp.views)
	return d.retail.FilteredViewDef(algebra.AndOf(
		algebra.Cmp{Op: algebra.GE, L: algebra.A("s.itemNo"), R: algebra.C(lo)},
		algebra.Lt(algebra.A("s.itemNo"), algebra.C(hi)),
	))
}

func custPred(c int) algebra.Predicate { return algebra.Eq(algebra.A("custId"), algebra.C(c)) }

// aux returns the current Σ log and Σ differential-table volumes.
func (d *driver) aux() (logTuples, diffTuples int64) {
	for i := range d.logG {
		logTuples += d.logG[i].Load()
		diffTuples += d.diffG[i].Load()
	}
	return
}

// run executes one cycle's op list.
func (d *driver) run(ops []op) {
	r := d.r
	for i := range ops {
		o := &ops[i]
		switch o.cls {
		case clsTick:
			r.endTick(d.aux())
		case clsExecute:
			t0 := time.Now()
			err := d.m.Execute(o.txn)
			r.done(o.cls, t0, err == nil)
		case clsPropagate:
			t0 := time.Now()
			err := d.m.Propagate(d.views[o.view])
			r.done(o.cls, t0, err == nil)
		case clsPartial:
			t0 := time.Now()
			err := d.m.PartialRefresh(d.views[o.view])
			r.done(o.cls, t0, err == nil)
		case clsRefresh:
			t0 := time.Now()
			err := d.m.Refresh(d.views[o.view])
			r.done(o.cls, t0, err == nil)
		case clsQuery:
			t0 := time.Now()
			b, err := d.m.Query(d.views[o.view])
			r.done(o.cls, t0, err == nil && o.sized(b.Len()))
		case clsFreshSlice:
			t0 := time.Now()
			b, err := d.m.QueryFresh(d.views[o.view], custPred(o.cust))
			r.done(o.cls, t0, err == nil && o.sized(b.Len()))
		case clsFreshWhole:
			t0 := time.Now()
			b, err := d.m.QueryFresh(d.views[o.view], nil)
			r.done(o.cls, t0, err == nil && o.sized(b.Len()))
		case clsSave:
			d.snap.Reset()
			t0 := time.Now()
			err := d.eng.SaveTo(&d.snap)
			r.done(o.cls, t0, err == nil)
		case clsLoad:
			t0 := time.Now()
			e, err := sql.LoadEngine(bytes.NewReader(d.snap.Bytes()))
			r.done(o.cls, t0, err == nil && d.mvLen(e.Manager()) == d.mvLen(d.m))
			if err == nil {
				d.restored = e
			}
		default: // SQL statement classes
			t0 := time.Now()
			res, err := d.eng.Exec(o.stmt)
			ok := err == nil
			if ok && res.Rows != nil {
				ok = o.sized(res.Rows.Len())
			} else if ok {
				ok = o.sized(res.Count)
			}
			r.done(o.cls, t0, ok)
			d.pairFresh(o, time.Since(t0))
		}
	}
}

// pairFresh joins a REFRESH marked fresh with the point SELECT that
// follows it into one fresh-read sample.
func (d *driver) pairFresh(o *op, took time.Duration) {
	switch {
	case o.fresh:
		d.pending = int64(took)
	case o.cls == clsSQLPoint && d.pending > 0:
		if d.r.measuring {
			d.r.sample(clsFreshPair, d.pending+int64(took))
		}
		d.pending = 0
	}
}

// mvLen is Σ |MV| over the manager's views; -1 if one cannot be read.
func (d *driver) mvLen(m *core.Manager) int {
	n := 0
	for _, v := range m.Views() {
		b, err := m.DB().Bag(v.MVTable())
		if err != nil {
			return -1
		}
		n += b.Len()
	}
	return n
}

// stationary checks the cycle-boundary sizes against the generator's
// model: the tables are exactly as large as at set-up and no
// maintenance debt is left.
func (d *driver) stationary() error {
	for _, tb := range []struct {
		name string
		want int
	}{{"sales", d.sp.sales}, {"customer", d.sp.customers}} {
		b, err := d.db.Bag(tb.name)
		if err != nil {
			return err
		}
		if b.Len() != tb.want {
			return fmt.Errorf("%s has %d rows at a cycle boundary, want %d", tb.name, b.Len(), tb.want)
		}
	}
	if got := d.mvLen(d.m); got != d.g.relAll {
		return fmt.Errorf("views hold %d rows at a cycle boundary, want %d", got, d.g.relAll)
	}
	if l, df := d.aux(); l != 0 || df != 0 {
		return fmt.Errorf("%d log and %d differential tuples left at a cycle boundary", l, df)
	}
	return nil
}

// verify is the end-of-run correctness check (untimed apart from the
// CheckInvariant wall it returns): Figure 1 invariant and recompute
// equality for every view; on sql_day also through SQL, and the
// restored snapshot must hold the same view.
func (d *driver) verify() (checkInvariantNs int64, err error) {
	for _, name := range d.views {
		t0 := time.Now()
		if err := d.m.CheckInvariant(name); err != nil {
			return 0, err
		}
		checkInvariantNs += int64(time.Since(t0))
		if err := d.m.CheckConsistent(name); err != nil {
			return 0, err
		}
	}
	checkInvariantNs /= int64(len(d.views))
	if !d.sp.sql {
		return checkInvariantNs, nil
	}
	if _, err := d.eng.Exec("CHECK INVARIANT hv"); err != nil {
		return 0, err
	}
	if d.restored == nil {
		return 0, fmt.Errorf("no snapshot was restored")
	}
	live, err := d.m.Query("hv")
	if err != nil {
		return 0, err
	}
	back, err := d.restored.Manager().Query("hv")
	if err != nil {
		return 0, err
	}
	if !live.Equal(back) {
		return 0, fmt.Errorf("restored view differs from the live one: %d vs %d rows", back.Len(), live.Len())
	}
	return checkInvariantNs, nil
}
