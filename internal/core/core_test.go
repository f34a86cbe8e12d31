package core

import (
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"dvm/internal/algebra"
	"dvm/internal/bag"
	"dvm/internal/schema"
	"dvm/internal/storage"
	"dvm/internal/txn"
)

// retailDB builds the Example 1.1 schema: sales and customer tables plus
// the high-value-customer join view definition.
func retailDB(t testing.TB) (*storage.Database, algebra.Expr) {
	t.Helper()
	db := storage.NewDatabase()
	salesSch := schema.NewSchema(
		schema.Col("s.custId", schema.TInt),
		schema.Col("s.itemNo", schema.TInt),
		schema.Col("s.quantity", schema.TInt),
		schema.Col("s.salesPrice", schema.TFloat),
	)
	custSch := schema.NewSchema(
		schema.Col("c.custId", schema.TInt),
		schema.Col("c.name", schema.TString),
		schema.Col("c.address", schema.TString),
		schema.Col("c.score", schema.TString),
	)
	if _, err := db.Create("sales", salesSch, storage.External); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Create("customer", custSch, storage.External); err != nil {
		t.Fatal(err)
	}

	cust, _ := db.Table("customer")
	for i := 0; i < 10; i++ {
		score := "Low"
		if i%2 == 0 {
			score = "High"
		}
		if err := cust.Insert(schema.Row(i, "cust", "addr", score), 1); err != nil {
			t.Fatal(err)
		}
	}
	sales, _ := db.Table("sales")
	for i := 0; i < 30; i++ {
		if err := sales.Insert(schema.Row(i%10, i%7, i%3, float64(i)), 1); err != nil {
			t.Fatal(err)
		}
	}

	c := algebra.NewBase("customer", custSch)
	s := algebra.NewBase("sales", salesSch)
	join, err := algebra.JoinOn(c, s, algebra.AndOf(
		algebra.Eq(algebra.A("c.custId"), algebra.A("s.custId")),
		algebra.Neq(algebra.A("s.quantity"), algebra.C(0)),
		algebra.Eq(algebra.A("c.score"), algebra.C("High")),
	))
	if err != nil {
		t.Fatal(err)
	}
	def, err := algebra.NewProject(
		[]string{"c.custId", "c.name", "c.score", "s.itemNo", "s.quantity"},
		[]string{"custId", "name", "score", "itemNo", "quantity"},
		join,
	)
	if err != nil {
		t.Fatal(err)
	}
	return db, def
}

func saleRow(cust, item, qty int) schema.Tuple {
	return schema.Row(cust, item, qty, 9.99)
}

// randomRetailTxn builds a small random transaction against the
// retailDB schema, deterministic in rng.
func randomRetailTxn(rng *rand.Rand) txn.Txn {
	t := txn.Txn{}
	cust := rng.Intn(10)
	items := 1 + rng.Intn(4)
	ins := bag.New()
	for i := 0; i < items; i++ {
		qty := rng.Intn(4) // includes zero-quantity rows
		ins.Add(saleRow(cust, rng.Intn(7), qty), 1)
	}
	t["sales"] = txn.Update{Insert: ins}
	if rng.Intn(4) == 0 {
		// Delete a (possibly absent) earlier sale; Normalize clamps.
		t["sales"] = txn.Update{
			Insert: ins,
			Delete: bag.Of(saleRow(cust, rng.Intn(7), rng.Intn(4))),
		}
	}
	if rng.Intn(6) == 0 {
		// Score flip for one customer: delete+insert both score rows so
		// exactly one of the pair is effective.
		c := rng.Intn(10)
		t["customer"] = txn.Update{
			Delete: bag.Of(schema.Row(c, "cust", "addr", "High"), schema.Row(c, "cust", "addr", "Low")),
			Insert: bag.Of(schema.Row(c, "cust", "addr", []string{"High", "Low"}[rng.Intn(2)])),
		}
	}
	return t
}

func TestDefineViewBasics(t *testing.T) {
	db, def := retailDB(t)
	m := NewManager(db)
	v, err := m.DefineView("hv", def, Combined)
	if err != nil {
		t.Fatal(err)
	}
	if v.MVTable() != "__mv_hv" || !db.Has("__mv_hv") {
		t.Fatal("MV table missing")
	}
	// MV initialized to the current value of Q.
	if err := m.CheckConsistent("hv"); err != nil {
		t.Fatal(err)
	}
	// Aux tables for Combined: logs per base + diff tables.
	for _, name := range []string{
		"__log_del_customer__hv", "__log_ins_customer__hv",
		"__log_del_sales__hv", "__log_ins_sales__hv",
		"__dmv_del_hv", "__dmv_add_hv",
	} {
		if !db.Has(name) {
			t.Fatalf("aux table %s missing", name)
		}
		tb, _ := db.Table(name)
		if tb.Kind() != storage.Internal {
			t.Fatalf("aux table %s is not internal", name)
		}
	}
	bases := v.BaseTables()
	if len(bases) != 2 || bases[0] != "customer" || bases[1] != "sales" {
		t.Fatalf("BaseTables = %v", bases)
	}
	if _, err := m.DefineView("hv", def, Immediate); err == nil {
		t.Fatal("duplicate view accepted")
	}
	if got := m.Views(); len(got) != 1 || got[0] != v {
		t.Fatal("Views() wrong")
	}
	if _, err := m.View("ghost"); err == nil {
		t.Fatal("missing view lookup should fail")
	}
}

func TestDefineViewErrors(t *testing.T) {
	db, _ := retailDB(t)
	m := NewManager(db)
	ghost := algebra.NewBase("ghost", schema.NewSchema(schema.Col("x", schema.TInt)))
	if _, err := m.DefineView("bad", ghost, BaseLogs); err == nil {
		t.Fatal("view over missing table accepted")
	}
	// Views over internal tables are rejected.
	if _, err := db.Create("__secret", schema.NewSchema(schema.Col("x", schema.TInt)), storage.Internal); err != nil {
		t.Fatal(err)
	}
	evil := algebra.NewBase("__secret", schema.NewSchema(schema.Col("x", schema.TInt)))
	if _, err := m.DefineView("bad", evil, BaseLogs); err == nil {
		t.Fatal("view over internal table accepted")
	}
}

func TestScenarioStrings(t *testing.T) {
	for sc, want := range map[Scenario]string{Immediate: "IM", BaseLogs: "BL", DiffTables: "DT", Combined: "C"} {
		if sc.String() != want {
			t.Errorf("Scenario = %q, want %q", sc.String(), want)
		}
	}
	if !strings.HasPrefix(Scenario(99).String(), "Scenario(") {
		t.Error("unknown scenario string wrong")
	}
}

// runScenarioLifecycle drives a sequence of transactions through one
// scenario, checking the invariant after every step and consistency
// after refresh.
func runScenarioLifecycle(t *testing.T, sc Scenario, opts ...Option) {
	t.Helper()
	db, def := retailDB(t)
	m := NewManager(db)
	if _, err := m.DefineView("hv", def, sc, opts...); err != nil {
		t.Fatal(err)
	}

	steps := []txn.Txn{
		txn.Insert("sales", bag.Of(saleRow(0, 99, 5), saleRow(2, 99, 1))),
		txn.Delete("sales", bag.Of(saleRow(0, 99, 5))),
		// Multi-table transaction: demote customer 2, insert a sale for 4.
		{
			"customer": {
				Delete: bag.Of(schema.Row(2, "cust", "addr", "High")),
				Insert: bag.Of(schema.Row(2, "cust", "addr", "Low")),
			},
			"sales": {Insert: bag.Of(saleRow(4, 50, 2))},
		},
		// Insert a zero-quantity sale: filtered out by the predicate.
		txn.Insert("sales", bag.Of(saleRow(4, 51, 0))),
		// Duplicate insert: bag semantics must count it twice.
		txn.Insert("sales", bag.Of(saleRow(4, 50, 2))),
	}

	for i, tx := range steps {
		if err := m.Execute(tx); err != nil {
			t.Fatalf("step %d: execute: %v", i, err)
		}
		if err := m.CheckInvariant("hv"); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		// Mid-stream propagate for Combined must preserve the invariant.
		if sc == Combined && i == 2 {
			if err := m.Propagate("hv"); err != nil {
				t.Fatal(err)
			}
			if err := m.CheckInvariant("hv"); err != nil {
				t.Fatalf("after propagate: %v", err)
			}
		}
	}

	if err := m.Refresh("hv"); err != nil {
		t.Fatal(err)
	}
	if err := m.CheckConsistent("hv"); err != nil {
		t.Fatal(err)
	}
	if err := m.CheckInvariant("hv"); err != nil {
		t.Fatalf("invariant after refresh: %v", err)
	}

	// Another round after refresh (logs must have restarted cleanly).
	if err := m.Execute(txn.Insert("sales", bag.Of(saleRow(6, 1, 1)))); err != nil {
		t.Fatal(err)
	}
	if err := m.CheckInvariant("hv"); err != nil {
		t.Fatalf("invariant after post-refresh txn: %v", err)
	}
	if err := m.Refresh("hv"); err != nil {
		t.Fatal(err)
	}
	if err := m.CheckConsistent("hv"); err != nil {
		t.Fatal(err)
	}
}

func TestLifecycleImmediate(t *testing.T)  { runScenarioLifecycle(t, Immediate) }
func TestLifecycleBaseLogs(t *testing.T)   { runScenarioLifecycle(t, BaseLogs) }
func TestLifecycleDiffTables(t *testing.T) { runScenarioLifecycle(t, DiffTables) }
func TestLifecycleCombined(t *testing.T)   { runScenarioLifecycle(t, Combined) }

func TestLifecycleStrongMinimal(t *testing.T) {
	runScenarioLifecycle(t, DiffTables, WithStrongMinimality())
	runScenarioLifecycle(t, Combined, WithStrongMinimality())
}

func TestImmediateAlwaysConsistent(t *testing.T) {
	db, def := retailDB(t)
	m := NewManager(db)
	if _, err := m.DefineView("hv", def, Immediate); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := m.Execute(txn.Insert("sales", bag.Of(saleRow(i%10, i, 1)))); err != nil {
			t.Fatal(err)
		}
		// INV_IM means consistency holds after EVERY transaction.
		if err := m.CheckConsistent("hv"); err != nil {
			t.Fatalf("txn %d: %v", i, err)
		}
	}
	// Refresh is a no-op for Immediate.
	if err := m.Refresh("hv"); err != nil {
		t.Fatal(err)
	}
}

func TestExecuteRejectsInternalWrites(t *testing.T) {
	db, def := retailDB(t)
	m := NewManager(db)
	if _, err := m.DefineView("hv", def, Combined); err != nil {
		t.Fatal(err)
	}
	evil := txn.Insert("__mv_hv", bag.Of(schema.Row(1, "x", "High", 1, 1)))
	if err := m.Execute(evil); err == nil {
		t.Fatal("write to MV table accepted")
	}
	evil2 := txn.Insert("__log_ins_sales__hv", bag.Of(saleRow(1, 1, 1)))
	if err := m.Execute(evil2); err == nil {
		t.Fatal("write to log table accepted")
	}
}

// TestExecuteWrongArity: a bag holds tuples of one arity and panics on a
// mismatched insert, and no input reaches that panic. A wrong-arity
// insert is the schema error, before any bookkeeping; a wrong-arity
// delete matches no row, so Normalize leaves nothing of it. Either way
// every table — base, log, differential, MV — is as it was, in every
// scenario, and the next transaction maintains the view as usual.
func TestExecuteWrongArity(t *testing.T) {
	for _, sc := range []Scenario{Immediate, BaseLogs, DiffTables, Combined} {
		db, def := retailDB(t)
		m := NewManager(db)
		if _, err := m.DefineView("hv", def, sc); err != nil {
			t.Fatal(err)
		}
		if err := m.Execute(txn.Insert("sales", bag.Of(saleRow(0, 1, 1)))); err != nil {
			t.Fatal(err)
		}
		before := map[string]*bag.Bag{}
		for _, name := range db.Names() {
			b, _ := db.Bag(name)
			before[name] = bag.UnionAll(b, bag.New())
		}
		short := schema.Row(0, 1, 1)
		err := m.Execute(txn.Insert("sales", bag.Of(short)))
		if err == nil || !strings.Contains(err.Error(), "arity 3 != schema arity 4") {
			t.Fatalf("%v: a 3-column insert into 4-column sales: err = %v, want the schema error", sc, err)
		}
		if err := m.Execute(txn.Txn{
			"sales":    {Delete: bag.Of(short)},
			"customer": {Delete: bag.Of(schema.Row(0, "cust", "addr", "High", "extra"))},
		}); err != nil {
			t.Fatalf("%v: a wrong-arity delete: %v", sc, err)
		}
		for name, want := range before {
			if got, _ := db.Bag(name); !got.Equal(want) {
				t.Fatalf("%v: wrong-arity transactions changed %s: %v, was %v", sc, name, got, want)
			}
		}
		if err := m.Execute(txn.Delete("sales", bag.Of(saleRow(0, 1, 1)))); err != nil {
			t.Fatal(err)
		}
		if err := m.CheckInvariant("hv"); err != nil {
			t.Fatalf("%v: %v", sc, err)
		}
		if err := m.Refresh("hv"); err != nil {
			t.Fatal(err)
		}
		if err := m.CheckConsistent("hv"); err != nil {
			t.Fatalf("%v: %v", sc, err)
		}
	}
}

func TestUnaffectedViewSkipsBookkeeping(t *testing.T) {
	db, def := retailDB(t)
	sch := schema.NewSchema(schema.Col("x", schema.TInt))
	if _, err := db.Create("other", sch, storage.External); err != nil {
		t.Fatal(err)
	}
	m := NewManager(db)
	if _, err := m.DefineView("hv", def, Combined); err != nil {
		t.Fatal(err)
	}
	if err := m.Execute(txn.Insert("other", bag.Of(schema.Row(1)))); err != nil {
		t.Fatal(err)
	}
	v, _ := m.View("hv")
	if v.Stats.MakeSafeOps != 0 {
		t.Fatal("unaffected view was charged bookkeeping")
	}
	// Logs stayed empty.
	b, _ := db.Bag("__log_ins_sales__hv")
	if !b.Empty() {
		t.Fatal("log written for unaffected view")
	}
	if err := m.CheckInvariant("hv"); err != nil {
		t.Fatal(err)
	}
}

func TestPropagateAndPartialRefreshErrors(t *testing.T) {
	db, def := retailDB(t)
	m := NewManager(db)
	if _, err := m.DefineView("bl", def, BaseLogs); err != nil {
		t.Fatal(err)
	}
	if err := m.Propagate("bl"); err == nil {
		t.Fatal("propagate on BL view should fail")
	}
	if err := m.PartialRefresh("bl"); err == nil {
		t.Fatal("partial refresh on BL view should fail")
	}
	if err := m.Propagate("ghost"); err == nil {
		t.Fatal("propagate on missing view should fail")
	}
	if err := m.Refresh("ghost"); err == nil {
		t.Fatal("refresh on missing view should fail")
	}
	if err := m.RefreshRecompute("ghost"); err == nil {
		t.Fatal("recompute on missing view should fail")
	}
	if _, err := m.Query("ghost"); err == nil {
		t.Fatal("query on missing view should fail")
	}
}

func TestPartialRefreshSemantics(t *testing.T) {
	db, def := retailDB(t)
	m := NewManager(db)
	if _, err := m.DefineView("hv", def, Combined); err != nil {
		t.Fatal(err)
	}
	// Two batches: propagate after the first, not the second.
	if err := m.Execute(txn.Insert("sales", bag.Of(saleRow(0, 1, 1)))); err != nil {
		t.Fatal(err)
	}
	if err := m.Propagate("hv"); err != nil {
		t.Fatal(err)
	}
	if err := m.Execute(txn.Insert("sales", bag.Of(saleRow(0, 2, 1)))); err != nil {
		t.Fatal(err)
	}
	// Partial refresh applies only the propagated changes: the view
	// reflects batch 1 but not batch 2 — PAST(L,Q) ≡ MV afterwards.
	if err := m.PartialRefresh("hv"); err != nil {
		t.Fatal(err)
	}
	v, _ := m.View("hv")
	past, err := m.PastExpr(v)
	if err != nil {
		t.Fatal(err)
	}
	p, err := algebra.Eval(past, db)
	if err != nil {
		t.Fatal(err)
	}
	mv, _ := db.Bag(v.MVTable())
	if !p.Equal(mv) {
		t.Fatalf("partial refresh postcondition violated: PAST=%v MV=%v", p, mv)
	}
	// The unpropagated sale is NOT in the view yet.
	q, _ := algebra.Eval(def, db)
	if q.Equal(mv) {
		t.Fatal("partial refresh unexpectedly caught up fully (nothing pending?)")
	}
	// Full refresh catches up.
	if err := m.Refresh("hv"); err != nil {
		t.Fatal(err)
	}
	if err := m.CheckConsistent("hv"); err != nil {
		t.Fatal(err)
	}
}

func TestRefreshRecompute(t *testing.T) {
	db, def := retailDB(t)
	m := NewManager(db)
	if _, err := m.DefineView("hv", def, BaseLogs); err != nil {
		t.Fatal(err)
	}
	if err := m.Execute(txn.Insert("sales", bag.Of(saleRow(0, 1, 1)))); err != nil {
		t.Fatal(err)
	}
	if err := m.RefreshRecompute("hv"); err != nil {
		t.Fatal(err)
	}
	if err := m.CheckConsistent("hv"); err != nil {
		t.Fatal(err)
	}
	// Logs were reset, so the invariant holds too.
	if err := m.CheckInvariant("hv"); err != nil {
		t.Fatal(err)
	}
	v, _ := m.View("hv")
	if v.Stats.Recomputes != 1 {
		t.Fatal("recompute not counted")
	}
}

// journaled reports whether b keeps a mutation journal or an index —
// the derived state behind its unexported dx field, which only indexing
// the bag switches on.
func journaled(b *bag.Bag) bool {
	return !reflect.ValueOf(b).Elem().FieldByName("dx").IsNil()
}

// TestViewDefinitionEvaluatesOneShot: a view's definition runs through
// its compiled program, one-shot — at DefineView and again at
// RefreshRecompute. It only reads the base tables: no index and no
// journal is left on them, and MV is what the interpreter computes.
func TestViewDefinitionEvaluatesOneShot(t *testing.T) {
	for _, sc := range []Scenario{Immediate, BaseLogs, DiffTables, Combined} {
		db, def := retailDB(t)
		m := NewManager(db)
		check := func(when string) {
			t.Helper()
			for _, base := range []string{"sales", "customer"} {
				if b, _ := db.Bag(base); len(b.Indexes()) != 0 || journaled(b) {
					t.Fatalf("%v: %s left %s indexed or journaling", sc, when, base)
				}
			}
			want, err := algebra.Eval(def, db)
			if err != nil {
				t.Fatal(err)
			}
			if mv, _ := db.Bag("__mv_hv"); !mv.Equal(want) {
				t.Fatalf("%v: MV after %s = %v, interpreter says %v", sc, when, mv, want)
			}
		}
		if _, err := m.DefineView("hv", def, sc); err != nil {
			t.Fatal(err)
		}
		check("DefineView")
		if sc != BaseLogs && sc != Combined {
			continue // their makesafe joins the base tables: it may index them
		}
		if err := m.Execute(txn.Insert("sales", bag.Of(saleRow(0, 1, 1), saleRow(2, 3, 4)))); err != nil {
			t.Fatal(err)
		}
		if err := m.RefreshRecompute("hv"); err != nil {
			t.Fatal(err)
		}
		check("RefreshRecompute")
	}
}

// TestInterpreterStaysOutOfTheEngine pins, in the source, the end state
// of deleting the interpreted maintenance mode (ROADMAP item 4, "one
// Figure 3 pipeline"): outside tests, internal/core calls algebra.Eval only to
// check — the invariant checkers and CheckConsistent (invariant.go) —
// and never builds an interpreter (algebra.NewEvaluator) at all: every maintenance
// evaluation is a view's compiled pair program.
func TestInterpreterStaysOutOfTheEngine(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, file := range files {
		if strings.HasSuffix(file, "_test.go") {
			continue
		}
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		fn := ""
		for i, line := range strings.Split(string(src), "\n") {
			if strings.HasPrefix(line, "func ") {
				fn = line
			}
			if strings.Contains(line, "algebra.Eval(") && file != "invariant.go" {
				t.Errorf("%s:%d calls algebra.Eval in %q", file, i+1, fn)
			}
			if strings.Contains(line, "algebra.NewEvaluator(") {
				t.Errorf("%s:%d builds an interpreter in %q", file, i+1, fn)
			}
		}
	}
}

func TestQueryReturnsCopyAndRecordsLocks(t *testing.T) {
	db, def := retailDB(t)
	m := NewManager(db)
	if _, err := m.DefineView("hv", def, BaseLogs); err != nil {
		t.Fatal(err)
	}
	b, err := m.Query("hv")
	if err != nil {
		t.Fatal(err)
	}
	before := b.Len()
	b.Add(schema.Row(1, "x", "High", 1, 1), 1)
	b2, _ := m.Query("hv")
	if b2.Len() != before {
		t.Fatal("Query result aliases MV storage")
	}
	v, _ := m.View("hv")
	if m.Locks().Stats(v.MVTable()).ReadWaits != 2 {
		t.Fatal("query read locks not recorded")
	}
	// Refresh records a write hold.
	if err := m.Execute(txn.Insert("sales", bag.Of(saleRow(0, 1, 1)))); err != nil {
		t.Fatal(err)
	}
	if err := m.Refresh("hv"); err != nil {
		t.Fatal(err)
	}
	if m.Locks().Stats(v.MVTable()).WriteHolds != 1 {
		t.Fatal("refresh write hold not recorded")
	}
}

func TestViewStatsAccumulate(t *testing.T) {
	db, def := retailDB(t)
	m := NewManager(db)
	if _, err := m.DefineView("hv", def, Combined); err != nil {
		t.Fatal(err)
	}
	if err := m.Execute(txn.Insert("sales", bag.Of(saleRow(0, 1, 1)))); err != nil {
		t.Fatal(err)
	}
	if err := m.Propagate("hv"); err != nil {
		t.Fatal(err)
	}
	if err := m.PartialRefresh("hv"); err != nil {
		t.Fatal(err)
	}
	if err := m.Refresh("hv"); err != nil {
		t.Fatal(err)
	}
	v, _ := m.View("hv")
	s := v.Stats
	if s.MakeSafeOps != 1 || s.Propagates != 1 || s.PartialCount != 1 || s.Refreshes != 1 {
		t.Fatalf("stats = %+v", s)
	}
	if s.LogTuples != 1 {
		t.Fatalf("LogTuples = %d, want 1", s.LogTuples)
	}
}
