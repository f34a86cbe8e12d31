package core

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
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

// TestBaseTablesIsACopy: the caller owns what BaseTables returns.
// Sorting it and appending to it leave the view's own base list, and
// the view's maintenance over it, as they were.
func TestBaseTablesIsACopy(t *testing.T) {
	db, def := retailDB(t)
	m := NewManager(db)
	v, err := m.DefineView("hv", def, Combined)
	if err != nil {
		t.Fatal(err)
	}
	bases := v.BaseTables()
	slices.SortFunc(bases, func(a, b string) int { return strings.Compare(b, a) })
	_ = append(bases[:1], "ghost") // writes the returned slice's second element
	if got := v.BaseTables(); !slices.Equal(got, []string{"customer", "sales"}) {
		t.Fatalf("BaseTables = %v after the caller rewrote its copy, want [customer sales]", got)
	}
	if err := m.Execute(txn.Insert("sales", bag.Of(saleRow(0, 99, 5)))); err != nil {
		t.Fatal(err)
	}
	if err := m.Refresh("hv"); err != nil {
		t.Fatal(err)
	}
	if err := m.CheckConsistent("hv"); err != nil {
		t.Fatal(err)
	}
	if err := m.CheckInvariant("hv"); err != nil {
		t.Fatal(err)
	}
}

func TestDefineViewErrors(t *testing.T) {
	db, def := retailDB(t)
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
	// A view reading a table named like the transaction delta of another
	// table it reads: its pre-update pair could not tell the two apart.
	sales, _ := db.Table("sales")
	if _, err := db.Create("__tx_del_sales", sales.Schema(), storage.External); err != nil {
		t.Fatal(err)
	}
	both, err := algebra.NewUnionAll(algebra.NewBase("sales", sales.Schema()), algebra.NewBase("__tx_del_sales", sales.Schema()))
	if err != nil {
		t.Fatal(err)
	}
	names := db.Names()
	if _, err := m.DefineView("bad", both, Immediate); err == nil {
		t.Fatal("view over sales and __tx_del_sales accepted")
	}
	// An unknown scenario is refused before any table is created.
	if _, err := m.DefineView("hv", def, Scenario(7)); err == nil {
		t.Fatal("view under Scenario(7) accepted")
	}
	if got := db.Names(); !slices.Equal(got, names) {
		t.Fatalf("refused defines changed the tables from %v to %v", names, got)
	}
	if len(m.Views()) != 0 {
		t.Fatalf("refused defines registered %d views", len(m.Views()))
	}
}

// TestFailedDefineViewLeavesNothingBehind: a define that fails after it
// created some of its tables — a user table squats on the name of its
// △MV — drops them again. Once the squatter is gone the name can be
// defined, and both views maintain.
func TestFailedDefineViewLeavesNothingBehind(t *testing.T) {
	db, def := retailDB(t)
	m := NewManager(db)
	if _, err := m.DefineView("other", def, Combined); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Create("__dmv_add_hv", def.Schema(), storage.External); err != nil {
		t.Fatal(err)
	}
	names := db.Names()
	if _, err := m.DefineView("hv", def, Combined); err == nil {
		t.Fatal("a view whose △MV name is taken was defined")
	}
	if got := db.Names(); !slices.Equal(got, names) {
		t.Fatalf("the failed define left tables behind: %v, before it %v", got, names)
	}
	if err := m.Execute(txn.Insert("sales", highSales(0, 5))); err != nil {
		t.Fatal(err)
	}
	if err := m.Refresh("other"); err != nil {
		t.Fatal(err)
	}
	if err := db.Drop("__dmv_add_hv"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.DefineView("hv", def, Combined); err != nil {
		t.Fatalf("the name stays taken after the squatter is gone: %v", err)
	}
	if err := m.Execute(txn.Insert("sales", highSales(5, 5))); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"other", "hv"} {
		if err := m.CheckInvariant(name); err != nil {
			t.Fatal(err)
		}
		if err := m.Refresh(name); err != nil {
			t.Fatal(err)
		}
		if err := m.CheckConsistent(name); err != nil {
			t.Fatal(err)
		}
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
	if stat(m, "makesafe_ns", "hv") != 0 {
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
	if stat(m, "recompute_ns", "hv") != 1 {
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

// TestScenarioIsReadOnlyByDefineView: Figure 1's scenario is two bits a
// view holds — whether it keeps logs, whether it keeps differential
// tables — and DefineView is what turns the one into the other. Outside
// Scenario's declaration, its String method and DefineView, no non-test
// file of the package names a scenario or reads View.Scenario.
func TestScenarioIsReadOnlyByDefineView(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	scenarios := map[string]bool{"Immediate": true, "BaseLogs": true, "DiffTables": true, "Combined": true}
	fset := token.NewFileSet()
	for _, file := range files {
		if strings.HasSuffix(file, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, file, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Name.Name == "DefineView" || d.Name.Name == "String" && d.Recv != nil && types.ExprString(d.Recv.List[0].Type) == "Scenario" {
					continue
				}
			case *ast.GenDecl:
				if d.Tok == token.CONST && len(d.Specs) > 0 && types.ExprString(d.Specs[0].(*ast.ValueSpec).Type) == "Scenario" {
					continue
				}
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.Ident:
					if scenarios[n.Name] {
						t.Errorf("%s names the scenario %s", fset.Position(n.Pos()), n.Name)
					}
				case *ast.SelectorExpr:
					if n.Sel.Name == "Scenario" {
						t.Errorf("%s reads %s", fset.Position(n.Pos()), types.ExprString(n))
					}
				}
				return true
			})
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
	s := map[string]int64{}
	for _, f := range []string{"makesafe_ns", "propagate_ns", "partial_refresh_ns", "refresh_ns"} {
		s[f] = stat(m, f, "hv")
	}
	if s["makesafe_ns"] != 1 || s["propagate_ns"] != 1 || s["partial_refresh_ns"] != 1 || s["refresh_ns"] != 1 {
		t.Fatalf("stats = %v", s)
	}
	if n := stat(m, "log_append_tuples", "hv"); n != 1 {
		t.Fatalf("LogTuples = %d, want 1", n)
	}
}

// stat reads one view's metric from m's registry: a counter's or
// gauge's value, a histogram's observation count.
func stat(m *Manager, name, view string) int64 {
	x, _ := m.Obs().Snapshot().Get(name, view)
	return x.Value + x.Count
}
