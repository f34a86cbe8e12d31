package workload

import (
	"testing"

	"dvm/internal/algebra"
	"dvm/internal/core"
	"dvm/internal/schema"
	"dvm/internal/storage"
)

func smallConfig() RetailConfig {
	return RetailConfig{
		Customers:    50,
		HighFraction: 0.3,
		InitialSales: 200,
		Items:        20,
		ZipfS:        1.2,
		Seed:         7,
	}
}

func TestSetupLoadsTables(t *testing.T) {
	db := storage.NewDatabase()
	r := NewRetail(smallConfig())
	if err := r.Setup(db); err != nil {
		t.Fatal(err)
	}
	sales, err := db.Bag("sales")
	if err != nil {
		t.Fatal(err)
	}
	if sales.Len() != 200 {
		t.Fatalf("sales = %d rows", sales.Len())
	}
	cust, _ := db.Bag("customer")
	if cust.Len() != 50 {
		t.Fatalf("customer = %d rows", cust.Len())
	}
	// Roughly the configured fraction of High customers.
	high := 0
	cust.Each(func(tu schema.Tuple, n int) {
		if tu[3].AsString() == "High" {
			high += n
		}
	})
	if high < 10 || high > 20 {
		t.Fatalf("high customers = %d, want ~15", high)
	}
	if r.LiveSales() != 200 {
		t.Fatalf("LiveSales = %d", r.LiveSales())
	}
	// Double setup fails (tables exist).
	if err := r.Setup(db); err == nil {
		t.Fatal("second setup should fail")
	}
}

func TestViewDefEvaluates(t *testing.T) {
	db := storage.NewDatabase()
	r := NewRetail(smallConfig())
	if err := r.Setup(db); err != nil {
		t.Fatal(err)
	}
	def, err := r.ViewDef()
	if err != nil {
		t.Fatal(err)
	}
	b, err := algebra.Eval(def, db)
	if err != nil {
		t.Fatal(err)
	}
	if b.Empty() {
		t.Fatal("view should be non-empty for this workload")
	}
	// Every result row is a High customer with nonzero quantity.
	ok := true
	b.Each(func(tu schema.Tuple, _ int) {
		if tu[2].AsString() != "High" || tu[4].AsInt() == 0 {
			ok = false
		}
	})
	if !ok {
		t.Fatal("view contains rows violating its predicate")
	}
	// Filtered variant restricts further.
	fdef, err := r.FilteredViewDef(algebra.Lt(algebra.A("s.itemNo"), algebra.C(5)))
	if err != nil {
		t.Fatal(err)
	}
	fb, err := algebra.Eval(fdef, db)
	if err != nil {
		t.Fatal(err)
	}
	if fb.Len() > b.Len() {
		t.Fatal("filtered view larger than unfiltered")
	}
}

// TestViewDefDerivesRelevantFilters: the item-range retail view reads
// sales only through quantity ≠ 0 ∧ itemNo ∈ [lo, hi), and customer only
// through score = 'High' — the filters its logs keep out the rest by.
func TestViewDefDerivesRelevantFilters(t *testing.T) {
	r := NewRetail(smallConfig())
	def, err := r.FilteredViewDef(algebra.AndOf(
		algebra.Cmp{Op: algebra.GE, L: algebra.A("s.itemNo"), R: algebra.C(5)},
		algebra.Lt(algebra.A("s.itemNo"), algebra.C(10)),
	))
	if err != nil {
		t.Fatal(err)
	}
	fs := algebra.RelevantFilters(def)
	if len(fs) != 2 {
		t.Fatalf("filters %v, want sales' and customer's", fs)
	}
	for _, c := range []struct {
		table string
		sch   *schema.Schema
		rows  []schema.Tuple
		want  []bool
	}{
		{"sales", r.SalesSchema(), []schema.Tuple{
			schema.Row(1, 5, 2, 1.0), schema.Row(1, 9, 1, 1.0), // inside the range
			schema.Row(1, 7, 0, 1.0),                            // quantity 0
			schema.Row(1, 4, 2, 1.0), schema.Row(1, 10, 2, 1.0), // outside the range
		}, []bool{true, true, false, false, false}},
		{"customer", r.CustomerSchema(), []schema.Tuple{
			schema.Row(1, "n", "a", "High"), schema.Row(2, "n", "a", "Low"),
		}, []bool{true, false}},
	} {
		keep, err := fs[c.table].Bind(c.sch)
		if err != nil {
			t.Fatalf("%s's filter %v: %v", c.table, fs[c.table], err)
		}
		for i, row := range c.rows {
			if got := keep(row); got != c.want[i] {
				t.Errorf("%s's filter %s keeps %v: %v, want %v", c.table, fs[c.table], row, got, c.want[i])
			}
		}
	}
	t.Logf("sales: %s; customer: %s", fs["sales"], fs["customer"])
}

func TestBatchesMaintainViews(t *testing.T) {
	db := storage.NewDatabase()
	r := NewRetail(smallConfig())
	if err := r.Setup(db); err != nil {
		t.Fatal(err)
	}
	def, err := r.ViewDef()
	if err != nil {
		t.Fatal(err)
	}
	m := core.NewManager(db)
	if _, err := m.DefineView("hv", def, core.Combined); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := m.Execute(r.SalesBatch(10)); err != nil {
			t.Fatal(err)
		}
		if err := m.Execute(r.MixedBatch(5, 5)); err != nil {
			t.Fatal(err)
		}
		sc, err := r.ScoreChange(db)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Execute(sc); err != nil {
			t.Fatal(err)
		}
		if err := m.CheckInvariant("hv"); err != nil {
			t.Fatalf("round %d: %v", i, err)
		}
	}
	if err := m.Refresh("hv"); err != nil {
		t.Fatal(err)
	}
	if err := m.CheckConsistent("hv"); err != nil {
		t.Fatal(err)
	}
}

func TestMixedBatchShrinksLiveSet(t *testing.T) {
	r := NewRetail(smallConfig())
	db := storage.NewDatabase()
	if err := r.Setup(db); err != nil {
		t.Fatal(err)
	}
	before := r.LiveSales()
	tx := r.MixedBatch(0, 50)
	if r.LiveSales() != before-50 {
		t.Fatalf("LiveSales = %d, want %d", r.LiveSales(), before-50)
	}
	if tx["sales"].Delete.Len() != 50 {
		t.Fatalf("delete bag = %d", tx["sales"].Delete.Len())
	}
}

func TestZipfSkewConcentrates(t *testing.T) {
	cfg := smallConfig()
	cfg.ZipfS = 1.5
	r := NewRetail(cfg)
	counts := map[int64]int{}
	for i := 0; i < 2000; i++ {
		counts[r.pickCustomer()]++
	}
	if counts[0] < 200 {
		t.Fatalf("customer 0 picked %d/2000 times; Zipf skew missing", counts[0])
	}
	// Unskewed config draws uniformly.
	cfg.ZipfS = 0
	u := NewRetail(cfg)
	counts = map[int64]int{}
	for i := 0; i < 2000; i++ {
		counts[u.pickCustomer()]++
	}
	if counts[0] > 200 {
		t.Fatalf("uniform pick too skewed: %d", counts[0])
	}
}

func TestDeterministicWithSeed(t *testing.T) {
	a := NewRetail(smallConfig())
	b := NewRetail(smallConfig())
	ta := a.SalesBatch(20)
	tb := b.SalesBatch(20)
	if !ta["sales"].Insert.Equal(tb["sales"].Insert) {
		t.Fatal("same seed produced different batches")
	}
}
