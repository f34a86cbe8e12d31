// Package workload generates synthetic workloads for the experiments:
// the retail point-of-sale scenario of Example 1.1 (sales/customer
// tables, continuous inserts, a join view over highly-valued customers)
// with Zipf-skewed customer activity, plus mixed insert/delete batches.
//
// The paper's original application ran against a proprietary retail
// feed; this generator substitutes a parameterized synthetic equivalent
// (see DESIGN.md §2) — the maintenance algorithms only observe update
// rates, table sizes, and selectivities, all of which are configurable.
package workload

import (
	"fmt"
	"math/rand"

	"dvm/internal/algebra"
	"dvm/internal/bag"
	"dvm/internal/schema"
	"dvm/internal/storage"
	"dvm/internal/txn"
)

// RetailConfig parameterizes the retail generator.
type RetailConfig struct {
	Customers    int     // number of customers
	HighFraction float64 // fraction of customers with score "High"
	InitialSales int     // sales rows loaded at setup
	Items        int     // item-number domain
	ZipfS        float64 // customer-choice skew (>1; 0 disables skew)
	Seed         int64
}

// DefaultRetailConfig returns a laptop-scale configuration.
func DefaultRetailConfig() RetailConfig {
	return RetailConfig{
		Customers:    1000,
		HighFraction: 0.2,
		InitialSales: 5000,
		Items:        500,
		ZipfS:        1.2,
		Seed:         1,
	}
}

// Retail drives the Example 1.1 workload.
type Retail struct {
	cfg      RetailConfig
	rng      *rand.Rand
	zipf     *rand.Zipf
	salesSch *schema.Schema
	custSch  *schema.Schema
	live     []schema.Tuple // sales currently in the table, for deletions

	// Basket-mode state: per-customer live purchases (for same-customer
	// returns) and each customer's current score (for db-independent
	// score flips). scores is populated by Setup.
	liveByCust map[int64][]schema.Tuple
	scores     []string
}

// NewRetail builds a generator.
func NewRetail(cfg RetailConfig) *Retail {
	rng := rand.New(rand.NewSource(cfg.Seed))
	var z *rand.Zipf
	if cfg.ZipfS > 1 {
		z = rand.NewZipf(rng, cfg.ZipfS, 1, uint64(cfg.Customers-1))
	}
	return &Retail{
		cfg:  cfg,
		rng:  rng,
		zipf: z,
		salesSch: schema.NewSchema(
			schema.Col("s.custId", schema.TInt),
			schema.Col("s.itemNo", schema.TInt),
			schema.Col("s.quantity", schema.TInt),
			schema.Col("s.salesPrice", schema.TFloat),
		),
		custSch: schema.NewSchema(
			schema.Col("c.custId", schema.TInt),
			schema.Col("c.name", schema.TString),
			schema.Col("c.address", schema.TString),
			schema.Col("c.score", schema.TString),
		),
	}
}

// SalesSchema returns the sales table schema.
func (r *Retail) SalesSchema() *schema.Schema { return r.salesSch }

// CustomerSchema returns the customer table schema.
func (r *Retail) CustomerSchema() *schema.Schema { return r.custSch }

// Setup creates and loads the sales and customer tables in db.
func (r *Retail) Setup(db *storage.Database) error {
	sales, err := db.Create("sales", r.salesSch, storage.External)
	if err != nil {
		return err
	}
	cust, err := db.Create("customer", r.custSch, storage.External)
	if err != nil {
		return err
	}
	r.scores = make([]string, r.cfg.Customers)
	for i := 0; i < r.cfg.Customers; i++ {
		// The lowest customer ids are the high-value ones; combined with
		// Zipf skew (which favors low ids) this mimics the paper's
		// motivating workload where hot customers drive the view.
		score := "Low"
		if float64(i) < r.cfg.HighFraction*float64(r.cfg.Customers) {
			score = "High"
		}
		r.scores[i] = score
		row := schema.Row(i, fmt.Sprintf("cust-%d", i), fmt.Sprintf("addr-%d", i), score)
		if err := cust.Insert(row, 1); err != nil {
			return err
		}
	}
	for i := 0; i < r.cfg.InitialSales; i++ {
		row := r.randomSale()
		if err := sales.Insert(row, 1); err != nil {
			return err
		}
		r.live = append(r.live, row)
	}
	return nil
}

// pickCustomer draws a customer id, Zipf-skewed when configured.
func (r *Retail) pickCustomer() int64 {
	if r.zipf != nil {
		return int64(r.zipf.Uint64())
	}
	return int64(r.rng.Intn(r.cfg.Customers))
}

func (r *Retail) randomSale() schema.Tuple {
	qty := 1 + r.rng.Intn(5)
	if r.rng.Intn(50) == 0 {
		qty = 0 // occasionally a zero-quantity row, filtered by the view
	}
	return schema.Row(
		r.pickCustomer(),
		int64(r.rng.Intn(r.cfg.Items)),
		int64(qty),
		float64(1+r.rng.Intn(10000))/100,
	)
}

// ViewDef returns the Example 1.1 view over high-value customers:
//
//	SELECT c.custId, c.name, c.score, s.itemNo, s.quantity
//	FROM customer c, sales s
//	WHERE c.custId = s.custId AND s.quantity != 0 AND c.score = 'High'
func (r *Retail) ViewDef() (algebra.Expr, error) {
	return r.FilteredViewDef(algebra.True)
}

// FilteredViewDef is ViewDef with an extra conjunct, used to define many
// distinct views over the same tables (e.g. per item range).
func (r *Retail) FilteredViewDef(extra algebra.Predicate) (algebra.Expr, error) {
	c := algebra.NewBase("customer", r.custSch)
	s := algebra.NewBase("sales", r.salesSch)
	join, err := algebra.JoinOn(c, s, algebra.AndOf(
		algebra.Eq(algebra.A("c.custId"), algebra.A("s.custId")),
		algebra.Neq(algebra.A("s.quantity"), algebra.C(0)),
		algebra.Eq(algebra.A("c.score"), algebra.C("High")),
		extra,
	))
	if err != nil {
		return nil, err
	}
	return algebra.NewProject(
		[]string{"c.custId", "c.name", "c.score", "s.itemNo", "s.quantity"},
		[]string{"custId", "name", "score", "itemNo", "quantity"},
		join,
	)
}

// SalesBatch returns a transaction inserting n random sales.
func (r *Retail) SalesBatch(n int) txn.Txn {
	ins := bag.New()
	for i := 0; i < n; i++ {
		row := r.randomSale()
		ins.Add(row, 1)
		r.live = append(r.live, row)
	}
	return txn.Insert("sales", ins)
}

// MixedBatch returns a transaction inserting nIns new sales and deleting
// nDel previously inserted ones (point-of-sale corrections/returns).
func (r *Retail) MixedBatch(nIns, nDel int) txn.Txn {
	ins := bag.New()
	for i := 0; i < nIns; i++ {
		row := r.randomSale()
		ins.Add(row, 1)
		r.live = append(r.live, row)
	}
	del := bag.New()
	for i := 0; i < nDel && len(r.live) > 0; i++ {
		j := r.rng.Intn(len(r.live))
		del.Add(r.live[j], 1)
		r.live[j] = r.live[len(r.live)-1]
		r.live = r.live[:len(r.live)-1]
	}
	return txn.Txn{"sales": txn.Update{Delete: del, Insert: ins}}
}

// ScoreChange returns a transaction flipping one customer's score —
// a multi-attribute update expressed as delete+insert on customer.
func (r *Retail) ScoreChange(db *storage.Database) (txn.Txn, error) {
	cust, err := db.Bag("customer")
	if err != nil {
		return nil, err
	}
	var victim schema.Tuple
	pick := r.rng.Intn(cust.Distinct())
	i := 0
	cust.Each(func(tu schema.Tuple, _ int) {
		if i == pick {
			victim = tu.Clone()
		}
		i++
	})
	if victim == nil {
		return nil, fmt.Errorf("workload: no customers to update")
	}
	flipped := victim.Clone()
	if flipped[3].AsString() == "High" {
		flipped[3] = schema.Str("Low")
	} else {
		flipped[3] = schema.Str("High")
	}
	return txn.Txn{"customer": txn.Update{
		Delete: bag.Of(victim),
		Insert: bag.Of(flipped),
	}}, nil
}

// LiveSales reports how many sales rows the generator believes are live.
func (r *Retail) LiveSales() int { return len(r.live) }

// saleFor builds a random sale row for a fixed customer.
func (r *Retail) saleFor(cust int64) schema.Tuple {
	qty := 1 + r.rng.Intn(5)
	if r.rng.Intn(50) == 0 {
		qty = 0 // occasionally a zero-quantity row, filtered by the view
	}
	return schema.Row(
		cust,
		int64(r.rng.Intn(r.cfg.Items)),
		int64(qty),
		float64(1+r.rng.Intn(10000))/100,
	)
}

// Basket returns one point-of-sale transaction in the Example 1.1
// sense: a single Zipf-picked customer buys minItems..maxItems items,
// and with probability returnProb also returns one earlier purchase of
// THEIR OWN (corrections stay customer-local, like a real register).
//
// Basket tracks its own per-customer live set; do not interleave it
// with MixedBatch deletions in one run (the two trackers would
// desynchronize).
func (r *Retail) Basket(minItems, maxItems int, returnProb float64) txn.Txn {
	if r.liveByCust == nil {
		r.liveByCust = make(map[int64][]schema.Tuple)
	}
	cust := r.pickCustomer()
	n := minItems
	if maxItems > minItems {
		n += r.rng.Intn(maxItems - minItems + 1)
	}
	ins := bag.New()
	for i := 0; i < n; i++ {
		row := r.saleFor(cust)
		ins.Add(row, 1)
		r.liveByCust[cust] = append(r.liveByCust[cust], row)
	}
	u := txn.Update{Insert: ins}
	if returnProb > 0 && r.rng.Float64() < returnProb {
		if prev := r.liveByCust[cust]; len(prev) > 0 {
			j := r.rng.Intn(len(prev))
			u.Delete = bag.Of(prev[j])
			prev[j] = prev[len(prev)-1]
			r.liveByCust[cust] = prev[:len(prev)-1]
		}
	}
	return txn.Txn{"sales": u}
}

// ScoreFlip returns a transaction flipping one Zipf-picked customer's
// score, built from the generator's own tracked state (unlike
// ScoreChange it never reads a database, so the same generator drives
// identical streams into any number of engines). Requires Setup.
func (r *Retail) ScoreFlip() (txn.Txn, error) {
	if len(r.scores) == 0 {
		return nil, fmt.Errorf("workload: ScoreFlip requires Setup")
	}
	i := r.pickCustomer()
	oldScore := r.scores[i]
	newScore := "High"
	if oldScore == "High" {
		newScore = "Low"
	}
	r.scores[i] = newScore
	name, addr := fmt.Sprintf("cust-%d", i), fmt.Sprintf("addr-%d", i)
	return txn.Txn{"customer": txn.Update{
		Delete: bag.Of(schema.Row(i, name, addr, oldScore)),
		Insert: bag.Of(schema.Row(i, name, addr, newScore)),
	}}, nil
}
