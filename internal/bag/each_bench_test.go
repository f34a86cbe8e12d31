package bag_test

import (
	"testing"

	"dvm/internal/algebra"
	"dvm/internal/bag"
	"dvm/internal/schema"
)

// BenchmarkEachSelect: 16 range scans (quantity != 0 ∧ itemNo ∈ [lo,
// hi)), each bound by And.Bind as a view's σ is, over a 100 000-row
// sales table filled by Add: the walk a view's first materialization
// makes over each base table, once per view. The rows are allocated in
// the order they are added, so a walk in that order reads them in
// memory order.
func BenchmarkEachSelect(b *testing.B) {
	const rows = 100_000
	sch := schema.NewSchema(schema.Col("custId", schema.TInt), schema.Col("itemNo", schema.TInt),
		schema.Col("quantity", schema.TInt), schema.Col("salesPrice", schema.TFloat))
	sales := bag.New()
	for i := 0; i < rows; i++ {
		sales.Add(schema.Row(i%5000, i*7919%rows, i%4, float64(i%100)+0.99), 1)
	}
	preds := make([]func(schema.Tuple) bool, 16)
	for k := range preds {
		lo, hi := k*rows/len(preds), (k+1)*rows/len(preds)
		p, err := algebra.AndOf(algebra.Neq(algebra.A("quantity"), algebra.C(0)),
			algebra.Gt(algebra.A("itemNo"), algebra.C(lo-1)), algebra.Lt(algebra.A("itemNo"), algebra.C(hi))).Bind(sch)
		if err != nil {
			b.Fatal(err)
		}
		preds[k] = p
	}
	b.ResetTimer()
	matched := 0
	for range b.N {
		for _, p := range preds {
			sales.Each(func(t schema.Tuple, n int) {
				if p(t) {
					matched += n
				}
			})
		}
	}
	if want := b.N * rows * 3 / 4; matched != want {
		b.Fatalf("the scans matched %d rows, want %d", matched, want)
	}
}
