package schema

import "testing"

// hashSink keeps BenchmarkTupleHash's calls from being optimized away.
var hashSink uint64

// BenchmarkTupleHash prices Tuple.Hash — the key encoding and maphash —
// on one column of each kind the encoding treats apart, and on a row of
// the retail sales table (custId, itemNo, quantity, salesPrice). Each
// reads 0 allocs/op: the key is encoded into a stack buffer.
func BenchmarkTupleHash(b *testing.B) {
	for _, c := range []struct {
		name string
		t    Tuple
	}{
		{"int", Row(int64(184467))},
		{"integral-float", Row(42.0)},
		{"float", Row(19.99)},
		{"string", Row("cust-1729")},
		{"sales-row", Row(int64(1729), int64(318), int64(3), 19.99)},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				hashSink = c.t.Hash()
			}
		})
	}
}
