package algebra

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"dvm/internal/schema"
)

// refHolds is this file's own table of the operators, so a kernel is
// held to Value.Compare and not to CmpOp.holds, which it shares.
var refHolds = map[CmpOp]func(int) bool{
	EQ: func(c int) bool { return c == 0 },
	NE: func(c int) bool { return c != 0 },
	LT: func(c int) bool { return c < 0 },
	LE: func(c int) bool { return c <= 0 },
	GT: func(c int) bool { return c > 0 },
	GE: func(c int) bool { return c >= 0 },
}

// kernelValues are the values a kernel must compare as Compare does:
// NULL; NaNs of several payloads and both signs; ±0 and ±Inf; INTs
// and FLOATs around 2^53 and at ±2^63, where float64 rounds; the empty,
// short and long strings, one a prefix of another; both BOOLs.
func kernelValues() []schema.Value {
	long := strings.Repeat("x", 300)
	return []schema.Value{
		schema.Null(),
		schema.Float(math.NaN()),
		schema.Float(math.Float64frombits(0x7ff0000000000001)),
		schema.Float(math.Float64frombits(0x7fffffffffffffff)),
		schema.Float(math.Float64frombits(0xfff8000000000000)),
		schema.Float(0), schema.Float(math.Copysign(0, -1)), schema.Int(0),
		schema.Float(math.Inf(1)), schema.Float(math.Inf(-1)),
		schema.Int(1<<53 - 1), schema.Int(1 << 53), schema.Int(1<<53 + 1),
		schema.Float(1<<53 - 1), schema.Float(1 << 53), schema.Float(1<<53 + 2),
		schema.Int(math.MaxInt64), schema.Int(math.MinInt64), schema.Int(math.MinInt64 + 1),
		schema.Float(math.MaxInt64), schema.Float(math.MinInt64), schema.Float(-1 << 62),
		schema.Int(-1), schema.Float(-0.5), schema.Float(1.5),
		schema.Str(""), schema.Str("a"), schema.Str("ab"), schema.Str("b"), schema.Str(long), schema.Str(long + "y"),
		schema.Bool(false), schema.Bool(true),
	}
}

// checkKernel binds A op k and k op A over a one-column schema, alone
// (Cmp.Bind) and as a conjunction's conjunct (And.Bind, whose loop runs
// the kernel itself), and holds each to op over Compare on v.
func checkKernel(t *testing.T, sc *schema.Schema, op CmpOp, v, k schema.Value) {
	t.Helper()
	tu := schema.Tuple{v}
	for _, c := range []struct {
		p    Cmp
		want bool
	}{
		{Cmp{Op: op, L: A("a"), R: Const{Value: k}}, refHolds[op](v.Compare(k))},
		{Cmp{Op: op, L: Const{Value: k}, R: A("a")}, refHolds[op](k.Compare(v))},
	} {
		for _, p := range []Predicate{c.p, AndOf(c.p), AndOf(True, c.p)} {
			f, err := p.Bind(sc)
			if err != nil {
				t.Fatalf("Bind(%s): %v", p, err)
			}
			if got := f(tu); got != c.want {
				t.Fatalf("%s on a = %v: %t, want %t", p, v, got, c.want)
			}
		}
	}
}

// TestKernelsMatchCompare: a comparison of a column with an INT or
// STRING constant is bound to the kernel of the constant's type, on
// either side, one with a constant of another type to none; each answers
// as op over Value.Compare does, for every operator and every pair of
// kernelValues — the value in the column and the constant.
func TestKernelsMatchCompare(t *testing.T) {
	sc := schema.NewSchema(schema.Col("a", schema.TInt))
	vals := kernelValues()
	checked := 0
	for op := range refHolds {
		for _, k := range vals {
			for _, side := range []Cmp{{Op: op, L: A("a"), R: Const{Value: k}}, {Op: op, L: Const{Value: k}, R: A("a")}} {
				b, err := bindCmp(side, sc)
				if err != nil {
					t.Fatal(err)
				}
				want := schema.TNull
				if k.Type() == schema.TInt || k.Type() == schema.TString {
					want = k.Type()
				}
				if b.typ != want || want != schema.TNull && (b.l.pos != 0 || !b.r.isConst()) {
					t.Fatalf("%s binds a kernel of type %v over %+v, want %v with the column on the left", side, b.typ, b, want)
				}
			}
			for _, v := range vals {
				checkKernel(t, sc, op, v, k)
				checked++
			}
		}
	}
	t.Logf("%d (operator, value, constant) triples checked, each constant on both sides", checked)
}

// FuzzKernel is TestKernelsMatchCompare on arbitrary values: a type tag
// and a 64-bit payload (an INT, a FLOAT's bits, a BOOL's low bit) or a
// string, for the column's value and the constant each.
func FuzzKernel(f *testing.F) {
	f.Add(uint8(EQ), uint8(2), uint64(0x7ff8000000000001), "", uint8(2), uint64(0x7ff8000000000000), "")
	f.Add(uint8(LT), uint8(1), uint64(1<<53+1), "", uint8(2), math.Float64bits(1<<53), "")
	f.Add(uint8(GE), uint8(3), uint64(0), "ab", uint8(3), uint64(0), "a")
	f.Add(uint8(NE), uint8(0), uint64(0), "", uint8(4), uint64(1), "")
	f.Add(uint8(LE), uint8(2), math.Float64bits(math.Copysign(0, -1)), "", uint8(1), uint64(0), "")
	sc := schema.NewSchema(schema.Col("a", schema.TInt))
	value := func(tag uint8, bits uint64, s string) schema.Value {
		switch tag % 5 {
		case 1:
			return schema.Int(int64(bits))
		case 2:
			return schema.Float(math.Float64frombits(bits))
		case 3:
			return schema.Str(s)
		case 4:
			return schema.Bool(bits&1 == 1)
		}
		return schema.Null()
	}
	f.Fuzz(func(t *testing.T, op, vt uint8, vb uint64, vs string, kt uint8, kb uint64, ks string) {
		checkKernel(t, sc, CmpOp(op%uint8(GE+1)), value(vt, vb, vs), value(kt, kb, ks))
	})
}

// TestBindAllocatesAsBefore pins what binding costs, kernels or not:
// a comparison of columns and constants binds to one object (its
// evaluator), a conjunction of them to two (its conjunct slice and the
// closure over it), however many kernels it holds.
func TestBindAllocatesAsBefore(t *testing.T) {
	sc := schema.NewSchema(schema.Col("a", schema.TInt), schema.Col("b", schema.TFloat), schema.Col("c", schema.TString))
	kernels := []Predicate{Eq(A("a"), C(1)), Lt(C(1), A("a")), Neq(A("c"), C("x"))}
	others := []Predicate{Eq(A("a"), A("b")), Gt(A("a"), Const{Value: schema.Null()}), Lt(C(1), C(2)),
		Lt(C(1.5), A("b")), Eq(A("a"), Const{Value: schema.Bool(true)})}
	for _, p := range append(kernels, others...) {
		if got := testing.AllocsPerRun(100, func() { _, _ = p.Bind(sc) }); got != 1 {
			t.Errorf("%s binds in %v objects, want 1", p, got)
		}
	}
	for n := 1; n <= len(kernels); n++ {
		ps := append(kernels[:n:n], others[:n-1]...)
		p := AndOf(ps...)
		if got := testing.AllocsPerRun(100, func() { _, _ = p.Bind(sc) }); got != 2 {
			t.Errorf("%s binds in %v objects, want 2", p, got)
		}
	}
}

// BenchmarkBoundComparison scans 100 000 sales-shaped rows (custId,
// itemNo, quantity INT, salesPrice FLOAT) with the conjunction
// quantity != 0 AND itemNo >= 250 AND itemNo < 750, bound once: through
// the typed kernels, as And.Bind binds it, and through Value.Compare,
// the same conjuncts with their kernels switched off. It reports the
// cost of one row.
func BenchmarkBoundComparison(b *testing.B) {
	sc := schema.NewSchema(schema.Col("custId", schema.TInt), schema.Col("itemNo", schema.TInt),
		schema.Col("quantity", schema.TInt), schema.Col("salesPrice", schema.TFloat))
	rng := rand.New(rand.NewSource(1))
	rows, slab := make([]schema.Tuple, 100_000), make(schema.Tuple, 4*100_000)
	for i := range rows {
		rows[i] = slab[4*i : 4*i+4 : 4*i+4]
		copy(rows[i], schema.Row(rng.Intn(1000), rng.Intn(1000), rng.Intn(10), float64(rng.Intn(10000))/100))
	}
	p := AndOf(Neq(A("quantity"), C(0)), Cmp{Op: GE, L: A("itemNo"), R: C(250)}, Lt(A("itemNo"), C(750)))
	kernels, err := p.Bind(sc)
	if err != nil {
		b.Fatal(err)
	}
	cs, err := p.bindInto(nil, sc)
	if err != nil {
		b.Fatal(err)
	}
	for i := range cs {
		cs[i].cmp.typ = schema.TNull
	}
	compare := func(t schema.Tuple) bool {
		for i := range cs {
			if !cs[i].holds(t) {
				return false
			}
		}
		return true
	}
	for _, c := range []struct {
		name string
		keep func(schema.Tuple) bool
	}{{"Compare", compare}, {"kernels", kernels}} {
		b.Run(c.name, func(b *testing.B) {
			kept := 0
			for b.Loop() {
				for _, t := range rows {
					if c.keep(t) {
						kept++
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(rows)), "ns/row")
		})
	}
}
